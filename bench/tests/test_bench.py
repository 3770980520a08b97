"""Tests of the benchmark's own code: generator, tracer, checks, metric names.

Run from the repository root: PYTHONPATH=src python -m pytest bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
FIXTURE = ROOT / "tests" / "fixtures" / "fixture12"
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = gen.Shape(candidates=24, pool=8, library=3, figures=4, accepted_share=0.25)
TINY_LOO = dataclasses.replace(TINY, candidates=0, corpus_docs=False)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic(tmp_path):
    gen.generate(tmp_path / "a", 7, TINY)
    gen.generate(tmp_path / "b", 7, TINY)
    gen.generate(tmp_path / "c", 8, TINY)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]


def test_generated_inputs_load_through_vismine(tmp_path):
    from vismine import (evidence, ingest_metadata, keyword_prefilter, load_config,
                         load_labeled_pool, validate_config)
    from vismine.jsonl import read_jsonl
    from vismine.library import load_library

    expected = gen.generate(tmp_path, 3, TINY)
    assert validate_config(load_config(tmp_path / "config.json")) == []
    records, report = ingest_metadata(read_jsonl(tmp_path / "corpus.jsonl"))
    assert report.total == expected["raw_records"]
    assert report.dropped_duplicates == gen.DUPLICATE_RECORDS
    assert len(keyword_prefilter(records)) == expected["candidates_after_prefilter"]
    pool = load_labeled_pool(records, [(r["paper_id"], r["label"])
                                       for r in read_jsonl(tmp_path / "pool.jsonl")])
    assert len(pool.positives) == len(pool.negatives) == TINY.pool // 2
    library = load_library(read_jsonl(tmp_path / "library.jsonl"))
    assert len(library) == TINY.library
    assert sum(len(p.coded_figures()) for p in library) == expected["coded_figures"]
    manifest = list(read_jsonl(tmp_path / "docs_manifest.jsonl"))
    assert len(manifest) == expected["docs"]
    for entry in manifest:
        text = (tmp_path / "docs" / entry["path"]).read_text(encoding="utf-8")
        doc = evidence.filter_nonbody(evidence.segment_paragraphs(entry["paper_id"], text))
        found = evidence.extract_all_evidence(doc)
        assert [ev.figure_id for ev in found] == [f"Figure {i}" for i in range(1, TINY.figures + 1)]
        assert all(ev.context for ev in found)
        assert [evidence.evidence_from_dict(ev.to_dict()) for ev in found] == found


def test_stub_rules_are_fixture12s():
    config = json.loads((FIXTURE / "config.json").read_text(encoding="utf-8"))
    assert {slot: spec["stub_rules"] for slot, spec in config["backends"].items()} == gen.STUB_RULES


@pytest.fixture(scope="module")
def fixture12_runs(tmp_path_factory):
    """Untraced and traced worker runs of both entry points on fixture12."""
    tmp = tmp_path_factory.mktemp("fixture12")
    evidence = tmp / "evidence.jsonl"
    run._worker("evidence", str(FIXTURE / "docs_manifest.jsonl"), str(FIXTURE / "docs"),
                str(evidence))
    runs = {}
    for traced in (False, True):
        tag = "traced" if traced else "plain"
        trace = ["--trace", str(tmp / f"spans-{tag}.jsonl")] if traced else []
        config = run._write_config(tmp / f"funnel-{tag}" / "config.json", FIXTURE, "out/cache")
        runs["funnel", traced] = run._worker("funnel", str(config), *trace)
        config = run._write_config(tmp / f"loo-{tag}" / "config.json", FIXTURE, "cache")
        runs["loo", traced] = run._worker("loo", str(config), str(evidence),
                                          str(tmp / f"loo-{tag}" / "out"), *trace)
    return runs


def test_every_layer_records_calls_on_fixture12(fixture12_runs):
    calls = {}
    for mode in ("funnel", "loo"):
        for name, count in fixture12_runs[mode, True]["span_calls"].items():
            calls[name] = calls.get(name, 0) + count
    for module, path, name, _ in tracer.TARGETS:
        assert calls.get(name, 0) >= 1, f"{module}.{path} ({name}) was never called"
    funnel = fixture12_runs["funnel", True]["layers"]
    loo = fixture12_runs["loo", True]["layers"]
    assert sorted(funnel) == sorted(loo) == sorted(tracer.metric_names())
    assert loo["evidence.docs"] == 0 and funnel["evidence.docs"] == 12
    assert funnel["bm25.build.calls"] < loo["bm25.build.calls"]
    assert funnel["gateway.requests"] == funnel["gateway.network_calls"] == 28
    assert sum(funnel[f"gateway.requests.stage{i}"] for i in (1, 2, 3)) == 28
    assert loo["evaluation.folds"] > 0 and loo["evaluation.errors"] == 0


def test_traced_outputs_match_untraced(fixture12_runs):
    for mode in ("funnel", "loo"):
        plain, traced = fixture12_runs[mode, False], fixture12_runs[mode, True]
        assert run._comparable(traced["outputs"]) == run._comparable(plain["outputs"])
        assert traced["gateway"] == plain["gateway"]
        assert traced["backend"] == plain["backend"]


def test_metric_names_and_benchmark_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert end_to_end == run.END_TO_END_UNITS
    assert sorted(per_layer) == sorted(run.per_layer_names())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: run.unit_of(name) for name in per_layer}
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME_RE.match(name), name


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    for name, spec in run.WORKLOADS.items():
        shape = TINY_LOO if spec.mode == "loo" else TINY
        monkeypatch.setitem(run.WORKLOADS, name, dataclasses.replace(spec, shape=shape))
    return tmp_path


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_runs_pass_their_checks(tiny_workloads, name):
    details, result = run.run(name, 5, seconds=0, trace=False)
    assert details["check_failures"] == [] and result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["iterations"]["timed"] == run.MIN_ITERATIONS
    if name != "loo_eval":
        assert details["properties"]["workload.accepted_share"] == TINY.accepted_share
        assert details["properties"]["workload.candidates"] == TINY.candidates + TINY.pool
    details, result = run.run(name, 5, seconds=0, trace=True)
    assert result["correct"] and sorted(result["metrics"]) == sorted(run.per_layer_names())


def test_checks_catch_broken_outputs(tiny_workloads):
    runner = run.Runner("funnel_warm", 4, tiny_workloads / "work")
    runner.prepare()
    assert runner.failures == []
    primed = runner.primed
    called = {**primed, "gateway": {**primed["gateway"], "network_calls": 1,
                                    "cache_hits": primed["gateway"]["requests"] - 1}}
    runner.check_funnel(called, runner.work / "prime" / "out", cold=False)
    assert any("warm run made network calls" in f for f in runner.failures)
    subset = runner.work / "prime" / "out" / "stage1_subset.jsonl"
    subset.write_text("".join(subset.read_text().splitlines(keepends=True)[1:]))
    runner.failures.clear()
    runner.check_funnel(primed, runner.work / "prime" / "out", cold=True)
    assert any("stage-1 subset" in f for f in runner.failures)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "funnel_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
