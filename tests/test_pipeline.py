"""End-to-end pipeline orchestration on the shipped fixture."""

import json
from pathlib import Path

import pytest

from vismine.config import load_config
from vismine.errors import PipelineError
from vismine.jsonl import atomic_write_text, read_jsonl, write_jsonl
from vismine.corpus import PaperRecord
from vismine.pipeline import STAGES, load_pool, run_pipeline, stage_outputs


def output_bytes(out_dir: Path) -> dict[str, bytes]:
    collected = {}
    for paths in stage_outputs(out_dir).values():
        for path in paths:
            if path.exists():
                collected[str(path.relative_to(out_dir))] = path.read_bytes()
    return collected


class TestRunPipeline:
    def test_full_run_produces_all_outputs(self, fixture_config):
        config = load_config(fixture_config("full"))
        manifest = run_pipeline(config)
        assert sorted(manifest.stages) == sorted(STAGES)
        out_dir = Path(config.out_dir)
        for paths in stage_outputs(out_dir).values():
            for path in paths:
                assert path.exists(), path

    def test_byte_identical_across_runs(self, fixture_config):
        first = load_config(fixture_config("run_a"))
        second = load_config(fixture_config("run_b"))
        run_pipeline(first)
        run_pipeline(second)
        assert output_bytes(Path(first.out_dir)) == output_bytes(Path(second.out_dir))

    def test_byte_identical_across_thread_counts(self, fixture_config):
        serial = load_config(fixture_config("serial", max_workers=1))
        threaded = load_config(fixture_config("threaded", max_workers=4))
        run_pipeline(serial)
        run_pipeline(threaded)
        assert output_bytes(Path(serial.out_dir)) == output_bytes(Path(threaded.out_dir))

    def test_warm_cache_rerun_zero_network_calls(self, fixture_config):
        config = load_config(fixture_config("warm"))
        first = run_pipeline(config)
        assert first.gateway["network_calls"] > 0
        before = output_bytes(Path(config.out_dir))
        second = run_pipeline(load_config(fixture_config("warm")))
        assert second.gateway["network_calls"] == 0
        assert second.gateway["cache_hits"] == first.gateway["network_calls"]
        assert output_bytes(Path(config.out_dir)) == before

    def test_downstream_without_upstream_fails_naming_stage(self, fixture_config):
        config = load_config(fixture_config("partial"))
        with pytest.raises(PipelineError) as excinfo:
            run_pipeline(config, stages=["stage2"])
        assert "stage1" in str(excinfo.value)

    def test_staged_execution_consumes_upstream_files(self, fixture_config):
        config = load_config(fixture_config("staged"))
        run_pipeline(config, stages=["ingest", "stage1", "evidence"])
        manifest = run_pipeline(load_config(fixture_config("staged")), stages=["stage2"])
        assert list(manifest.stages) == ["stage2"]
        verdicts = list(read_jsonl(Path(config.out_dir) / "stage2_verdicts.jsonl"))
        assert len(verdicts) == 10

    def test_unknown_stage_rejected(self, fixture_config):
        config = load_config(fixture_config("unknown"))
        with pytest.raises(PipelineError):
            run_pipeline(config, stages=["deploy"])

    def test_manifest_hashes_reproducible(self, fixture_config):
        from vismine.jsonl import file_sha256

        config = load_config(fixture_config("hashes"))
        manifest = run_pipeline(config)
        for stage_info in manifest.stages.values():
            for path, digest in stage_info["outputs"].items():
                assert file_sha256(path) == digest

    def test_no_temp_files_left_behind(self, fixture_config):
        config = load_config(fixture_config("tidy"))
        run_pipeline(config)
        leftovers = [p for p in Path(config.out_dir).rglob("*.tmp*")]
        assert leftovers == []

    def test_evidence_counts_fixture_figures(self, fixture_config):
        config = load_config(fixture_config("figcount"))
        run_pipeline(config, stages=["ingest", "stage1", "evidence"])
        evidence = list(read_jsonl(Path(config.out_dir) / "evidence.jsonl"))
        assert len(evidence) == 30


class TestAtomicWrites:
    def test_interrupted_replace_preserves_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.jsonl"
        target.write_text("old content\n", encoding="utf-8")

        def boom(self, other):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(Path, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "new content\n")
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "old content\n"

    def test_write_jsonl_roundtrip(self, tmp_path):
        rows = [{"b": 2, "a": 1}, {"x": "ü"}]
        path = tmp_path / "rows.jsonl"
        assert write_jsonl(path, rows) == 2
        assert list(read_jsonl(path)) == rows

    def test_empty_write(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_jsonl(path, [])
        assert path.read_text() == ""
        assert list(read_jsonl(path)) == []


class TestLoadPool:
    def test_records_first_titled_rows_add_missing_papers(self, tmp_path):
        pool_file = tmp_path / "pool.jsonl"
        write_jsonl(pool_file, [
            {"paper_id": "B", "label": "negative", "title": "pool title B"},
            {"paper_id": "A", "label": "positive", "title": "pool title A"},
            {"paper_id": "C", "label": "positive"},
        ])
        records = [PaperRecord(paper_id="C", title="corpus title C"),
                   PaperRecord(paper_id="A", title="corpus title A")]
        pool = load_pool(pool_file, records)
        assert [r.paper_id for r in pool.records] == ["B", "A", "C"]
        assert {r.paper_id: r.title for r in pool.records} == {
            "A": "corpus title A", "B": "pool title B", "C": "corpus title C",
        }
        assert [r.label for r in pool.records] == ["negative", "positive", "positive"]
