"""End-to-end pipeline orchestration on the shipped fixture."""

import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vismine.config import load_config
from vismine.errors import InputError, PipelineError
from vismine.jsonl import atomic_write_text, dumps_stable, read_jsonl, write_jsonl
from vismine.corpus import PaperRecord
from vismine.pipeline import (
    STAGES, load_evidence_table, load_pool, run_evidence_step, run_pipeline, stage_outputs,
)
from tests.conftest import FIXTURE_DIR


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(st.characters(blacklist_categories=("Cs",))),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(st.characters(blacklist_categories=("Cs",))), children, max_size=3),
    max_leaves=8,
)
JSON_ROWS = st.lists(
    st.dictionaries(st.text(st.characters(blacklist_categories=("Cs",))), JSON_VALUES, max_size=4),
    max_size=5,
)


class TestStreamedWrites:
    """`write_jsonl` writes rows as they come and leaves the old file on any failure."""

    @settings(max_examples=200, deadline=None)
    @given(JSON_ROWS)
    def test_same_bytes_as_one_joined_write(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rows") / "rows.jsonl"
        assert write_jsonl(path, iter(rows)) == len(rows)
        lines = [dumps_stable(row) for row in rows]
        expected = "\n".join(lines) + ("\n" if lines else "")
        assert path.read_bytes() == expected.encode("utf-8")

    def test_rows_that_raise_leave_the_target_as_it_was(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_bytes(b'{"old":1}\n')

        def rows():
            yield {"a": 1}
            yield {"b": 2}
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_jsonl(target, rows())
        assert target.read_bytes() == b'{"old":1}\n'
        assert list(tmp_path.glob("*.tmp*")) == []


def write_docs(docs_dir: Path, manifest: Path, count: int) -> None:
    """`count` converted texts of 8 captioned figures, each cited in 4 of 32 body paragraphs."""
    docs_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(count):
        paragraphs = [f"Figure {k}: The model view number {k} of paper {i} shows weights."
                      for k in range(1, 9)]
        paragraphs += [f"Paragraph {j} of paper {i} discusses how the model behaves, "
                       f"as Figure {j % 8 + 1} shows for the trained network."
                       for j in range(32)]
        (docs_dir / f"D{i:04d}.txt").write_text("\n\n".join(paragraphs) + "\n",
                                                encoding="utf-8")
        entries.append({"paper_id": f"D{i:04d}", "path": f"D{i:04d}.txt"})
    write_jsonl(manifest, entries)


class TestEvidenceStep:
    def test_undecodable_document_leaves_the_old_evidence_file(self, tmp_path):
        docs, manifest = tmp_path / "docs", tmp_path / "manifest.jsonl"
        write_docs(docs, manifest, 3)
        (docs / "D0001.txt").write_bytes(b"Figure 1: caption \xff text\n")
        out = tmp_path / "evidence.jsonl"
        out.write_bytes(b'{"old":1}\n')
        with pytest.raises(InputError, match=r"D0001\.txt: not UTF-8 text"):
            run_evidence_step(manifest, docs, out)
        assert out.read_bytes() == b'{"old":1}\n'
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_memory_does_not_grow_with_the_documents(self, tmp_path):
        """The step holds one document at a time, so ten times the documents
        adds nothing to its traced peak beyond a fixed slack."""

        def traced_peak(count: int) -> int:
            docs, manifest = tmp_path / f"docs{count}", tmp_path / f"manifest{count}.jsonl"
            write_docs(docs, manifest, count)
            run_evidence_step(manifest, docs, tmp_path / "warm.jsonl")
            tracemalloc.start()
            try:
                assert run_evidence_step(manifest, docs, tmp_path / f"ev{count}.jsonl") \
                    == 8 * count
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(20), traced_peak(200)
        assert large <= small + 256 * 1024, (small, large)


class TestLoadEvidenceTable:
    @pytest.fixture
    def evidence_file(self, tmp_path) -> Path:
        path = tmp_path / "evidence.jsonl"
        run_evidence_step(FIXTURE_DIR / "docs_manifest.jsonl", FIXTURE_DIR / "docs", path)
        return path

    @pytest.mark.parametrize("ids", [set(), {"P01"}, {"P03", "P07", "P99"}])
    def test_listed_papers_only(self, evidence_file, ids):
        every = {str(row["paper_id"]) for row in read_jsonl(evidence_file)}
        full = load_evidence_table(evidence_file, every)
        assert len(full) == 30
        assert list(load_evidence_table(evidence_file, ids).items()) == [
            (key, ev) for key, ev in full.items() if key[0] in ids
        ]

    def test_unlisted_row_without_figure_id_still_fails(self, evidence_file):
        rows = list(read_jsonl(evidence_file))
        del rows[1]["figure_id"]
        rows[1]["paper_id"] = "P99"
        write_jsonl(evidence_file, rows)
        with pytest.raises(InputError) as excinfo:
            load_evidence_table(evidence_file, {"P01"})
        assert str(excinfo.value) == f"{evidence_file}: record 2 has no 'figure_id'"


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
