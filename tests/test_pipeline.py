"""End-to-end pipeline orchestration on the shipped fixture."""

import builtins
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vismine import evidence as evidence_mod
from vismine import jsonl as jsonl_mod
from vismine import pipeline
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
        with pytest.raises(InputError) as excinfo:
            run_pipeline(config, stages=["deploy"])
        assert str(excinfo.value) == (
            "--stages names unknown stages ['deploy']; "
            "choose from ingest,stage1,evidence,stage2,stage3,analyze")

    def test_manifest_hashes_reproducible(self, fixture_config):
        from vismine.jsonl import file_sha256

        config = load_config(fixture_config("hashes"))
        manifest = run_pipeline(config)
        for stage_info in manifest.stages.values():
            for path, digest in stage_info["outputs"].items():
                assert file_sha256(path) == digest

    def test_each_file_hashed_once(self, fixture_config, monkeypatch):
        from vismine import pipeline
        from vismine.jsonl import file_sha256

        hashed = []
        monkeypatch.setattr(pipeline, "file_sha256",
                            lambda path: hashed.append(str(path)) or file_sha256(path))
        config = load_config(fixture_config("hash_once"))
        manifest = run_pipeline(config)
        outputs = {path: digest for info in manifest.stages.values()
                   for path, digest in info["outputs"].items()}
        assert sorted(hashed) == sorted(outputs) and len(outputs) == 12
        for info in manifest.stages.values():
            for path, digest in info["inputs"].items():
                assert digest == outputs[path] == file_sha256(path)

        # A stage whose inputs an earlier call wrote hashes them from disk.
        hashed.clear()
        manifest = run_pipeline(load_config(fixture_config("hash_once")), stages=["stage2"])
        assert sorted(hashed) == sorted([*manifest.stages["stage2"]["inputs"],
                                         *manifest.stages["stage2"]["outputs"]])
        assert manifest.stages["stage2"]["inputs"] == {
            path: outputs[path] for path in manifest.stages["stage2"]["inputs"]}

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


# Paragraphs of converted text: captions (sub-lettered too), body text citing
# captioned and never-captioned figures, with non-ASCII quotes and dashes.
_WORDS = st.sampled_from([
    "the", "model", "shows", "\u201cweights\u201d", "\u2018layer\u2019", "\u2013", "\u2014",
    "as", "in", "Figure 1", "Fig. 2", "Figure 2b", "Figure 3(a)", "figure 9", "F\u0130GURE 1",
    "Fig.\u00a04", "network", "\u00e9tude", "12",
])
GENERATED_PARAGRAPHS = st.one_of(
    st.tuples(st.sampled_from(["Figure 1:", "Fig. 2.", "Figure 2b:", "Figure 3 (a) \u2014",
                               "Figure 4 \u2013", "FIGURE 5:", "Figure 2a:"]),
              st.lists(_WORDS, min_size=1, max_size=8)).map(
        lambda parts: " ".join([parts[0], *parts[1]])),
    st.lists(_WORDS, min_size=1, max_size=14).map(" ".join),
    st.sampled_from(["References", "ABSTRACT", "7"]),
)


def log_lines(cache_dir: Path) -> int:
    """The lines of the evidence memo log, one per document put."""
    log = cache_dir / "evidence.jsonl"
    return log.read_bytes().count(b"\n") if log.exists() else 0


def count_segmentations(monkeypatch) -> list[str]:
    """The paper ids `segment_paragraphs` is called with from now on."""
    calls = []
    segment = evidence_mod.segment_paragraphs
    monkeypatch.setattr(evidence_mod, "segment_paragraphs",
                        lambda paper_id, text: calls.append(paper_id) or segment(paper_id, text))
    return calls


class TestEvidenceMemo:
    """With a cache dir, each document's lines are stored in a log under its inputs' key."""

    def test_warm_run_serves_every_document_from_the_log(self, fixture_config, tmp_path,
                                                        monkeypatch):
        counts = []
        step = pipeline.run_evidence_step
        monkeypatch.setattr(pipeline, "run_evidence_step",
                            lambda *args: counts.append(step(*args)) or counts[-1])
        cache = tmp_path / "shared-cache"
        cold = load_config(fixture_config("cold", cache_dir=str(cache)))
        run_pipeline(cold)
        segmented = count_segmentations(monkeypatch)
        warm = load_config(fixture_config("warm", cache_dir=str(cache)))
        run_pipeline(warm)
        assert segmented == []
        assert counts == [30, 30]
        evidence_file = "evidence.jsonl"
        assert (Path(warm.out_dir) / evidence_file).read_bytes() \
            == (Path(cold.out_dir) / evidence_file).read_bytes()
        assert sorted(p.name for p in cache.iterdir()) == ["evidence.jsonl", "responses.jsonl"]
        assert log_lines(cache) == 12
        assert output_bytes(Path(warm.out_dir)) == output_bytes(Path(cold.out_dir))

    def test_an_edited_document_alone_is_extracted_again(self, tmp_path, monkeypatch):
        docs, manifest, cache = tmp_path / "docs", tmp_path / "manifest.jsonl", tmp_path / "cache"
        write_docs(docs, manifest, 5)
        run_evidence_step(manifest, docs, tmp_path / "primed.jsonl", cache)
        edited = docs / "D0003.txt"
        edited.write_text(edited.read_text(encoding="utf-8")
                          + "\nA closing paragraph of the paper cites Figure 2 once more.\n",
                          encoding="utf-8")
        segmented = count_segmentations(monkeypatch)
        assert run_evidence_step(manifest, docs, tmp_path / "edited.jsonl", cache) == 40
        assert segmented == ["D0003"]
        assert log_lines(cache) == 6
        run_evidence_step(manifest, docs, tmp_path / "fresh.jsonl")
        assert (tmp_path / "edited.jsonl").read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()
        assert (tmp_path / "edited.jsonl").read_bytes() != (tmp_path / "primed.jsonl").read_bytes()

    def test_a_cold_step_opens_each_document_once(self, tmp_path, monkeypatch):
        docs, manifest, cache = tmp_path / "docs", tmp_path / "manifest.jsonl", tmp_path / "cache"
        write_docs(docs, manifest, 3)
        opened, real_open = [], io.open

        def counting_open(file, *args, **kwargs):
            if Path(file).parent == docs:
                opened.append(Path(file).name)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        assert run_evidence_step(manifest, docs, tmp_path / "evidence.jsonl", cache) == 24
        assert opened == ["D0000.txt", "D0001.txt", "D0002.txt"]

    @pytest.mark.parametrize("module", [evidence_mod, jsonl_mod], ids=["evidence", "jsonl"])
    def test_changed_extractor_source_misses(self, tmp_path, monkeypatch, module):
        docs, manifest, cache = tmp_path / "docs", tmp_path / "manifest.jsonl", tmp_path / "cache"
        write_docs(docs, manifest, 3)
        run_evidence_step(manifest, docs, tmp_path / "a.jsonl", cache)
        changed = tmp_path / Path(module.__file__).name
        changed.write_bytes(Path(module.__file__).read_bytes() + b"\n# changed\n")
        monkeypatch.setattr(module, "__file__", str(changed))
        segmented = count_segmentations(monkeypatch)
        assert run_evidence_step(manifest, docs, tmp_path / "b.jsonl", cache) == 24
        assert segmented == ["D0000", "D0001", "D0002"]
        assert log_lines(cache) == 6

    def test_other_paper_id_over_the_same_bytes_misses(self, tmp_path, monkeypatch):
        docs, manifest, cache = tmp_path / "docs", tmp_path / "manifest.jsonl", tmp_path / "cache"
        write_docs(docs, manifest, 1)
        run_evidence_step(manifest, docs, tmp_path / "a.jsonl", cache)
        renamed = tmp_path / "renamed.jsonl"
        write_jsonl(renamed, [{"paper_id": "R0000", "path": "D0000.txt"}])
        segmented = count_segmentations(monkeypatch)
        assert run_evidence_step(renamed, docs, tmp_path / "b.jsonl", cache) == 8
        assert segmented == ["R0000"]
        assert {row["paper_id"] for row in read_jsonl(tmp_path / "b.jsonl")} == {"R0000"}
        assert log_lines(cache) == 2

    @pytest.mark.parametrize("content", [b"Figure 1: caption \xff text\n", b" \n\n \n"])
    def test_failed_extraction_stores_no_memo(self, tmp_path, monkeypatch, content):
        docs, manifest, cache = tmp_path / "docs", tmp_path / "manifest.jsonl", tmp_path / "cache"
        write_docs(docs, manifest, 3)
        (docs / "D0002.txt").write_bytes(content)
        with pytest.raises(InputError) as excinfo:
            run_evidence_step(manifest, docs, tmp_path / "evidence.jsonl", cache)
        assert str(excinfo.value).startswith(f"{docs / 'D0002.txt'}: ")
        assert not (tmp_path / "evidence.jsonl").exists()
        assert list(tmp_path.rglob("*.tmp*")) == []
        # The documents before it were stored; the failing one was not, so a
        # rerun fails on it again.
        assert log_lines(cache) == 2
        segmented = count_segmentations(monkeypatch)
        with pytest.raises(InputError):
            run_evidence_step(manifest, docs, tmp_path / "evidence.jsonl", cache)
        assert segmented == []
        assert log_lines(cache) == 2

    def test_missing_document_fails_before_anything_is_written(self, tmp_path):
        docs, manifest, cache = tmp_path / "docs", tmp_path / "manifest.jsonl", tmp_path / "cache"
        write_docs(docs, manifest, 3)
        (docs / "D0001.txt").unlink()
        with pytest.raises(InputError) as excinfo:
            run_evidence_step(manifest, docs, tmp_path / "evidence.jsonl", cache)
        assert str(excinfo.value) == (f"{manifest}: record 2 ('D0001'): "
                                      f"no such document: {docs / 'D0001.txt'}")
        assert not (tmp_path / "evidence.jsonl").exists() and not cache.exists()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(GENERATED_PARAGRAPHS, min_size=1, max_size=8), min_size=1,
                    max_size=4))
    def test_memo_bytes_equal_fresh_extraction(self, documents):
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            docs, manifest, cache = work / "docs", work / "manifest.jsonl", work / "cache"
            docs.mkdir()
            for i, paragraphs in enumerate(documents):
                (docs / f"G{i}.txt").write_text("\n\n".join(paragraphs), encoding="utf-8")
            write_jsonl(manifest, ({"paper_id": f"G{i}", "path": f"G{i}.txt"}
                                   for i in range(len(documents))))
            fresh = run_evidence_step(manifest, docs, work / "fresh.jsonl")
            assert run_evidence_step(manifest, docs, work / "miss.jsonl", cache) == fresh
            with mock.patch.object(evidence_mod, "segment_paragraphs",
                                   side_effect=AssertionError("extracted on a memo hit")):
                assert run_evidence_step(manifest, docs, work / "hit.jsonl", cache) == fresh
            expected = (work / "fresh.jsonl").read_bytes()
            assert (work / "miss.jsonl").read_bytes() == expected
            assert (work / "hit.jsonl").read_bytes() == expected
            assert expected.count(b"\n") == fresh

    @settings(max_examples=80, deadline=None)
    @given(st.booleans(),
           st.lists(st.tuples(GENERATED_PARAGRAPHS, st.sampled_from(
               ["\n\n", "\r\n\r\n", "\r\r", "\n\r", "\r\n", "\n", "\r", " \r\n\t\r"])),
                    min_size=1, max_size=8),
           st.one_of(st.none(), st.tuples(st.integers(0, 400),
                                          st.sampled_from([b"\xff", b"\xe2\x80", b"\xc3("]))))
    def test_lines_equal_an_extraction_over_read_text(self, bom, parts, bad_bytes):
        """Whatever its newlines, BOM or undecodable bytes, a document gives the
        lines, or the error, of an extraction over `Path.read_text`."""
        data = (("\ufeff" if bom else "") + "".join(p + sep for p, sep in parts)).encode("utf-8")
        if bad_bytes is not None:
            at, bad = bad_bytes
            data = data[:at] + bad + data[at:]
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            docs, manifest, cache = work / "docs", work / "manifest.jsonl", work / "cache"
            docs.mkdir()
            path = docs / "G0.txt"
            path.write_bytes(data)
            write_jsonl(manifest, [{"paper_id": "G0", "path": "G0.txt"}])
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                message = f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"
                for out in ("miss", "hit"):
                    with pytest.raises(InputError) as excinfo:
                        run_evidence_step(manifest, docs, work / f"{out}.jsonl", cache)
                    assert str(excinfo.value) == message
                return
            doc = evidence_mod.filter_nonbody(evidence_mod.segment_paragraphs("G0", text))
            expected = "".join(dumps_stable(ev.to_dict()) + "\n"
                               for ev in evidence_mod.extract_all_evidence(doc))
            for out in ("miss", "hit"):
                run_evidence_step(manifest, docs, work / f"{out}.jsonl", cache)
                assert (work / f"{out}.jsonl").read_text(encoding="utf-8") == expected
            assert log_lines(cache) == 1


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
