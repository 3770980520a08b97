"""Command-line interface: subcommands, exit codes, file handoffs."""

import json
import re
import shutil
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vismine import cli, pipeline
from vismine.cli import main
from vismine.errors import GatewayError, InputError
from vismine.gateway import KeywordStubBackend
from vismine.jsonl import read_jsonl
from vismine.prompts import LABELS_SCHEMA, SCREEN_SCHEMA
from tests.conftest import FIXTURE_DIR


def fx(name: str) -> str:
    return str(FIXTURE_DIR / name)


class TestRunCommand:
    def test_composite_run(self, fixture_config, capsys):
        config = fixture_config("cli_run")
        assert main(["run", "--config", str(config)]) == 0
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        assert (out_dir / "stage3_labels.jsonl").exists()
        assert "pipeline complete" in capsys.readouterr().out

    def test_validation_failure_exit_code(self, fixture_config, capsys):
        config = fixture_config(
            "cli_bad",
            stage1={"k": 0, "backends": ["primary", "secondary"]},
            corpus="missing.jsonl",
        )
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "k must be >= 1" in err

    def test_missing_upstream_is_runtime_failure(self, fixture_config):
        config = fixture_config("cli_partial")
        assert main(["run", "--config", str(config), "--stages", "stage3"]) == 2

    @pytest.mark.parametrize("concurrency", [0, -1])
    def test_concurrency_below_one_exits_1_before_any_gateway(self, fixture_config, monkeypatch,
                                                              capsys, concurrency):
        def no_gateway(config):
            raise AssertionError("a gateway was built")

        monkeypatch.setattr(pipeline, "build_gateway", no_gateway)
        monkeypatch.setattr(cli, "build_gateway", no_gateway)
        config = fixture_config("cli_concurrency", concurrency=concurrency)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"concurrency must be >= 1, got {concurrency}" in err
        assert "Traceback" not in err


class TestStageCommands:
    def test_stagewise_handoff(self, fixture_config, tmp_path):
        config = str(fixture_config("cli_stages"))
        work = tmp_path / "work"
        work.mkdir()

        assert main([
            "ingest", "--corpus", fx("corpus.jsonl"),
            "--out", str(work / "corpus.jsonl"),
            "--report", str(work / "report.json"),
        ]) == 0
        report = json.loads((work / "report.json").read_text())
        assert report["total"] == 13
        assert report["after_keyword_filter"] == 12

        assert main([
            "stage1", "--corpus", str(work / "corpus.jsonl"), "--pool", fx("pool.jsonl"),
            "--k", "6", "--min-pos", "2", "--min-neg", "2",
            "--out", str(work / "subset.jsonl"), "--log", str(work / "decisions.jsonl"),
            "--config", config,
        ]) == 0
        subset = [r["paper_id"] for r in read_jsonl(work / "subset.jsonl")]
        assert subset == ["P01", "P02", "P03", "P07", "P10", "P12"]
        assert len(list(read_jsonl(work / "decisions.jsonl"))) == 12

        assert main([
            "evidence", "--docs-manifest", fx("docs_manifest.jsonl"),
            "--docs-dir", fx("docs"), "--out", str(work / "evidence.jsonl"),
        ]) == 0
        assert len(list(read_jsonl(work / "evidence.jsonl"))) == 30

        assert main([
            "stage2", "--papers", str(work / "subset.jsonl"),
            "--evidence", str(work / "evidence.jsonl"), "--library", fx("library.jsonl"),
            "--k", "5", "--max-figs", "3",
            "--out", str(work / "verdicts.jsonl"), "--config", config,
        ]) == 0
        verdicts = list(read_jsonl(work / "verdicts.jsonl"))
        assert len(verdicts) == 10
        assert sum(1 for v in verdicts if v["selected"]) == 6

        assert main([
            "stage3", "--figures", str(work / "verdicts.jsonl"),
            "--evidence", str(work / "evidence.jsonl"), "--library", fx("library.jsonl"),
            "--k", "10", "--cap", "3",
            "--out", str(work / "labels.jsonl"), "--config", config,
        ]) == 0
        labels = list(read_jsonl(work / "labels.jsonl"))
        assert len(labels) == 6

        assert main([
            "analyze", "--labels", str(work / "labels.jsonl"),
            "--papers", str(work / "corpus.jsonl"), "--library", fx("library.jsonl"),
            "--ref-year", "2026", "--out-dir", str(work / "analysis"),
        ]) == 0
        assert (work / "analysis" / "sankey.json").exists()
        assert (work / "analysis" / "trends.csv").exists()
        assert (work / "analysis" / "weights.csv").exists()
        paths = list(read_jsonl(work / "analysis" / "paths.jsonl"))
        assert len(paths) == 15

    def test_eval_command(self, fixture_config, tmp_path, capsys):
        config = str(fixture_config("cli_eval"))
        work = tmp_path / "evalwork"
        work.mkdir()
        assert main([
            "evidence", "--docs-manifest", fx("docs_manifest.jsonl"),
            "--docs-dir", fx("docs"), "--out", str(work / "evidence.jsonl"),
        ]) == 0
        assert main([
            "eval", "--pool", fx("pool.jsonl"), "--corpus", fx("corpus.jsonl"),
            "--figures", fx("library.jsonl"), "--evidence", str(work / "evidence.jsonl"),
            "--stages", "1,2,3", "--shots", "0,6",
            "--out", str(work / "report.json"), "--config", config,
        ]) == 0
        report = json.loads((work / "report.json").read_text())
        assert report["fold_counts"] == {"stage1": 6, "stage2": 3, "stage3": 3}
        assert report["rows"]
        out = capsys.readouterr().out
        assert "leakage violations: 0" in out


RUN_OUTPUTS = (
    "corpus.jsonl", "ingest_report.json", "stage1_subset.jsonl", "stage1_decisions.jsonl",
    "evidence.jsonl", "stage2_verdicts.jsonl", "stage3_labels.jsonl",
    "analysis/paths.jsonl", "analysis/sankey.json", "analysis/edge_flows.json",
    "analysis/trends.csv", "analysis/weights.csv",
)


def run_stagewise(config: str, work: Path) -> None:
    """Every step through its own subcommand, written under `vismine run`'s file names."""
    work.mkdir(parents=True)
    steps = [
        ["ingest", "--corpus", fx("corpus.jsonl"), "--out", str(work / "corpus.jsonl"),
         "--report", str(work / "ingest_report.json")],
        ["stage1", "--corpus", str(work / "corpus.jsonl"), "--pool", fx("pool.jsonl"),
         "--out", str(work / "stage1_subset.jsonl"),
         "--log", str(work / "stage1_decisions.jsonl"), "--config", config],
        ["evidence", "--docs-manifest", fx("docs_manifest.jsonl"), "--docs-dir", fx("docs"),
         "--out", str(work / "evidence.jsonl")],
        ["stage2", "--papers", str(work / "stage1_subset.jsonl"),
         "--evidence", str(work / "evidence.jsonl"), "--library", fx("library.jsonl"),
         "--out", str(work / "stage2_verdicts.jsonl"), "--config", config],
        ["stage3", "--figures", str(work / "stage2_verdicts.jsonl"),
         "--evidence", str(work / "evidence.jsonl"), "--library", fx("library.jsonl"),
         "--out", str(work / "stage3_labels.jsonl"), "--config", config],
        ["analyze", "--labels", str(work / "stage3_labels.jsonl"),
         "--papers", str(work / "corpus.jsonl"), "--library", fx("library.jsonl"),
         "--out-dir", str(work / "analysis")],
    ]
    for step in steps:
        assert main(step) == 0, step[0]


def run_composite(config: Path) -> Path:
    assert main(["run", "--config", str(config)]) == 0
    return Path(json.loads(config.read_text())["out_dir"])


class TestStagewiseMatchesRun:
    def test_every_output_byte_identical(self, fixture_config, tmp_path):
        run_dir = run_composite(fixture_config("composite"))
        run_stagewise(str(fixture_config("stagewise")), tmp_path / "stagewise")
        for name in RUN_OUTPUTS:
            assert (tmp_path / "stagewise" / name).read_bytes() == (run_dir / name).read_bytes(), name


class TestConfigVocabulary:
    """Without `--vocab`/`--alias`, stage3 and eval read the config's files."""

    @pytest.fixture
    def alias_file(self, tmp_path) -> Path:
        aliases = json.loads(resources.files("vismine").joinpath("data", "aliases.json").read_text())
        assert aliases["visualization_type"]["scatter plot"] == "statistical chart"
        aliases["visualization_type"]["scatter plot"] = "heatmap"  # a stub rule's value
        path = tmp_path / "aliases.json"
        path.write_text(json.dumps(aliases), encoding="utf-8")
        return path

    def test_stage3_matches_run(self, fixture_config, tmp_path, alias_file):
        config = fixture_config("aliased", aliases=str(alias_file))
        run_dir = run_composite(config)
        default_dir = run_composite(fixture_config("default"))
        labels = (run_dir / "stage3_labels.jsonl").read_bytes()
        assert labels != (default_dir / "stage3_labels.jsonl").read_bytes()

        assert main([
            "stage3", "--figures", str(run_dir / "stage2_verdicts.jsonl"),
            "--evidence", str(run_dir / "evidence.jsonl"), "--library", fx("library.jsonl"),
            "--out", str(tmp_path / "labels.jsonl"), "--config", str(config),
        ]) == 0
        assert (tmp_path / "labels.jsonl").read_bytes() == labels

    def test_eval_uses_config_aliases(self, fixture_config, tmp_path, alias_file):
        config = str(fixture_config("aliased_eval", aliases=str(alias_file)))
        evidence = str(tmp_path / "evidence.jsonl")
        assert main(["evidence", "--docs-manifest", fx("docs_manifest.jsonl"),
                     "--docs-dir", fx("docs"), "--out", evidence]) == 0

        def stage3_rows(name: str, *alias_flag: str) -> list[dict]:
            out = tmp_path / f"{name}.json"
            assert main([
                "eval", "--figures", fx("library.jsonl"), "--evidence", evidence,
                "--stages", "3", "--out", str(out), "--config", config, *alias_flag,
            ]) == 0
            return json.loads(out.read_text())["rows"]

        packaged = resources.files("vismine").joinpath("data", "aliases.json")
        from_config = stage3_rows("config")
        assert from_config == stage3_rows("flag", "--alias", str(alias_file))
        assert from_config != stage3_rows("packaged", "--alias", str(packaged))


class TestMalformedInput:
    GOOD = {"paper_id": "P01", "title": "Model probes", "abstract": "model analysis"}

    def ingest(self, tmp_path, lines: list[str]) -> tuple[int, Path]:
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([
            "ingest", "--corpus", str(corpus),
            "--out", str(tmp_path / "out.jsonl"), "--report", str(tmp_path / "report.json"),
        ])
        return code, corpus

    def test_invalid_json_names_file_and_line(self, tmp_path, capsys):
        code, corpus = self.ingest(tmp_path, [json.dumps(self.GOOD), '{"paper_id": "P02",'])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"{corpus}:2: invalid JSON" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["year", "citation_count"])
    def test_non_integer_field_names_paper_and_field(self, tmp_path, capsys, field):
        bad = {**self.GOOD, "paper_id": "P02", field: "n/a"}
        code, _ = self.ingest(tmp_path, [json.dumps(self.GOOD), json.dumps(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'P02'" in err and repr(field) in err
        assert "Traceback" not in err

    def test_pool_row_without_label_names_file_and_key(self, tmp_path, fixture_config, capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text('{"paper_id": "P01", "label": "positive"}\n{"paper_id": "P02"}\n',
                        encoding="utf-8")
        code = main([
            "stage1", "--corpus", fx("corpus.jsonl"), "--pool", str(pool),
            "--out", str(tmp_path / "subset.jsonl"), "--config", str(fixture_config("pool")),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{pool}: record 2 has no 'label'" in err

    @pytest.mark.parametrize("key", ["paper_id", "figure_id"])
    def test_evidence_row_without_id_names_file_and_key(self, tmp_path, fixture_config, capsys,
                                                         key):
        row = {"paper_id": "P01", "figure_id": "Figure 1", "caption": "Figure 1: c"}
        del row[key]
        evidence_file = tmp_path / "evidence.jsonl"
        evidence_file.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code = main([
            "stage2", "--papers", fx("corpus.jsonl"), "--evidence", str(evidence_file),
            "--library", fx("library.jsonl"), "--out", str(tmp_path / "verdicts.jsonl"),
            "--config", str(fixture_config("evidence")),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{evidence_file}: record 1 has no {key!r}" in err


    def test_non_object_line_names_file_and_line(self, tmp_path, capsys):
        code, corpus = self.ingest(tmp_path, [json.dumps(self.GOOD), "[1, 2]"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{corpus}:2: not a JSON object" in err

    def test_docs_manifest_row_without_path_names_file_and_key(self, tmp_path, capsys):
        manifest = tmp_path / "docs_manifest.jsonl"
        manifest.write_text('{"paper_id": "P01", "path": "P01.txt"}\n{"paper_id": "P02"}\n',
                            encoding="utf-8")
        code = main([
            "evidence", "--docs-manifest", str(manifest), "--docs-dir", fx("docs"),
            "--out", str(tmp_path / "evidence.jsonl"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{manifest}: record 2 has no 'path'" in err

    def test_verdict_row_without_figure_id_names_file_and_key(self, tmp_path, fixture_config,
                                                               capsys):
        verdicts = tmp_path / "verdicts.jsonl"
        verdicts.write_text('{"paper_id": "P07", "selected": true}\n', encoding="utf-8")
        evidence_file = tmp_path / "evidence.jsonl"
        evidence_file.write_text("", encoding="utf-8")
        code = main([
            "stage3", "--figures", str(verdicts), "--evidence", str(evidence_file),
            "--library", fx("library.jsonl"), "--out", str(tmp_path / "labels.jsonl"),
            "--config", str(fixture_config("verdicts")),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{verdicts}: record 1 has no 'figure_id'" in err


class TestTextEncoding:
    """Text no output could hold is a one-line input error, not a traceback."""

    def run_on_copy(self, tmp_path, fixture_config, capsys, corrupt) -> str:
        inputs = tmp_path / "inputs"
        shutil.copytree(FIXTURE_DIR, inputs, ignore=shutil.ignore_patterns("out"))
        corrupt(inputs)
        config = fixture_config(
            "enc", corpus=str(inputs / "corpus.jsonl"), docs_dir=str(inputs / "docs"),
        )
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    def test_unpaired_surrogate_escape_names_file_and_line(self, tmp_path, fixture_config, capsys):
        def corrupt(inputs):
            corpus = inputs / "corpus.jsonl"
            lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
            lines[2] = lines[2].replace('"title": "', '"title": "\\ud800', 1)
            corpus.write_text("".join(lines), encoding="utf-8")

        err = self.run_on_copy(tmp_path, fixture_config, capsys, corrupt)
        assert f"{tmp_path / 'inputs' / 'corpus.jsonl'}:3: unpaired surrogate" in err

    def test_jsonl_not_utf8_names_file_and_line(self, tmp_path, fixture_config, capsys):
        def corrupt(inputs):
            corpus = inputs / "corpus.jsonl"
            lines = corpus.read_bytes().splitlines(keepends=True)
            lines[1] = lines[1].replace(b'"title": "', b'"title": "\xff', 1)
            corpus.write_bytes(b"".join(lines))

        err = self.run_on_copy(tmp_path, fixture_config, capsys, corrupt)
        assert f"{tmp_path / 'inputs' / 'corpus.jsonl'}:2: not UTF-8 text" in err

    def test_undecodable_line_found_past_the_first_block(self, tmp_path):
        path = tmp_path / "big.jsonl"
        good = b'{"a": "' + b"x" * 40 + b'"}\n'
        path.write_bytes(good * 1000 + b'{"a": "\xff"}\n' + good)
        with pytest.raises(InputError, match=r"big\.jsonl:1001: not UTF-8 text"):
            list(read_jsonl(path))

    def test_paired_surrogate_escapes_are_read(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text('{"title": "\\ud83d\\ude00 C:\\\\users"}\n', encoding="utf-8")
        assert list(read_jsonl(path)) == [{"title": "\U0001f600 C:\\users"}]

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)), max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_any_escaped_string_reads_or_is_an_input_error(self, tmp_path_factory, text, rng):
        # Every non-ASCII character escaped, hex digits in either case.
        line = re.sub(
            r"\\u[0-9a-f]{4}",
            lambda m: "\\u" + m.group()[2:].upper() if rng.random() < 0.5 else m.group(),
            json.dumps({"t": text}),
        )
        path = tmp_path_factory.mktemp("escaped") / "in.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        record = json.loads(line)
        try:
            json.dumps(record, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            with pytest.raises(InputError, match=r"in\.jsonl:1: unpaired surrogate"):
                list(read_jsonl(path))
        else:
            assert list(read_jsonl(path)) == [record]

    def test_converted_text_not_utf8_names_file(self, tmp_path, fixture_config, capsys):
        def corrupt(inputs):
            doc = inputs / "docs" / "P02.txt"
            doc.write_bytes(doc.read_bytes() + b"\xff\xfe\n")

        err = self.run_on_copy(tmp_path, fixture_config, capsys, corrupt)
        assert f"{tmp_path / 'inputs' / 'docs' / 'P02.txt'}: not UTF-8 text" in err


class TestEvalFlags:
    """Bad or missing `eval` flags are a one-line exit 1 naming the flag."""

    def eval_error(self, fixture_config, tmp_path, capsys, *flags: str) -> str:
        config = str(fixture_config("eval_flags"))
        code = main(["eval", *flags, "--out", str(tmp_path / "report.json"), "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("flag", ["--stages", "--shots", "--stage2-shots", "--stage3-shots"])
    def test_non_integer_list(self, fixture_config, tmp_path, capsys, flag):
        err = self.eval_error(
            fixture_config, tmp_path, capsys, "--pool", fx("pool.jsonl"),
            "--corpus", fx("corpus.jsonl"), "--stages", "1", flag, "1,x",
        )
        assert flag in err and "'1,x'" in err

    @pytest.mark.parametrize("stages, given, missing", [
        ("1", [], "--pool"),
        ("2", ["--evidence", "evidence.jsonl"], "--figures"),
        ("3", ["--figures", "library.jsonl"], "--evidence"),
    ])
    def test_missing_input_flag(self, fixture_config, tmp_path, capsys, stages, given, missing):
        err = self.eval_error(fixture_config, tmp_path, capsys, "--stages", stages, *given)
        assert missing in err

    @pytest.mark.parametrize("stages", ["4", "1,4", "0", ""])
    def test_stage_outside_one_to_three(self, fixture_config, tmp_path, capsys, stages):
        err = self.eval_error(
            fixture_config, tmp_path, capsys, "--pool", fx("pool.jsonl"),
            "--corpus", fx("corpus.jsonl"), "--stages", stages,
        )
        assert "--stages" in err
        assert not (tmp_path / "report.json").exists()


class TestAuthenticationFailure:
    def test_missing_api_key_exits_2(self, fixture_config, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("VISMINE_TEST_UNSET_KEY", raising=False)
        backends = json.loads((FIXTURE_DIR / "config.json").read_text())["backends"]
        backends["secondary"] = {
            "kind": "http", "endpoint": "http://127.0.0.1:9/v1/chat", "model": "m",
            "api_key_env": "VISMINE_TEST_UNSET_KEY",
        }
        config = str(fixture_config("no_key", backends=backends))
        report = tmp_path / "report.json"
        assert main([
            "eval", "--pool", fx("pool.jsonl"), "--corpus", fx("corpus.jsonl"),
            "--stages", "1", "--out", str(report), "--config", config,
        ]) == 2
        assert "VISMINE_TEST_UNSET_KEY" in capsys.readouterr().err
        assert not report.exists()
        assert main(["run", "--config", config]) == 2


def fail_some_figures(monkeypatch) -> set[tuple[str, str]]:
    """Make the stub answer HTTP 400 for three figures; returns their ids.

    Stage 2 fails two figures that are not relevant, so every paper's
    selection stays what a clean run selects; stage 3 fails one label.
    """
    complete = KeywordStubBackend.complete

    def failing(self, prompt):
        target = prompt.rsplit("### Target", 1)[-1]
        labeling = f"Schema: {LABELS_SCHEMA}\n" in prompt
        if ("Venue map" in target or "Workshop schedule" in target
                or (labeling and "Activation patterns" in target)):
            raise GatewayError("HTTP 400")
        return complete(self, prompt)

    monkeypatch.setattr(KeywordStubBackend, "complete", failing)
    return {("P12", "Figure 2"), ("P12", "Figure 3"), ("P07", "Figure 3")}


def retry_rows(out_dir: Path) -> list[dict]:
    return [row for name in ("stage2_verdicts", "stage3_labels")
            if (out_dir / f"{name}.retry.jsonl").exists()
            for row in read_jsonl(out_dir / f"{name}.retry.jsonl")]


class TestRetryQueues:
    """A figure whose backend call fails is queued beside its stage's output."""

    def test_run_exits_2_and_rerun_sends_only_the_failed_requests(
            self, fixture_config, monkeypatch, capsys):
        clean_dir = run_composite(fixture_config("clean"))
        assert retry_rows(clean_dir) == []
        config = fixture_config("failing")
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        with monkeypatch.context() as patch:
            failed = fail_some_figures(patch)
            assert main(["run", "--config", str(config)]) == 2
        assert "queued for retry" in capsys.readouterr().err
        rows = retry_rows(out_dir)
        assert len(rows) == len(failed)
        assert {(row["paper_id"], row["figure_id"]) for row in rows} == failed
        assert all(row["message"] == "HTTP 400" for row in rows)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest["stages"]) == sorted(pipeline.STAGES)
        assert len(list(read_jsonl(out_dir / "stage2_verdicts.jsonl"))) == 8

        assert main(["run", "--config", str(config)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["gateway"]["network_calls"] == len(failed)
        assert retry_rows(out_dir) == []
        for name in RUN_OUTPUTS:
            assert (out_dir / name).read_bytes() == (clean_dir / name).read_bytes(), name

    def test_stage_commands_exit_2_with_queue_beside_output(self, fixture_config, tmp_path,
                                                            monkeypatch, capsys):
        config = fixture_config("stagewise_failing")
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        assert main(["run", "--config", str(config),
                     "--stages", "ingest,stage1,evidence"]) == 0
        work = tmp_path / "work"
        fail_some_figures(monkeypatch)
        common = ["--evidence", str(out_dir / "evidence.jsonl"),
                  "--library", fx("library.jsonl"), "--config", str(config)]
        assert main(["stage2", "--papers", str(out_dir / "stage1_subset.jsonl"),
                     "--out", str(work / "verdicts.jsonl"), *common]) == 2
        assert main(["stage3", "--figures", str(work / "verdicts.jsonl"),
                     "--out", str(work / "labels.jsonl"), *common]) == 2
        assert capsys.readouterr().err.count(f"queued for retry in {work}") == 2
        assert [(r["paper_id"], r["figure_id"]) for r in read_jsonl(work / "verdicts.retry.jsonl")] \
            == [("P12", "Figure 2"), ("P12", "Figure 3")]
        assert [(r["paper_id"], r["figure_id"]) for r in read_jsonl(work / "labels.retry.jsonl")] \
            == [("P07", "Figure 3")]

    def test_two_outputs_in_one_directory_keep_two_queues(self, fixture_config, tmp_path,
                                                          monkeypatch, capsys):
        config = fixture_config("two_outputs")
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        assert main(["run", "--config", str(config),
                     "--stages", "ingest,stage1,evidence"]) == 0
        work = tmp_path / "work"
        stage2 = ["stage2", "--papers", str(out_dir / "stage1_subset.jsonl"),
                  "--evidence", str(out_dir / "evidence.jsonl"),
                  "--library", fx("library.jsonl"), "--config", str(config)]
        with monkeypatch.context() as patch:
            fail_some_figures(patch)
            assert main([*stage2, "--out", str(work / "a.jsonl")]) == 2
            queued = (work / "a.retry.jsonl").read_bytes()
            assert main([*stage2, "--out", str(work / "b.jsonl")]) == 2
        assert (work / "a.retry.jsonl").read_bytes() == queued
        assert (work / "b.retry.jsonl").read_bytes() == queued
        assert main([*stage2, "--out", str(work / "c.jsonl")]) == 0
        assert not (work / "c.retry.jsonl").exists()
        assert (work / "a.retry.jsonl").read_bytes() == queued
        assert (work / "b.retry.jsonl").read_bytes() == queued


def fail_saliency_screening(monkeypatch) -> list[tuple[str, str]]:
    """Make the secondary stub answer HTTP 400 to every screening prompt about saliency.

    Returns the (backend, prompt) of each request that failed, as it fails.
    """
    complete = KeywordStubBackend.complete
    failed = []

    def failing(self, prompt):
        target = prompt.rsplit("### Target", 1)[-1]
        if (self.name == "secondary" and f"Schema: {SCREEN_SCHEMA}\n" in prompt
                and "saliency" in target.lower()):
            failed.append((self.name, prompt))
            raise GatewayError("HTTP 400")
        return complete(self, prompt)

    monkeypatch.setattr(KeywordStubBackend, "complete", failing)
    return failed


def record_requests(monkeypatch) -> list[tuple[str, str]]:
    """The (backend, prompt) of every request the stubs get from now on."""
    complete = KeywordStubBackend.complete
    sent = []

    def recording(self, prompt):
        sent.append((self.name, prompt))
        return complete(self, prompt)

    monkeypatch.setattr(KeywordStubBackend, "complete", recording)
    return sent


class TestStage1RetryQueue:
    """A paper left undecided by a failed screening call is queued beside the subset."""

    def test_run_exits_2_and_rerun_sends_only_the_missing_requests(
            self, fixture_config, monkeypatch, capsys):
        with monkeypatch.context() as patch:
            clean_sent = record_requests(patch)
            clean_dir = run_composite(fixture_config("clean"))
        assert not (clean_dir / "stage1_subset.retry.jsonl").exists()
        config = fixture_config("failing")
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        with monkeypatch.context() as patch:
            answered = record_requests(patch)
            failed = fail_saliency_screening(patch)
            assert main(["run", "--config", str(config)]) == 2
        queue = out_dir / "stage1_subset.retry.jsonl"
        assert f"{len(failed)} paper(s) in {queue}" in capsys.readouterr().err
        undecided = [d["paper_id"] for d in read_jsonl(out_dir / "stage1_decisions.jsonl")
                     if d["decision"] == "undecided"]
        rows = list(read_jsonl(queue))
        assert undecided and len(failed) == len(undecided)
        assert rows == [{"paper_id": paper_id, "message": "HTTP 400"} for paper_id in undecided]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert sorted(manifest["stages"]) == sorted(pipeline.STAGES)

        with monkeypatch.context() as patch:
            resent = record_requests(patch)
            assert main(["run", "--config", str(config)]) == 0
        screening = [(b, p) for b, p in resent if f"Schema: {SCREEN_SCHEMA}\n" in p]
        assert sorted(screening) == sorted(failed)
        assert sorted(answered + resent) == sorted(clean_sent)
        assert not queue.exists()
        for name in RUN_OUTPUTS:
            assert (out_dir / name).read_bytes() == (clean_dir / name).read_bytes(), name

    def test_stage1_command_exits_2_and_a_clean_rerun_deletes_the_queue(
            self, fixture_config, tmp_path, monkeypatch, capsys):
        args = ["stage1", "--corpus", fx("corpus.jsonl"), "--pool", fx("pool.jsonl"),
                "--out", str(tmp_path / "subset.jsonl"), "--config", str(fixture_config("s1"))]
        queue = tmp_path / "subset.retry.jsonl"
        with monkeypatch.context() as patch:
            failed = fail_saliency_screening(patch)
            assert main(args) == 2
        assert f"{len(failed)} paper(s) failed and were queued for retry in {queue}" \
            in capsys.readouterr().err
        assert len(list(read_jsonl(queue))) == len(failed)
        assert main(args) == 0
        assert not queue.exists()


class TestEntryPoint:
    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["paint"])
