"""Command-line interface: subcommands, exit codes, file handoffs."""

import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
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
from tests.conftest import FIXTURE_DIR, RaisingBackend, make_fixture_config


def fx(name: str) -> str:
    return str(FIXTURE_DIR / name)


def ran_config(fixture_config, name: str, stages: str = "ingest,evidence", **settings) -> str:
    """A fixture config on which `vismine run --stages <stages>` has run."""
    config = str(fixture_config(name, **settings))
    assert main(["run", "--config", config, "--stages", stages]) == 0
    return config


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

    @pytest.mark.parametrize("stages", ["stage9", "stage1,stage9", "ingest,,stage9,"])
    def test_unknown_stage_exits_1_naming_it(self, fixture_config, capsys, stages):
        assert main(["run", "--config", str(fixture_config("cli_unknown")),
                     "--stages", stages]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "--stages" in err and "'stage9'" in err

    def test_empty_stage_names_are_skipped(self, fixture_config):
        config = fixture_config("cli_trailing_comma")
        assert main(["run", "--config", str(config), "--stages", "ingest,"]) == 0
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        assert list(json.loads((out_dir / "manifest.json").read_text())["stages"]) == ["ingest"]

    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_max_workers_below_one_exits_1_before_any_gateway(self, fixture_config, monkeypatch,
                                                              capsys, max_workers):
        def no_gateway(config):
            raise AssertionError("a gateway was built")

        monkeypatch.setattr(pipeline, "build_gateway", no_gateway)
        config = fixture_config("cli_max_workers", max_workers=max_workers)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"max_workers must be >= 1, got {max_workers}" in err
        assert "Traceback" not in err


def _fixture_backends(primary=None, **primary_rules) -> dict:
    """The fixture's backends, `primary` merged into the primary backend and
    `primary_rules` into its stub rules."""
    backends = json.loads((FIXTURE_DIR / "config.json").read_text())["backends"]
    backends["primary"].update(primary or {})
    backends["primary"]["stub_rules"].update(primary_rules)
    return backends


class TestMalformedConfig:
    """A config value of the wrong shape is a one-line exit 1 naming its key."""

    CASES = [
        ({"stage1": ["x"]}, "stage1"),
        ({"stage1": {"k": "six"}}, "stage1.k"),
        ({"reference_year": "soon"}, "reference_year"),
        ({"keywords": "saliency"}, "keywords"),
        ({"stage1": {"backends": "primary"}}, "stage1.backends"),
        ({"corpus": 12}, "corpus"),
        ({"backends": ["primary", "secondary"]}, "backends"),
        ({"backends": {**_fixture_backends(), "primary": "stub"}}, "backends.primary"),
        ({"backends": _fixture_backends(screen_keywords="saliency")},
         "backends.primary.stub_rules.screen_keywords"),
        ({"backends": _fixture_backends(role_rules=[["pipeline"]])},
         "backends.primary.stub_rules.role_rules"),
        ({"backends": _fixture_backends(positive_confidence="high")},
         "backends.primary.stub_rules.positive_confidence"),
        # An integer key takes only a JSON integer: no fraction, bool or numeric string.
        ({"stage2": {"k": 4.9}}, "stage2.k"),
        ({"stage1": {"min_pos": 2.0}}, "stage1.min_pos"),
        ({"max_workers": True}, "max_workers"),
        ({"max_attempts": "8"}, "max_attempts"),
        # A number key takes a JSON integer or fraction: no bool or numeric string.
        ({"backoff_base": False}, "backoff_base"),
        ({"backends": _fixture_backends({"timeout": "30"})}, "backends.primary.timeout"),
        ({"backends": _fixture_backends(negative_confidence=True)},
         "backends.primary.stub_rules.negative_confidence"),
        ({"stage2": {"backend": 1}}, "stage2.backend"),
        ({"backends": _fixture_backends(listener_rules=[["accuracy", 1]])},
         "backends.primary.stub_rules.listener_rules"),
    ]

    # Stub settings once; the stub's answers are fixed now, so any value is an unknown key.
    UNKNOWN = {"backends.primary.stub_rules.positive_confidence",
               "backends.primary.stub_rules.negative_confidence"}

    @pytest.mark.parametrize("settings, key", CASES, ids=[key for _, key in CASES])
    def test_run_exits_1_naming_the_key(self, fixture_config, capsys, settings, key):
        assert main(["run", "--config", str(fixture_config("malformed", **settings))]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        if key in self.UNKNOWN:
            assert err == f"config error: {key}: unknown key\n"
        else:
            assert err.startswith(f"config error: {key}: expected ")


class TestUnknownKeys:
    def test_run_exits_1_naming_every_key_no_setting_reads(self, fixture_config, tmp_path,
                                                             capsys):
        backends = _fixture_backends({"modle": "m1"})
        config = fixture_config("typos", stage2={"maxfigs": 2}, cache="c", backends=backends)
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == ("config error: cache: unknown key; stage2.maxfigs: "
                                           "unknown key; backends.primary.modle: unknown key\n")
        assert not (tmp_path / "typos").exists()

    def test_data_rows_keep_accepting_extra_keys(self, tmp_path, fixture_config):
        inputs = tmp_path / "inputs"
        shutil.copytree(FIXTURE_DIR, inputs, ignore=shutil.ignore_patterns("out"))

        def annotate(path: Path) -> None:
            rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            for row in rows:
                row["note"] = "reviewed"
                for figure in row.get("figures", []):
                    figure["note"] = "reviewed"
            path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")

        for name in ("corpus.jsonl", "pool.jsonl", "library.jsonl", "docs_manifest.jsonl"):
            annotate(inputs / name)
        plain = ran_config(fixture_config, "plain", ",".join(pipeline.STAGES))
        noted = ran_config(fixture_config, "noted", "ingest,stage1,evidence", **{
            key: str(inputs / f"{key}.jsonl") for key in ("corpus", "pool", "library",
                                                          "docs_manifest")})
        annotate(tmp_path / "noted" / "evidence.jsonl")
        assert main(["run", "--config", noted, "--stages", "stage2,stage3,analyze"]) == 0
        for name in ("corpus.jsonl", "stage1_subset.jsonl", "stage2_verdicts.jsonl",
                     "stage3_labels.jsonl", "analysis/paths.jsonl"):
            assert (tmp_path / "noted" / name).read_bytes() \
                == (tmp_path / "plain" / name).read_bytes(), name


class TestConfigValidation:
    def test_run_reads_the_corpus_years_once(self, fixture_config, monkeypatch):
        """One run reads the corpus file once, in ingest, which checks its years."""
        config = fixture_config("validate_once")
        corpus = Path(json.loads(config.read_text())["corpus"])
        real_read, real_ingest = read_jsonl, pipeline.run_ingest
        reads, ingesting = [], []

        def read(path):
            reads.append((Path(path), bool(ingesting)))
            return real_read(path)

        def run_ingest(*args):
            ingesting.append(True)
            try:
                return real_ingest(*args)
            finally:
                ingesting.clear()

        for module in list(sys.modules.values()):  # every vismine module that binds it
            if module and module.__name__.startswith("vismine") \
                    and getattr(module, "read_jsonl", None) is real_read:
                monkeypatch.setattr(module, "read_jsonl", read)
        monkeypatch.setattr(pipeline, "run_ingest", run_ingest)
        assert main(["run", "--config", str(config)]) == 0
        assert [in_ingest for path, in_ingest in reads if path == corpus] == [True]

    def test_run_reports_every_violation_on_one_line(self, fixture_config, capsys):
        remote = {"kind": "http", "endpoint": "http://127.0.0.1:9", "api_key_env": "KEY",
                  "timeout": 0, "temperature": float("nan")}
        schemeless = {"kind": "http", "endpoint": "api.example.com/v1/chat/completions",
                      "api_key_env": "KEY"}
        config = fixture_config("violations", max_workers=0, max_attempts=0,
                                backoff_base=float("inf"),
                                backends={**_fixture_backends(), "remote": remote,
                                          "schemeless": schemeless})
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert ("max_workers must be >= 1, got 0; max_attempts must be >= 1, got 0; "
                "backoff_base must be a finite number >= 0, got inf") in err
        assert "backend 'remote': timeout must be a finite number > 0, got 0.0" in err
        assert "backend 'remote': temperature must be a finite number, got nan" in err
        assert ("backend 'schemeless': endpoint must be an http:// or https:// URL with a "
                "host and a valid port, got 'api.example.com/v1/chat/completions'") in err

    def test_run_on_a_corpus_line_that_is_not_an_object_exits_1(self, fixture_config,
                                                                 tmp_path, capsys):
        corpus = tmp_path / "list.jsonl"
        corpus.write_text("[1, 2]\n", encoding="utf-8")
        config = fixture_config("list_corpus", corpus=str(corpus))
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{corpus}:1: not a JSON object" in err and "Traceback" not in err


class TestStageCommands:
    def test_stagewise_handoff(self, fixture_config):
        config = fixture_config("cli_stages")
        out_dir = Path(json.loads(config.read_text())["out_dir"])

        def step(stage: str) -> None:
            assert main(["run", "--config", str(config), "--stages", stage]) == 0

        step("ingest")
        report = json.loads((out_dir / "ingest_report.json").read_text())
        assert report["total"] == 13
        assert report["after_keyword_filter"] == 12

        step("stage1")
        subset = [r["paper_id"] for r in read_jsonl(out_dir / "stage1_subset.jsonl")]
        assert subset == ["P01", "P02", "P03", "P07", "P10", "P12"]
        assert len(list(read_jsonl(out_dir / "stage1_decisions.jsonl"))) == 12

        step("evidence")
        assert len(list(read_jsonl(out_dir / "evidence.jsonl"))) == 30

        step("stage2")
        verdicts = list(read_jsonl(out_dir / "stage2_verdicts.jsonl"))
        assert len(verdicts) == 10
        assert sum(1 for v in verdicts if v["selected"]) == 6

        step("stage3")
        labels = list(read_jsonl(out_dir / "stage3_labels.jsonl"))
        assert len(labels) == 6

        step("analyze")
        assert (out_dir / "analysis" / "sankey.json").exists()
        assert (out_dir / "analysis" / "trends.csv").exists()
        assert (out_dir / "analysis" / "weights.csv").exists()
        paths = list(read_jsonl(out_dir / "analysis" / "paths.jsonl"))
        assert len(paths) == 15

    def test_next_step_reads_the_reviewed_file(self, fixture_config):
        config = ran_config(fixture_config, "reviewed", "ingest,stage1,evidence")
        out_dir = Path(json.loads(Path(config).read_text())["out_dir"])
        subset = out_dir / "stage1_subset.jsonl"
        kept = [line for line in subset.read_text(encoding="utf-8").splitlines(keepends=True)
                if json.loads(line)["paper_id"] != "P12"]
        subset.write_text("".join(kept), encoding="utf-8")
        assert main(["run", "--config", config, "--stages", "stage2"]) == 0
        # Unedited, stage 2 judges P07, P10 and P12; the library holds P01-P03.
        judged = {v["paper_id"] for v in read_jsonl(out_dir / "stage2_verdicts.jsonl")}
        assert judged == {"P07", "P10"}

    def test_eval_command(self, fixture_config, tmp_path, capsys):
        reports = []
        for max_workers in (1, 4):
            config = ran_config(fixture_config, f"cli_eval_{max_workers}",
                                max_workers=max_workers)
            reports.append(tmp_path / f"report_{max_workers}.json")
            assert main([
                "eval", "--stages", "1,2,3", "--out", str(reports[-1]), "--config", config,
            ]) == 0
            out = capsys.readouterr().out
            assert "leakage violations: 0" in out
        report = json.loads(reports[0].read_text())
        assert report["fold_counts"] == {"stage1": 6, "stage2": 3, "stage3": 3}
        assert report["rows"]
        # Folds on four threads write the serial report, byte for byte.
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_eval_failed_items_exit_2_after_the_report(
            self, fixture_config, tmp_path, monkeypatch, capsys):
        build = pipeline.build_gateway

        def failing_gateway(config):
            gateway = build(config)
            gateway.backends["primary"] = RaisingBackend(
                gateway.backends["primary"], GatewayError, "Volume rendering")  # P06's title
            return gateway

        config = ran_config(fixture_config, "eval_failing", "ingest")
        monkeypatch.setattr(pipeline, "build_gateway", failing_gateway)
        out = tmp_path / "report.json"
        assert main(["eval", "--stages", "1", "--out", str(out), "--config", config]) == 2
        errors = json.loads(out.read_text())["errors"]
        assert len(errors) == 2
        assert all(e.startswith(("stage1/0-shot/P06: ", "stage1/6-shot/P06: ")) for e in errors)
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error: 2 fold item(s) failed" in err and str(out) in err


RUN_OUTPUTS = (
    "corpus.jsonl", "ingest_report.json", "stage1_subset.jsonl", "stage1_decisions.jsonl",
    "evidence.jsonl", "stage2_verdicts.jsonl", "stage3_labels.jsonl",
    "analysis/paths.jsonl", "analysis/sankey.json", "analysis/edge_flows.json",
    "analysis/trends.csv", "analysis/weights.csv",
)


def run_stagewise(config: Path) -> Path:
    """Every step through its own `vismine run --stages <step>` call, in order; the `<out_dir>`."""
    for stage in pipeline.STAGES:
        assert main(["run", "--config", str(config), "--stages", stage]) == 0, stage
    return Path(json.loads(config.read_text())["out_dir"])


def run_composite(config: Path) -> Path:
    assert main(["run", "--config", str(config)]) == 0
    return Path(json.loads(config.read_text())["out_dir"])


# Settings other than the fixture config's and the step functions' defaults.
# Without "learning" the keyword filter drops P08, which no pool row names.
NON_DEFAULT_SETTINGS = {
    "keywords": ["model", "analytics", "analysis"],
    "reference_year": 2030,
    "stage1": {"k": 4, "min_pos": 1, "min_neg": 1, "backends": ["primary", "secondary"]},
    "stage2": {"k": 2, "max_figs": 1, "backend": "primary"},
    "stage3": {"k": 3, "per_paper_cap": 1, "backend": "primary"},
}


@pytest.fixture
def alias_file(tmp_path) -> Path:
    """The packaged alias table, with "scatter plot" sent to a stub rule's other value."""
    aliases = json.loads(resources.files("vismine").joinpath("data", "aliases.json").read_text())
    assert aliases["visualization_type"]["scatter plot"] == "statistical chart"
    aliases["visualization_type"]["scatter plot"] = "heatmap"  # a stub rule's value
    path = tmp_path / "aliases.json"
    path.write_text(json.dumps(aliases), encoding="utf-8")
    return path


class TestStagewiseMatchesRun:
    @pytest.mark.parametrize("non_default", [False, True], ids=["fixture", "non_default"])
    def test_every_output_byte_identical(self, fixture_config, alias_file, non_default):
        settings = {**NON_DEFAULT_SETTINGS, "aliases": str(alias_file)} if non_default else {}
        run_dir = run_composite(fixture_config("composite", **settings))
        stagewise_dir = run_stagewise(fixture_config("stagewise", **settings))
        for name in RUN_OUTPUTS:
            assert (stagewise_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


class TestConfigVocabulary:
    """stage3 and eval read the config's vocabulary and alias files."""

    def test_stage3_matches_run(self, fixture_config, alias_file):
        config = fixture_config("aliased", aliases=str(alias_file))
        run_dir = run_composite(config)
        default_dir = run_composite(fixture_config("default"))
        labels = (run_dir / "stage3_labels.jsonl").read_bytes()
        assert labels != (default_dir / "stage3_labels.jsonl").read_bytes()

        (run_dir / "stage3_labels.jsonl").unlink()
        assert main(["run", "--config", str(config), "--stages", "stage3"]) == 0
        assert (run_dir / "stage3_labels.jsonl").read_bytes() == labels

    def test_eval_uses_config_aliases(self, fixture_config, tmp_path, alias_file):
        def stage3_rows(name: str, **settings) -> list[dict]:
            out = tmp_path / f"{name}.json"
            config = ran_config(fixture_config, name, "evidence", **settings)
            assert main(["eval", "--stages", "3", "--out", str(out), "--config", config]) == 0
            return json.loads(out.read_text())["rows"]

        packaged = resources.files("vismine").joinpath("data", "aliases.json")
        from_config = stage3_rows("aliased_eval", aliases=str(alias_file))
        assert stage3_rows("packaged", aliases=str(packaged)) == stage3_rows("default")
        assert from_config != stage3_rows("default")


class TestEvalStageSettings:
    """`vismine eval` scores folds with the config's stage settings."""

    def test_stage1_k_cap_and_stage3_backend(self, fixture_config, tmp_path):
        backends = json.loads((FIXTURE_DIR / "config.json").read_text())["backends"]
        backends["tertiary"] = backends["primary"]
        config = ran_config(
            fixture_config, "eval_settings", backends=backends, stage1={"k": 4},
            stage3={"k": 10, "per_paper_cap": 1, "backend": "tertiary"},
        )
        out = tmp_path / "report.json"
        assert main(["eval", "--stages", "1,3", "--out", str(out), "--config", config]) == 0
        report = json.loads(out.read_text())
        assert report["errors"] == []
        stage3_models = {row["model"] for row in report["rows"] if row["stage"] == "stage3"}
        assert stage3_models == {"tertiary"}
        majority = [f for f in report["folds"] if f["method"] == "majority_vote"]
        assert majority and max(len(f["neighbors"]) for f in majority) == 4
        for fold in report["folds"]:
            if fold["stage"] == "stage3":
                papers = [doc_id.split("::", 1)[0] for doc_id in fold["exemplars"]]
                assert len(papers) == len(set(papers)), fold


class TestEvalReadsTheRunConfig:
    """`vismine eval` reads the inputs `vismine run` reads and scores its shot counts."""

    def test_stage1_scores_zero_shot_and_the_configured_k(self, fixture_config, tmp_path):
        config = ran_config(fixture_config, "eval_k4", "ingest", stage1={"k": 4})
        out = tmp_path / "report.json"
        assert main(["eval", "--stages", "1", "--out", str(out), "--config", config]) == 0
        methods = {row["method"] for row in json.loads(out.read_text())["rows"]}
        assert methods == {"0-shot", "4-shot", "majority_vote"}

    @pytest.mark.parametrize("ran, stages, upstream", [
        ("ingest", "1,2", "evidence"), ("ingest", "3", "evidence"), ("evidence", "1", "ingest"),
    ])
    def test_missing_run_output_names_the_stage_to_run(self, fixture_config, tmp_path, capsys,
                                                       ran, stages, upstream):
        config = ran_config(fixture_config, "eval_upstream", ran)
        capsys.readouterr()
        out = tmp_path / "report.json"
        assert main(["eval", "--stages", stages, "--out", str(out), "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"run {upstream!r} first" in err
        assert not out.exists()


class TestMissingInputKey:
    """A config without an input key that a requested stage reads fails validation
    before any stage runs."""

    CASES = [
        (["run"], "corpus"), (["run"], "pool"), (["run"], "docs_manifest"),
        (["run"], "docs_dir"), (["run"], "library"), (["run", "--stages", "stage3"], "library"),
        (["eval", "--stages", "1"], "pool"), (["eval", "--stages", "2"], "library"),
        (["eval", "--stages", "3"], "library"),
    ]

    @pytest.mark.parametrize("command, key", CASES,
                             ids=[f"{'-'.join(command)}:{key}" for command, key in CASES])
    def test_exits_1_on_one_line_writing_nothing(self, fixture_config, tmp_path, capsys,
                                                 command, key):
        config = fixture_config("no_key", **{key: None})
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        report = tmp_path / "report.json"
        if command[0] == "eval":
            command = [*command, "--out", str(report)]
        assert main([*command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{key}: missing" in err
        assert not out_dir.exists() and not report.exists()

    def test_a_missing_key_joins_the_one_validation_line(self, fixture_config, capsys):
        config = fixture_config("no_keys", pool=None, library=None, max_workers=0)
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "pool: missing" in err and "library: missing" in err
        assert "max_workers must be >= 1" in err


class TestMalformedVocabulary:
    """A vocabulary without a field, or an alias targeting no category, is a one-line
    exit 1 naming the file."""

    @pytest.mark.parametrize("key, content, message", [
        ("vocabulary", {}, "vocabulary missing field 'model_listener'"),
        ("aliases", {"visualization_type": {"spiral": "vortex chart"}}, "alias 'spiral'"),
    ], ids=["vocabulary", "aliases"])
    @pytest.mark.parametrize("command", [["run"], ["eval", "--stages", "3"]], ids=["run", "eval"])
    def test_exits_1_naming_the_file(self, fixture_config, tmp_path, capsys, key, content,
                                     message, command):
        bad = tmp_path / f"{key}.json"
        bad.write_text(json.dumps(content), encoding="utf-8")
        if command[0] == "eval":
            config = ran_config(fixture_config, "bad_vocab", "evidence", **{key: str(bad)})
            command = [*command, "--out", str(tmp_path / "report.json")]
        else:
            config = str(fixture_config("bad_vocab", **{key: str(bad)}))
        capsys.readouterr()
        assert main([*command, "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{bad}: {message}" in err


class TestMalformedInput:
    GOOD = {"paper_id": "P01", "title": "Model probes", "abstract": "model analysis"}

    def ingest(self, tmp_path, lines: list[str]) -> tuple[int, Path]:
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = make_fixture_config(tmp_path, corpus=str(corpus))
        return main(["run", "--config", str(config), "--stages", "ingest"]), corpus

    def stage1(self, fixture_config, capsys, pool: Path) -> int:
        """`run --stages stage1` after an ingest, with `pool` as the config's pool."""
        config = ran_config(fixture_config, "pool", "ingest", pool=str(pool))
        capsys.readouterr()
        return main(["run", "--config", config, "--stages", "stage1"])

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
        assert f"record 'P02': {field}: expected an integer, got 'n/a'" in err
        assert "Traceback" not in err

    def test_pool_row_without_label_names_file_and_key(self, tmp_path, fixture_config, capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text('{"paper_id": "P01", "label": "positive"}\n{"paper_id": "P02"}\n',
                        encoding="utf-8")
        assert self.stage1(fixture_config, capsys, pool) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{pool}: record 2 has no 'label'" in err

    @pytest.mark.parametrize("key", ["paper_id", "figure_id"])
    def test_evidence_row_without_id_names_file_and_key(self, tmp_path, fixture_config, capsys,
                                                         key):
        row = {"paper_id": "P01", "figure_id": "Figure 1", "caption": "Figure 1: c"}
        del row[key]
        config = ran_config(fixture_config, "evidence", "ingest,stage1")
        evidence_file = tmp_path / "evidence" / "evidence.jsonl"
        evidence_file.write_text(json.dumps(row) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", config, "--stages", "stage2"]) == 1
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

    # A second manifest row's `path`, and what the error says about it.
    NO_DOCUMENT = [
        ("P99.txt", "no such document: {docs}/P99.txt"),
        ("", "is a directory: {docs}"),
        ("P01.txt/x", "no such document: {docs}/P01.txt/x"),
    ]

    def missing_document_manifest(self, tmp_path, path: str, problem: str) -> tuple[Path, str]:
        """The fixture's docs manifest with a second row whose `path` names no document."""
        rows = (FIXTURE_DIR / "docs_manifest.jsonl").read_text(encoding="utf-8").splitlines()
        manifest = tmp_path / "docs_manifest.jsonl"
        row = json.dumps({"paper_id": "P99", "path": path})
        manifest.write_text("\n".join([rows[0], row, *rows[1:]]) + "\n", encoding="utf-8")
        return manifest, (f"input error: {manifest}: record 2 ('P99'): "
                          f"{problem.format(docs=FIXTURE_DIR / 'docs')}\n")

    @pytest.mark.parametrize("path, problem", NO_DOCUMENT, ids=["missing", "empty", "under_file"])
    def test_missing_document_exits_1_naming_manifest_record_and_path(self, tmp_path, capsys,
                                                                       path, problem):
        manifest, message = self.missing_document_manifest(tmp_path, path, problem)
        out = tmp_path / "evidence.jsonl"
        code = main(["evidence", "--docs-manifest", str(manifest), "--docs-dir", fx("docs"),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == message
        assert list(tmp_path.iterdir()) == [manifest]

    @pytest.mark.parametrize("path, problem", NO_DOCUMENT, ids=["missing", "empty", "under_file"])
    def test_run_with_a_missing_document_exits_1_writing_nothing(self, tmp_path, fixture_config,
                                                                  capsys, path, problem):
        manifest, message = self.missing_document_manifest(tmp_path, path, problem)
        config = fixture_config("missing_doc", docs_manifest=str(manifest))
        assert main(["run", "--config", str(config), "--stages", "evidence"]) == 1
        assert capsys.readouterr().err == message
        assert list((tmp_path / "missing_doc").rglob("*")) == []

    def test_verdict_row_without_figure_id_names_file_and_key(self, tmp_path, fixture_config,
                                                               capsys):
        config = fixture_config("verdicts")
        out_dir = tmp_path / "verdicts"
        out_dir.mkdir()
        verdicts = out_dir / "stage2_verdicts.jsonl"
        verdicts.write_text('{"paper_id": "P07", "selected": true}\n', encoding="utf-8")
        (out_dir / "evidence.jsonl").write_text("", encoding="utf-8")
        assert main(["run", "--config", str(config), "--stages", "stage3"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{verdicts}: record 1 has no 'figure_id'" in err

    def test_record_without_title_exits_1(self, tmp_path, capsys):
        code, corpus = self.ingest(tmp_path, ['{"paper_id": "P1", "title": ""}'])
        assert code == 1
        assert capsys.readouterr().err == (
            f"input error: {corpus}: record 1: record 'P1' missing title\n")

    def test_docs_manifest_path_that_is_not_a_string_exits_1(self, tmp_path, capsys):
        manifest = tmp_path / "docs_manifest.jsonl"
        manifest.write_text('{"paper_id": "P01", "path": null}\n', encoding="utf-8")
        code = main([
            "evidence", "--docs-manifest", str(manifest), "--docs-dir", fx("docs"),
            "--out", str(tmp_path / "evidence.jsonl"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"input error: {manifest}: record 1: path: expected a string, got None\n"

    def test_pool_ids_that_are_not_strings_exit_1(self, tmp_path, fixture_config, capsys):
        pool = tmp_path / "pool.jsonl"
        pool.write_text('{"paper_id": "P01", "label": "positive"}\n'
                        '{"paper_id": 1, "label": true}\n', encoding="utf-8")
        assert self.stage1(fixture_config, capsys, pool) == 1
        err = capsys.readouterr().err
        assert err == f"input error: {pool}: record 2: paper_id: expected a string, got 1\n"

    @pytest.mark.parametrize("number, row, message", [
        (2, {"paper_id": "P02", "label": "maybe"}, "unknown label 'maybe' for 'P02'"),
        (7, {"paper_id": "P77", "label": "negative"},
         "label assignment for unknown paper_id 'P77'"),
        (7, {"paper_id": "P01", "label": "positive"}, "duplicate label assignment for 'P01'"),
        (7, {"paper_id": "P01", "label": "negative"}, "conflicting labels for 'P01'"),
    ], ids=["bad_label", "unknown_id", "duplicate", "conflicting"])
    def test_bad_pool_assignment_names_file_and_record(self, tmp_path, fixture_config, capsys,
                                                       number, row, message):
        lines = (FIXTURE_DIR / "pool.jsonl").read_text(encoding="utf-8").splitlines()
        lines[number - 1:number] = [json.dumps(row)]  # fixture12's pool has 6 rows
        pool = tmp_path / "pool.jsonl"
        pool.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert self.stage1(fixture_config, capsys, pool) == 1
        assert capsys.readouterr().err == f"input error: {pool}: record {number}: {message}\n"


def _set_in_first_row(path: Path, where: tuple, value, paper_id: str = "") -> None:
    """Set `value` at the key path `where` of the file's first row (of `paper_id`, if given)."""
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    target = next(row for row in rows if row["paper_id"] == (paper_id or row["paper_id"]))
    *parents, last = where
    for part in parents:
        target = target[part]
    target[last] = value
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


class TestWrongTypedRows:
    """A row value of the wrong JSON type is a one-line exit 1 naming its key.
    Each was converted before (a string flag read as true, a string split into
    a list), and the command exited 0."""

    CASES = [
        ("library.jsonl", ("figures", 0, "relevant"), "false",
         "record 'P01': figures[0].relevant: expected true or false, got 'false'"),
        ("library.jsonl", ("figures", 0, "labels", "model_listener"), "output results",
         "record 'P01': figures[0].labels.model_listener: expected a list, got 'output results'"),
        ("corpus.jsonl", ("author_keywords",), "deep learning",
         "record 'P01': author_keywords: expected a list, got 'deep learning'"),
    ]

    @pytest.mark.parametrize("name, where, value, message", CASES,
                             ids=[where[-1] for _, where, _, _ in CASES])
    def test_run_exits_1_naming_the_key(self, tmp_path, fixture_config, capsys, name, where,
                                        value, message):
        inputs = tmp_path / "inputs"
        shutil.copytree(FIXTURE_DIR, inputs, ignore=shutil.ignore_patterns("out"))
        _set_in_first_row(inputs / name, where, value)
        config = fixture_config("rows", corpus=str(inputs / "corpus.jsonl"),
                                library=str(inputs / "library.jsonl"))
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"input error: {inputs / name}: record 1: {message}\n"

    def test_stage3_string_evidence_context_exits_1(self, fixture_config, capsys):
        config = fixture_config("context")
        out = run_composite(config)
        _set_in_first_row(out / "evidence.jsonl", ("context",), "a paragraph", paper_id="P01")
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--stages", "stage3"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "record 'P01': context: expected a list, got 'a paragraph'" in err


class TestMalformedRowNamesItsFile:
    """A malformed field in a row of any file a step reads is a one-line exit 1
    naming the file, the record number and the record's paper, even where the
    paper's rows sit in more than one file."""

    # (file, paper whose first row is set, key path, value, command after a full run)
    CASES = [
        ("inputs/corpus.jsonl", "P04", ("title",), 5, ["run", "--stages", "ingest"]),
        ("inputs/pool.jsonl", "P99", ("title",), 5, ["run", "--stages", "stage1"]),
        ("inputs/library.jsonl", "P02", ("figures", 0, "relevant"), "yes",
         ["run", "--stages", "stage2"]),
        ("out/evidence.jsonl", "P02", ("context",), "a paragraph", ["run", "--stages", "stage2"]),
        ("out/evidence.jsonl", "P02", ("context",), "a paragraph", ["eval", "--stages", "3"]),
        ("out/stage2_verdicts.jsonl", "P10", ("relevant",), "yes", ["run", "--stages", "stage3"]),
        ("out/stage3_labels.jsonl", "P10", ("visualization_type",), 5,
         ["run", "--stages", "analyze"]),
    ]

    IDS = [f"{name}-{command[0]}" for name, *_, command in CASES]

    def run_error(self, tmp_path, fixture_config, capsys, name, command, edit) -> str:
        """The one stderr line of `command` after a full run and `edit` of file `name`."""
        inputs = tmp_path / "inputs"
        shutil.copytree(FIXTURE_DIR, inputs, ignore=shutil.ignore_patterns("out"))
        config = fixture_config("out", **{key: str(inputs / f"{key}.jsonl")
                                          for key in ("corpus", "pool", "library")})
        run_composite(config)
        edit(tmp_path / name)
        argv = [*command, "--config", str(config)]
        if command[0] == "eval":
            argv += ["--out", str(tmp_path / "report.json")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize("name, paper_id, where, value, command", CASES, ids=IDS)
    def test_exits_1_naming_file_and_record(self, tmp_path, fixture_config, capsys, name,
                                            paper_id, where, value, command):
        def edit(path: Path) -> None:
            if paper_id == "P99":  # a titled pool row adds a paper the corpus lacks
                with path.open("a", encoding="utf-8") as stream:
                    stream.write(json.dumps({"paper_id": "P99", "label": "negative"}) + "\n")
            _set_in_first_row(path, where, value, paper_id)

        err = self.run_error(tmp_path, fixture_config, capsys, name, command, edit)
        path = tmp_path / name
        ids = [json.loads(line)["paper_id"] for line in path.read_text("utf-8").splitlines()]
        key = where[0] + "".join(f"[{part}]" if isinstance(part, int) else f".{part}"
                                 for part in where[1:])
        assert err.startswith(f"input error: {path}: record {ids.index(paper_id) + 1}: "
                              f"record {paper_id!r}: {key}: expected ")

    @pytest.mark.parametrize("name, command", [(name, command) for name, *_, command in CASES],
                             ids=IDS)
    def test_invalid_json_names_its_line_alone(self, tmp_path, fixture_config, capsys, name,
                                               command):
        def edit(path: Path) -> None:
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join([lines[0], '{"paper_id": ', *lines[1:]]) + "\n",
                            encoding="utf-8")

        err = self.run_error(tmp_path, fixture_config, capsys, name, command, edit)
        assert err.startswith(f"input error: {tmp_path / name}:2: invalid JSON: ")


class TestFigureSeparatorInPaperId:
    """A paper id holding `::`, which joins a paper id and a figure id, is a
    one-line exit 1 naming the record, in every kind of row that reads one."""

    BAD_ID = "P01::Figure 1"

    @pytest.mark.parametrize("name", ["corpus", "pool", "library"])
    def test_run_exits_1_naming_the_record(self, tmp_path, fixture_config, capsys, name):
        inputs = tmp_path / "inputs"
        shutil.copytree(FIXTURE_DIR, inputs, ignore=shutil.ignore_patterns("out"))
        path = inputs / f"{name}.jsonl"
        if name == "pool":  # a titled pool row adds a paper the corpus lacks
            row = {"paper_id": self.BAD_ID, "title": "Model probes", "label": "negative"}
            with path.open("a", encoding="utf-8") as stream:
                stream.write(json.dumps(row) + "\n")
        else:
            _set_in_first_row(path, ("paper_id",), self.BAD_ID)
        number = len(path.read_text(encoding="utf-8").splitlines()) if name == "pool" else 1
        config = fixture_config("ids", **{name: str(path)})
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"input error: {path}: record {number}: record {self.BAD_ID!r}: paper_id must not "
            "contain '::', which joins a paper id and a figure id\n")


class TestVocabularyFile:
    """`vismine run` reads the vocabulary files before its first stage, and a
    file that is not JSON or not a vocabulary is a one-line exit 1 naming it."""

    @pytest.mark.parametrize("text, message", [
        ("{not json", "cannot read JSON: Expecting property name"),
        ('["a"]', "expected an object, got ['a']"),
        ('{"model_listener": "input data"}', "model_listener: expected a list"),
    ])
    def test_run_exits_1_before_any_stage(self, tmp_path, fixture_config, capsys, text, message):
        vocabulary = tmp_path / "vocabulary.json"
        vocabulary.write_text(text, encoding="utf-8")
        config = fixture_config("vocab", vocabulary=str(vocabulary))
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"input error: {vocabulary}: {message}")
        assert not [path for path in (tmp_path / "vocab").rglob("*") if path.is_file()]


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

    def test_empty_converted_text_names_file(self, tmp_path, fixture_config, capsys):
        def corrupt(inputs):
            (inputs / "docs" / "P01.txt").write_text(" \n\n \n", encoding="utf-8")

        err = self.run_on_copy(tmp_path, fixture_config, capsys, corrupt)
        assert f"{tmp_path / 'inputs' / 'docs' / 'P01.txt'}: empty converted text" in err


class TestEvalFlags:
    """A bad `eval --stages` list is a one-line exit 1 naming the flag."""

    def eval_error(self, fixture_config, tmp_path, capsys, *flags: str) -> str:
        config = str(fixture_config("eval_flags"))
        code = main(["eval", *flags, "--out", str(tmp_path / "report.json"), "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_non_integer_list(self, fixture_config, tmp_path, capsys):
        err = self.eval_error(fixture_config, tmp_path, capsys, "--stages", "1,x")
        assert "--stages" in err and "'1,x'" in err

    @pytest.mark.parametrize("stages", ["4", "1,4", "0", ""])
    def test_stage_outside_one_to_three(self, fixture_config, tmp_path, capsys, stages):
        err = self.eval_error(fixture_config, tmp_path, capsys, "--stages", stages)
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
        config = ran_config(fixture_config, "no_key", "ingest", backends=backends)
        report = tmp_path / "report.json"
        assert main(["eval", "--stages", "1", "--out", str(report), "--config", config]) == 2
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

    def test_step_runs_exit_2_with_queue_beside_output(self, fixture_config, monkeypatch,
                                                        capsys):
        config = fixture_config("stagewise_failing")
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        assert main(["run", "--config", str(config),
                     "--stages", "ingest,stage1,evidence"]) == 0
        capsys.readouterr()
        verdicts_queue = out_dir / "stage2_verdicts.retry.jsonl"
        labels_queue = out_dir / "stage3_labels.retry.jsonl"
        with monkeypatch.context() as patch:
            fail_some_figures(patch)
            assert main(["run", "--config", str(config), "--stages", "stage2"]) == 2
            assert main(["run", "--config", str(config), "--stages", "stage3"]) == 2
        err = capsys.readouterr().err
        assert f"queued for retry: 2 figure(s) in {verdicts_queue}\n" in err
        assert f"queued for retry: 1 figure(s) in {labels_queue}\n" in err
        assert [(r["paper_id"], r["figure_id"]) for r in read_jsonl(verdicts_queue)] \
            == [("P12", "Figure 2"), ("P12", "Figure 3")]
        assert [(r["paper_id"], r["figure_id"]) for r in read_jsonl(labels_queue)] \
            == [("P07", "Figure 3")]

        assert main(["run", "--config", str(config), "--stages", "stage2"]) == 0
        assert main(["run", "--config", str(config), "--stages", "stage3"]) == 0
        assert not verdicts_queue.exists() and not labels_queue.exists()

    def test_two_outputs_in_one_directory_keep_two_queues(self, fixture_config, monkeypatch):
        config = fixture_config("two_outputs")
        out_dir = Path(json.loads(config.read_text())["out_dir"])
        assert main(["run", "--config", str(config),
                     "--stages", "ingest,stage1,evidence"]) == 0
        verdicts_queue = out_dir / "stage2_verdicts.retry.jsonl"
        labels_queue = out_dir / "stage3_labels.retry.jsonl"
        with monkeypatch.context() as patch:
            fail_some_figures(patch)
            assert main(["run", "--config", str(config), "--stages", "stage2"]) == 2
            assert main(["run", "--config", str(config), "--stages", "stage3"]) == 2
        queued = verdicts_queue.read_bytes()
        assert labels_queue.exists()
        assert main(["run", "--config", str(config), "--stages", "stage3"]) == 0
        assert not labels_queue.exists()
        assert verdicts_queue.read_bytes() == queued
        assert main(["run", "--config", str(config), "--stages", "stage2"]) == 0
        assert not verdicts_queue.exists()


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

    def test_stage1_step_exits_2_and_a_clean_rerun_deletes_the_queue(
            self, fixture_config, monkeypatch, capsys):
        config = fixture_config("s1")
        args = ["run", "--config", str(config), "--stages", "ingest,stage1"]
        queue = Path(json.loads(config.read_text())["out_dir"]) / "stage1_subset.retry.jsonl"
        with monkeypatch.context() as patch:
            failed = fail_saliency_screening(patch)
            assert main(args) == 2
        assert f"queued for retry: {len(failed)} paper(s) in {queue}\n" \
            in capsys.readouterr().err
        assert len(list(read_jsonl(queue))) == len(failed)
        assert main(args) == 0
        assert not queue.exists()


class TestMissingEvidence:
    """A stage-2 paper or a stage-3 figure that `evidence.jsonl` has no row for,
    after a reviewer's edit, does not vanish silently."""

    def test_stage3_queues_a_selected_figure_without_evidence(self, fixture_config):
        config = ran_config(fixture_config, "no_row", ",".join(pipeline.STAGES))
        out_dir = Path(json.loads(Path(config).read_text())["out_dir"])
        labels = (out_dir / "stage3_labels.jsonl").read_text(encoding="utf-8")
        evidence = out_dir / "evidence.jsonl"
        rows = evidence.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in rows
                if (json.loads(line)["paper_id"], json.loads(line)["figure_id"])
                != ("P07", "Figure 1")]
        assert len(kept) == len(rows) - 1
        evidence.write_text("".join(kept), encoding="utf-8")
        assert main(["run", "--config", config, "--stages", "stage3"]) == 2
        assert list(read_jsonl(out_dir / "stage3_labels.retry.jsonl")) == [
            {"paper_id": "P07", "figure_id": "Figure 1",
             "message": "no evidence row in evidence.jsonl"}]
        others = [line for line in labels.splitlines(keepends=True)
                  if (json.loads(line)["paper_id"], json.loads(line)["base_figure_id"])
                  != ("P07", "Figure 1")]
        assert len(others) == 5
        assert (out_dir / "stage3_labels.jsonl").read_text(encoding="utf-8") == "".join(others)

    def test_stage2_warns_of_a_paper_without_evidence(self, fixture_config, tmp_path, caplog):
        manifest = tmp_path / "docs_manifest.jsonl"
        manifest.write_text("".join(
            line for line in (FIXTURE_DIR / "docs_manifest.jsonl").read_text(
                encoding="utf-8").splitlines(keepends=True)
            if json.loads(line)["paper_id"] != "P07"), encoding="utf-8")
        config = fixture_config("no_document", docs_manifest=str(manifest))
        out_dir = run_composite(config)
        assert "P07" in {r["paper_id"] for r in read_jsonl(out_dir / "stage1_subset.jsonl")}
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING" and "P07" in r.getMessage()]
        assert warnings == [f"stage 2: stage-1 paper P07 has no row in "
                            f"{out_dir / 'evidence.jsonl'}; it gets no verdict"]
        assert not (out_dir / "stage2_verdicts.retry.jsonl").exists()


ANALYSIS = ("paths.jsonl", "sankey.json", "edge_flows.json", "trends.csv", "weights.csv")


def edit_labels(out_dir: Path, edit) -> None:
    """Rewrite each row of `<out_dir>/stage3_labels.jsonl` as `edit` changes it in place."""
    path = out_dir / "stage3_labels.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    for row in rows:
        edit(row)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


class TestAnalyzeStep:
    """Analyze names each figure it leaves out, reads no stored flags, and stops
    at a paper newer than `reference_year` before it writes anything."""

    def test_a_figure_without_listeners_is_named_and_left_out(self, fixture_config, caplog):
        config = ran_config(fixture_config, "emptied", ",".join(pipeline.STAGES))
        out_dir = Path(json.loads(Path(config).read_text())["out_dir"])

        def empty_one(row):
            if (row["paper_id"], row["base_figure_id"]) == ("P07", "Figure 3"):
                row["model_listener"] = []

        edit_labels(out_dir, empty_one)
        caplog.clear()
        assert main(["run", "--config", config, "--stages", "analyze"]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "analyze: P07::Figure 3 left out of every output: model_listener:empty"]
        sources = [r["source"] for r in read_jsonl(out_dir / "analysis" / "paths.jsonl")]
        assert len(sources) == 14 and "P07::Figure 3" not in sources

    def test_a_stored_flag_leaves_nothing_out(self, fixture_config):
        plain = Path(json.loads(Path(ran_config(
            fixture_config, "plain", ",".join(pipeline.STAGES))).read_text())["out_dir"])
        config = ran_config(fixture_config, "stale", ",".join(pipeline.STAGES))
        out_dir = Path(json.loads(Path(config).read_text())["out_dir"])
        edit_labels(out_dir, lambda row: row.update(flags=["model_listener:empty"]))
        assert main(["run", "--config", config, "--stages", "analyze"]) == 0
        for name in ANALYSIS:
            assert (out_dir / "analysis" / name).read_bytes() \
                == (plain / "analysis" / name).read_bytes(), name

    @pytest.mark.parametrize("reference_year, source, paper", [
        (2020, "corpus", "record 7: paper 'P07' is from 2021"),
        (2019, "library", "record 3: paper 'P03' is from 2020"),
    ])
    def test_a_paper_after_reference_year_exits_1_before_writing(
            self, fixture_config, capsys, reference_year, source, paper):
        config = ran_config(fixture_config, "late", ",".join(pipeline.STAGES))
        out_dir = Path(json.loads(Path(config).read_text())["out_dir"])
        path = out_dir / "corpus.jsonl"
        if source == "library":  # analyze then reads the library's papers alone
            path.unlink()
            path = FIXTURE_DIR / "library.jsonl"
        before = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        capsys.readouterr()
        config = str(fixture_config("late", reference_year=reference_year))
        assert main(["run", "--config", config, "--stages", "analyze"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {path}: {paper}, after reference_year {reference_year}\n")
        assert {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()} == before


# `vismine run --config <argv[1]>`, ended by `os._exit(70)`, as a kill would end
# it, when its stub backends are called for call `argv[2]` + 1.
KILLED_RUN = """
import os, sys, threading
from vismine import gateway
from vismine.cli import main

complete, calls, lock = gateway.KeywordStubBackend.complete, [0], threading.Lock()

def complete_or_exit(self, prompt):
    with lock:
        if calls[0] == int(sys.argv[2]):
            os._exit(70)
        calls[0] += 1
    return complete(self, prompt)

gateway.KeywordStubBackend.complete = complete_or_exit
sys.exit(main(["run", "--config", sys.argv[1]]))
"""


def _output_bytes(out_dir: Path) -> dict[str, bytes]:
    """Every file under `out_dir` but `manifest.json`, by relative path."""
    return {str(p.relative_to(out_dir)): p.read_bytes() for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class TestKilledRun:
    """A run killed after N of fixture12's 28 backend calls resumes: its cache log
    holds the answers that came back, a rerun on the same cache sends the rest,
    and every output, both cache logs included, is a clean run's.

    At `max_workers` 1 the log holds N answers.  With more workers, up to
    `max_workers` - 1 calls are in flight at the kill; their answers are lost
    and sent again, and the threads append answers in the order they come."""

    @pytest.mark.parametrize("max_workers", [1, 4])
    @pytest.mark.parametrize("calls", [0, 5, 17, 23, 27])
    def test_rerun_sends_the_rest_and_writes_a_clean_runs_bytes(self, tmp_path, fixture_config,
                                                                 calls, max_workers):
        clean = run_composite(fixture_config("clean", max_workers=max_workers))
        config = fixture_config("killed", max_workers=max_workers)
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", KILLED_RUN, str(config), str(calls)],
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 70, proc.stderr
        killed = tmp_path / "killed"
        logged = len((killed / "cache" / "responses.jsonl").read_text(
            encoding="utf-8").splitlines())
        assert calls - (max_workers - 1) <= logged <= calls
        assert run_composite(config) == killed
        manifest = json.loads((killed / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["gateway"]["network_calls"] == 28 - logged
        outputs = [_output_bytes(killed), _output_bytes(clean)]
        if max_workers > 1:
            for files in outputs:
                files["cache/responses.jsonl"] = sorted(files["cache/responses.jsonl"].splitlines())
        assert outputs[0] == outputs[1]


def readme_cli_commands() -> list[str]:
    """The commands of README's `## CLI` bash block, continuation lines joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```bash\n(.*?)^```", readme, re.M | re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]


class TestReadme:
    @pytest.mark.parametrize("command", readme_cli_commands(), ids=lambda c: c.split()[1])
    def test_cli_example_parses(self, command):
        argv = shlex.split(command.replace("[", "").replace("]", ""))
        assert argv[0] == "vismine"
        cli.build_parser().parse_args(argv[1:])  # argparse exits 2 on an unknown flag


# The flags each subcommand may take: `evidence`'s input and output paths,
# `--config`, and the stage lists of `eval` and `run`.  Every setting is a
# config key, so a flag outside this list fails the guard.
ALLOWED_FLAGS = {
    "": {"-h", "--help", "-v", "--verbose"},
    "evidence": {"--docs-manifest", "--docs-dir", "--out"},
    "eval": {"--config", "--stages", "--out"},
    "run": {"--config", "--stages"},
}


def parser_flags() -> dict[str, set[str]]:
    """Every option string of the top-level parser ("") and of each subcommand."""
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {"": {o for a in parser._actions for o in a.option_strings}}
    for name, subparser in sub.choices.items():
        flags[name] = {o for a in subparser._actions for o in a.option_strings} - {"-h", "--help"}
    return flags


class TestFlagGuard:
    def test_every_flag_is_a_path_list_or_config(self):
        flags = parser_flags()
        assert sorted(flags) == sorted(ALLOWED_FLAGS)
        outside = {name: sorted(found - ALLOWED_FLAGS[name])
                   for name, found in flags.items() if found - ALLOWED_FLAGS[name]}
        assert not outside, f"flags outside the allowed list: {outside}"


class TestEntryPoint:
    def test_help_exits_cleanly(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["paint"])
