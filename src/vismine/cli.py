"""Command-line entry point.

Subcommands mirror the pipeline stages (`ingest`, `stage1`, `evidence`,
`stage2`, `stage3`, `eval`, `analyze`) plus the composite `run`. Exit
codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation as eval_mod
from . import pipeline as pipeline_mod
from .config import RunConfig, build_gateway, load_config, validate_config
from .errors import ConfigError, InputError, VismineError
from .pipeline import STAGES, config_vocabulary, run_pipeline

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _config_from_args(args) -> RunConfig:
    """The validated `--config` file without its input paths, which come from flags."""
    config = replace(load_config(args.config), corpus_path=None, pool_path=None,
                     docs_manifest_path=None, docs_dir=None, library_path=None)
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))
    return config


def cmd_ingest(args) -> int:
    config = _config_from_args(args)
    filtered, report = pipeline_mod.run_ingest(args.corpus, args.out, args.report, config.keywords)
    print(f"ingested {report.ingested}/{report.total}, kept {len(filtered)} after keyword filter")
    return EXIT_OK


def cmd_stage1(args) -> int:
    config = _config_from_args(args)
    result = pipeline_mod.run_stage1_step(
        args.corpus, args.pool, args.out, args.log or None, build_gateway(config), config)
    print(f"stage1: {len(result.subset)} positives, {len(result.retry)} undecided")
    return _retry_exit(result.retry, args.out, "paper")


def cmd_evidence(args) -> int:
    count = pipeline_mod.run_evidence_step(args.docs_manifest, Path(args.docs_dir), args.out)
    print(f"evidence: {count} figures extracted")
    return EXIT_OK


def _retry_exit(retry: list, out_path: str, item: str) -> int:
    """EXIT_RUNTIME, naming the retry queue, when any `item` (paper or figure) failed."""
    if not retry:
        return EXIT_OK
    print(f"error: {len(retry)} {item}(s) failed and were queued for retry in "
          f"{pipeline_mod.retry_path(out_path)}", file=sys.stderr)
    return EXIT_RUNTIME


def cmd_stage2(args) -> int:
    config = _config_from_args(args)
    result = pipeline_mod.run_stage2_step(
        args.papers, args.evidence, args.library, args.out, build_gateway(config), config)
    kept = sum(1 for sel in result.selected.values() if sel)
    print(f"stage2: {len(result.verdicts)} verdicts, {kept} papers with representatives")
    return _retry_exit(result.retry, args.out, "figure")


def cmd_stage3(args) -> int:
    config = _config_from_args(args)
    result = pipeline_mod.run_stage3_step(
        args.figures, args.evidence, args.library, args.out, config_vocabulary(config),
        build_gateway(config), config)
    print(f"stage3: {len(result.labels)} base figures labeled")
    return _retry_exit(result.retry, args.out, "figure")


def cmd_eval(args) -> int:
    parts = [part.strip() for part in args.stages.split(",") if part.strip() != ""]
    if not parts or any(part not in ("1", "2", "3") for part in parts):
        raise InputError(f"--stages must list stages from 1-3, got {args.stages!r}")
    report = pipeline_mod.run_eval(load_config(args.config), [int(part) for part in parts],
                                   args.out)
    leaks = eval_mod.find_leakage(report)
    for row in report.rows:
        print(
            f"{row.stage} {row.method} {row.model} {row.target}: "
            f"{row.metric}={row.score:.3f} (tp={row.counts.tp} fp={row.counts.fp} "
            f"tn={row.counts.tn} fn={row.counts.fn})"
        )
    print(f"leakage violations: {len(leaks)}")
    if report.errors:
        print(f"error: {len(report.errors)} fold item(s) failed and are listed under "
              f"\"errors\" in {args.out}", file=sys.stderr)
    return EXIT_RUNTIME if leaks or report.errors else EXIT_OK


def cmd_analyze(args) -> int:
    config = _config_from_args(args)
    paths, usable, paper_labels = pipeline_mod.run_analyze_step(
        args.labels, args.papers, args.library or None, Path(args.out_dir), config.reference_year
    )
    print(f"analyze: {len(paths)} paths from {len(usable)} figures across {len(paper_labels)} papers")
    return EXIT_OK


def cmd_run(args) -> int:
    stages = [part.strip() for part in args.stages.split(",") if part.strip() != ""]
    unknown = [stage for stage in stages if stage not in STAGES]
    if unknown:
        raise InputError(f"--stages names unknown stages {unknown}; choose from {','.join(STAGES)}")
    manifest = run_pipeline(load_config(args.config), stages or None)
    print(f"pipeline complete: stages={sorted(manifest.stages, key=STAGES.index)} "
          f"network_calls={manifest.gateway.get('network_calls', 0)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vismine",
        description="Retrieval-augmented human-LLM mining of model-visualization literature",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest metadata and apply the keyword prefilter")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stage1", help="paper-level screening with dual-backend consensus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default="")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_stage1)

    p = sub.add_parser("evidence", help="extract per-figure evidence from converted text")
    p.add_argument("--docs-manifest", required=True)
    p.add_argument("--docs-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evidence)

    p = sub.add_parser("stage2", help="figure-level relevance with top-3 representatives")
    p.add_argument("--papers", required=True)
    p.add_argument("--evidence", required=True)
    p.add_argument("--library", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_stage2)

    p = sub.add_parser("stage3", help="four-field framework extraction")
    p.add_argument("--figures", required=True, help="stage2 verdict file")
    p.add_argument("--evidence", required=True)
    p.add_argument("--library", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_stage3)

    p = sub.add_parser("eval", help="leave-one-out evaluation of what `run` runs")
    p.add_argument("--stages", default="1,2,3")
    p.add_argument("--out", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="paths, flows, trends, citation weighting")
    p.add_argument("--labels", required=True)
    p.add_argument("--papers", required=True)
    p.add_argument("--library", default="")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="composite pipeline with resumable caching")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", default="", help=f"comma-separated subset of {','.join(STAGES)}")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except VismineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
