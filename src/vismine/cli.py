"""Command-line entry point.

`run` runs the pipeline's steps (all of them, or the `--stages` subset)
on the config's inputs and `<out_dir>`; each step reads the files an
earlier step wrote there, so a reviewer may edit them between two calls.
`eval` scores what `run` runs leave-one-out, and `evidence` extracts
figure evidence from given paths.  Exit codes: 0 success, 1 validation
failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import evaluation as eval_mod
from . import pipeline as pipeline_mod
from .config import load_config
from .errors import ConfigError, InputError, VismineError
from .pipeline import STAGES, run_pipeline

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def cmd_evidence(args) -> int:
    count = pipeline_mod.run_evidence_step(args.docs_manifest, Path(args.docs_dir), args.out)
    print(f"evidence: {count} figures extracted")
    return EXIT_OK


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


def cmd_run(args) -> int:
    stages = [part.strip() for part in args.stages.split(",") if part.strip() != ""]
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

    p = sub.add_parser("evidence", help="extract per-figure evidence from converted text")
    p.add_argument("--docs-manifest", required=True)
    p.add_argument("--docs-dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evidence)

    p = sub.add_parser("eval", help="leave-one-out evaluation of what `run` runs")
    p.add_argument("--stages", default="1,2,3")
    p.add_argument("--out", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="run every pipeline step, or the --stages steps, with caching")
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
