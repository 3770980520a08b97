"""Command-line entry point.

Subcommands mirror the pipeline stages (`ingest`, `stage1`, `evidence`,
`stage2`, `stage3`, `eval`, `analyze`) plus the composite `run`. Exit
codes: 0 success, 1 validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import pipeline as pipeline_mod
from .config import DEFAULT_REFERENCE_YEAR, load_config, validate_config, build_gateway
from .errors import ConfigError, InputError, VismineError
from .jsonl import read_jsonl, write_json
from .library import load_library
from .pipeline import STAGES, load_evidence_table, load_pool, run_pipeline, _load_corpus_file
from .vocab import LabelVocabulary, load_vocabulary

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _gateway_from_args(args) -> tuple:
    if not args.config:
        raise ConfigError("--config is required for backend access")
    config = load_config(args.config)
    problems = [
        p for p in validate_config(config)
        if not p.startswith(("corpus", "pool", "docs", "library"))
    ]
    if problems:
        raise ConfigError("; ".join(problems))
    return config, build_gateway(config)


def _vocabulary(args, config) -> LabelVocabulary:
    """`--vocab`/`--alias` first, then the config's files, then the packaged ones."""
    return load_vocabulary(args.vocab or config.resolve(config.vocab_path),
                           args.alias or config.resolve(config.alias_path))


def cmd_ingest(args) -> int:
    keywords = tuple(args.keywords.split(",")) if args.keywords else corpus_mod.DEFAULT_KEYWORDS
    filtered, report = pipeline_mod.run_ingest(args.corpus, args.out, args.report, keywords)
    print(f"ingested {report.ingested}/{report.total}, kept {len(filtered)} after keyword filter")
    return EXIT_OK


def cmd_stage1(args) -> int:
    config, gateway = _gateway_from_args(args)
    result = pipeline_mod.run_stage1_step(
        args.corpus, args.pool, args.out, args.log or None, gateway, config.stage1_backends,
        k=args.k, min_pos=args.min_pos, min_neg=args.min_neg, max_workers=config.max_workers,
    )
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
    config, gateway = _gateway_from_args(args)
    result = pipeline_mod.run_stage2_step(
        args.papers, args.evidence, args.library, args.out, gateway, config.stage2_backend,
        k=args.k, max_figs=args.max_figs, max_workers=config.max_workers,
    )
    kept = sum(1 for sel in result.selected.values() if sel)
    print(f"stage2: {len(result.verdicts)} verdicts, {kept} papers with representatives")
    return _retry_exit(result.retry, args.out, "figure")


def cmd_stage3(args) -> int:
    config, gateway = _gateway_from_args(args)
    result = pipeline_mod.run_stage3_step(
        args.figures, args.evidence, args.library, args.out, _vocabulary(args, config),
        gateway, config.stage3_backend,
        k=args.k, per_paper_cap=args.cap, max_workers=config.max_workers,
    )
    print(f"stage3: {len(result.labels)} base figures labeled")
    return _retry_exit(result.retry, args.out, "figure")


def cmd_eval(args) -> int:
    stages = _int_list(args.stages, "--stages")
    if not stages or any(stage not in (1, 2, 3) for stage in stages):
        raise InputError(f"--stages must list stages from 1-3, got {args.stages!r}")
    stage1_shots = _int_list(args.shots, "--shots")
    stage2_shots = _int_list(args.stage2_shots, "--stage2-shots")
    stage3_shots = _int_list(args.stage3_shots, "--stage3-shots")
    figure_stages = 2 in stages or 3 in stages
    for flag, value, needed in (("--pool", args.pool, 1 in stages),
                                ("--figures", args.figures, figure_stages),
                                ("--evidence", args.evidence, figure_stages)):
        if needed and not value:
            raise InputError(f"{flag} is required for eval --stages {args.stages}")
    config, gateway = _gateway_from_args(args)
    pool = None
    if 1 in stages:
        pool = load_pool(args.pool, _load_corpus_file(args.corpus) if args.corpus else [])
    coded = None
    table = None
    if figure_stages:
        coded = load_library(read_jsonl(args.figures))
        table = load_evidence_table(args.evidence, {p.paper_id for p in coded})
    vocab = _vocabulary(args, config) if 3 in stages else None
    report = eval_mod.run_loo(
        pool=pool,
        coded=coded,
        evidence_lookup=None if table is None else (
            lambda paper_id, figure_id: table.get((paper_id, figure_id))),
        vocab=vocab,
        gateway=gateway,
        stage1_backends=config.stage1_backends,
        figure_backend=config.stage2_backend,
        stages=stages,
        stage1_shots=stage1_shots,
        stage2_shots=stage2_shots,
        stage3_shots=stage3_shots,
    )
    write_json(args.out, report.to_dict())
    leaks = eval_mod.find_leakage(report)
    for row in report.rows:
        print(
            f"{row.stage} {row.method} {row.model} {row.target}: "
            f"{row.metric}={row.score:.3f} (tp={row.counts.tp} fp={row.counts.fp} "
            f"tn={row.counts.tn} fn={row.counts.fn})"
        )
    print(f"leakage violations: {len(leaks)}")
    return EXIT_OK if not leaks else EXIT_RUNTIME


def cmd_analyze(args) -> int:
    paths, usable, paper_labels = pipeline_mod.run_analyze_step(
        args.labels, args.papers, args.library or None, Path(args.out_dir), args.ref_year
    )
    print(f"analyze: {len(paths)} paths from {len(usable)} figures across {len(paper_labels)} papers")
    return EXIT_OK


def cmd_run(args) -> int:
    config = load_config(args.config)
    problems = validate_config(config)
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    stages = args.stages.split(",") if args.stages else list(STAGES)
    manifest = run_pipeline(config, stages)
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
    p.add_argument("--keywords", default="", help="comma-separated; default model,learning,analytics,analysis")
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stage1", help="paper-level screening with dual-backend consensus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--min-pos", type=int, default=2)
    p.add_argument("--min-neg", type=int, default=2)
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
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--max-figs", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_stage2)

    p = sub.add_parser("stage3", help="four-field framework extraction")
    p.add_argument("--figures", required=True, help="stage2 verdict file")
    p.add_argument("--evidence", required=True)
    p.add_argument("--library", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--alias", default=None)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_stage3)

    p = sub.add_parser("eval", help="leave-one-out evaluation harness")
    p.add_argument("--pool", default="")
    p.add_argument("--corpus", default="", help="metadata for pool papers lacking titles")
    p.add_argument("--figures", default="", help="coded-paper library file")
    p.add_argument("--evidence", default="")
    p.add_argument("--stages", default="1,2,3")
    p.add_argument("--shots", default="0,6", help="stage-1 shot settings")
    p.add_argument("--stage2-shots", default="0,5")
    p.add_argument("--stage3-shots", default="0,10")
    p.add_argument("--vocab", default=None)
    p.add_argument("--alias", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="paths, flows, trends, citation weighting")
    p.add_argument("--labels", required=True)
    p.add_argument("--papers", required=True)
    p.add_argument("--library", default="")
    p.add_argument("--ref-year", type=int, default=DEFAULT_REFERENCE_YEAR)
    p.add_argument("--out-dir", required=True)
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
