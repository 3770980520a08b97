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
from . import evidence as evidence_mod
from . import stage1 as stage1_mod
from . import stage2 as stage2_mod
from . import stage3 as stage3_mod
from . import evaluation as eval_mod
from . import analysis as analysis_mod
from .config import load_config, validate_config, build_gateway
from .errors import ConfigError, InputError, VismineError
from .jsonl import read_jsonl, write_json, write_jsonl
from .library import load_library
from .pipeline import STAGES, run_pipeline, _evidence_lookup_from_file
from .vocab import FIELDS, labels_from_dict, load_vocabulary

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _load_records(path: str) -> list[corpus_mod.PaperRecord]:
    return [corpus_mod.record_from_dict(raw) for raw in read_jsonl(path)]


def _load_pool(records, pool_path: str) -> corpus_mod.LabeledPool:
    assignments = [(str(r["paper_id"]), str(r["label"])) for r in read_jsonl(pool_path)]
    return corpus_mod.load_labeled_pool(records, assignments)


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


def cmd_ingest(args) -> int:
    records, report = corpus_mod.ingest_metadata(read_jsonl(args.corpus))
    keywords = tuple(args.keywords.split(",")) if args.keywords else corpus_mod.DEFAULT_KEYWORDS
    filtered = corpus_mod.keyword_prefilter(records, keywords)
    write_jsonl(args.out, (r.to_dict() for r in filtered))
    summary = report.to_dict()
    summary["after_keyword_filter"] = len(filtered)
    summary["keywords"] = list(keywords)
    write_json(args.report, summary)
    print(f"ingested {report.ingested}/{report.total}, kept {len(filtered)} after keyword filter")
    return EXIT_OK


def cmd_stage1(args) -> int:
    config, gateway = _gateway_from_args(args)
    candidates = _load_records(args.corpus)
    pool_records = candidates + [
        corpus_mod.record_from_dict(r)
        for r in read_jsonl(args.pool)
        if "title" in r and r.get("paper_id") not in {c.paper_id for c in candidates}
    ]
    pool = _load_pool(pool_records, args.pool)
    result = stage1_mod.run_stage1(
        candidates, pool, gateway, config.stage1_backends,
        k=args.k, min_pos=args.min_pos, min_neg=args.min_neg,
        max_workers=config.max_workers,
    )
    write_jsonl(args.out, (r.to_dict() for r in result.subset))
    if args.log:
        write_jsonl(args.log, (d.to_dict() for d in result.decisions))
    print(f"stage1: {len(result.subset)} positives, {len(result.retry)} undecided")
    return EXIT_OK


def cmd_evidence(args) -> int:
    docs_dir = Path(args.docs_dir)
    rows = []
    for entry in read_jsonl(args.docs_manifest):
        raw_text = (docs_dir / str(entry["path"])).read_text(encoding="utf-8")
        doc = evidence_mod.segment_paragraphs(
            str(entry["paper_id"]), raw_text, provenance=str(entry.get("provenance", ""))
        )
        doc = evidence_mod.filter_nonbody(doc)
        rows.extend(ev.to_dict() for ev in evidence_mod.extract_all_evidence(doc))
    write_jsonl(args.out, rows)
    print(f"evidence: {len(rows)} figures extracted")
    return EXIT_OK


def cmd_stage2(args) -> int:
    config, gateway = _gateway_from_args(args)
    papers = _load_records(args.papers)
    library = load_library(read_jsonl(args.library))
    library_ids = {p.paper_id for p in library}
    lookup = _evidence_lookup_from_file(Path(args.evidence))
    by_paper: dict[str, list] = {}
    for ev in lookup.table.values():
        by_paper.setdefault(ev.paper_id, []).append(ev)
    for evs in by_paper.values():
        evs.sort(key=lambda e: evidence_mod.figure_sort_key(e.figure_id))
    targets = [
        (record, by_paper.get(record.paper_id, []))
        for record in papers
        if record.paper_id not in library_ids
    ]
    result = stage2_mod.run_stage2(
        targets, library, lookup, gateway, config.stage2_backend,
        k=args.k, max_figs=args.max_figs, max_workers=config.max_workers,
    )
    write_jsonl(args.out, (v.to_dict() for v in result.verdicts))
    kept = sum(1 for sel in result.selected.values() if sel)
    print(f"stage2: {len(result.verdicts)} verdicts, {kept} papers with representatives")
    return EXIT_OK


def cmd_stage3(args) -> int:
    config, gateway = _gateway_from_args(args)
    library = load_library(read_jsonl(args.library))
    lookup = _evidence_lookup_from_file(Path(args.evidence))
    vocab = load_vocabulary(args.vocab, args.alias)
    entries = []
    for paper in library:
        for figure in paper.coded_figures():
            ev = lookup(paper.paper_id, figure.figure_id)
            if ev is not None:
                entries.append((ev, figure.labels))
    corpus = stage3_mod.build_figure_corpus(entries)
    targets = []
    for raw in read_jsonl(args.figures):
        verdict = stage2_mod.verdict_from_dict(raw)
        if verdict.selected:
            ev = lookup(verdict.paper_id, verdict.figure_id)
            if ev is not None:
                targets.append(ev)
    result = stage3_mod.run_stage3(
        targets, corpus, vocab, gateway, config.stage3_backend,
        k=args.k, per_paper_cap=args.cap, max_workers=config.max_workers,
    )
    write_jsonl(args.out, (l.to_dict() for l in result.labels))
    print(f"stage3: {len(result.labels)} base figures labeled")
    return EXIT_OK


def cmd_eval(args) -> int:
    config, gateway = _gateway_from_args(args)
    stages = _int_list(args.stages)
    pool = None
    if 1 in stages:
        pool_rows = list(read_jsonl(args.pool))
        records = [corpus_mod.record_from_dict(r) for r in pool_rows if "title" in r]
        if args.corpus:
            have = {r.paper_id for r in records}
            records += [r for r in _load_records(args.corpus) if r.paper_id not in have]
        pool = corpus_mod.load_labeled_pool(
            records, [(str(r["paper_id"]), str(r["label"])) for r in pool_rows]
        )
    coded = None
    lookup = None
    if 2 in stages or 3 in stages:
        coded = load_library(read_jsonl(args.figures))
        lookup = _evidence_lookup_from_file(Path(args.evidence))
    vocab = load_vocabulary(args.vocab, args.alias) if 3 in stages else None
    report = eval_mod.run_loo(
        pool=pool,
        coded=coded,
        evidence_lookup=lookup,
        vocab=vocab,
        gateway=gateway,
        stage1_backends=config.stage1_backends,
        figure_backend=config.stage2_backend,
        stages=stages,
        stage1_shots=_int_list(args.shots),
        stage2_shots=_int_list(args.stage2_shots),
        stage3_shots=_int_list(args.stage3_shots),
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
    labels = [labels_from_dict(raw) for raw in read_jsonl(args.labels)]
    papers = {r.paper_id: r for r in _load_records(args.papers)}
    if args.library:
        for paper in load_library(read_jsonl(args.library)):
            papers.setdefault(paper.paper_id, paper.record)
            labels.extend(f.labels for f in paper.coded_figures())
    out_dir = Path(args.out_dir)
    usable = [l for l in labels if not l.flags]
    paths = analysis_mod.expand_all(usable)
    write_jsonl(out_dir / "paths.jsonl", (p.to_dict() for p in paths))
    write_json(out_dir / "sankey.json", analysis_mod.sankey_export(paths))
    write_json(out_dir / "edge_flows.json", analysis_mod.edge_flows(usable))
    paper_labels = analysis_mod.paper_level_labels(usable, papers)
    import csv as csv_mod
    import io as io_mod

    from .jsonl import atomic_write_text

    trends = io_mod.StringIO()
    writer = csv_mod.writer(trends, lineterminator="\n")
    writer.writerow(["year", "field", "category", "papers", "carriers", "proportion"])
    weights = io_mod.StringIO()
    w_writer = csv_mod.writer(weights, lineterminator="\n")
    w_writer.writerow(["field", "category", "prevalence", "weighted_share"])
    for fname in FIELDS:
        for row in analysis_mod.yearly_proportions(paper_labels, fname):
            writer.writerow([row["year"], row["field"], row["category"],
                             row["papers"], row["carriers"], f"{row['proportion']:.6f}"])
        for row in analysis_mod.weighted_coverage(paper_labels, fname, reference_year=args.ref_year):
            share = "" if row["weighted_share"] is None else f"{row['weighted_share']:.6f}"
            w_writer.writerow([row["field"], row["category"], f"{row['prevalence']:.6f}", share])
    atomic_write_text(out_dir / "trends.csv", trends.getvalue())
    atomic_write_text(out_dir / "weights.csv", weights.getvalue())
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
    p.add_argument("--ref-year", type=int, default=2026)
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
