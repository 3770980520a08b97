"""End-to-end orchestration: ingest -> screen -> evidence -> figures -> labels -> analytics.

Each step reads the previous step's output file, writes its own atomically,
and records input/output hashes in a run manifest. With a warm response
cache a rerun performs zero network calls and reproduces every output file
byte for byte.
"""

from __future__ import annotations

import csv
import io
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Collection, Iterator, Sequence

from . import __version__
from . import analysis as analysis_mod
from . import corpus as corpus_mod
from . import evidence as evidence_mod
from . import stage1 as stage1_mod
from . import stage2 as stage2_mod
from . import stage3 as stage3_mod
from .config import RunConfig, build_gateway, validate_config
from .errors import ConfigError, InputError, PipelineError
from .gateway import Gateway
from .jsonl import atomic_write_text, dumps_stable, file_sha256, read_jsonl, write_json, write_jsonl
from .library import load_library
from .vocab import FIELDS, FrameworkLabels, LabelVocabulary, labels_from_dict, load_vocabulary

logger = logging.getLogger(__name__)

STAGES = ("ingest", "stage1", "evidence", "stage2", "stage3", "analyze")

UPSTREAM = {
    "stage1": ("ingest",),
    "stage2": ("stage1", "evidence"),
    "stage3": ("stage2", "evidence"),
    "analyze": ("stage3",),
}


def stage_outputs(out_dir: Path) -> dict[str, list[Path]]:
    return {
        "ingest": [out_dir / "corpus.jsonl", out_dir / "ingest_report.json"],
        "stage1": [out_dir / "stage1_subset.jsonl", out_dir / "stage1_decisions.jsonl"],
        "evidence": [out_dir / "evidence.jsonl"],
        "stage2": [out_dir / "stage2_verdicts.jsonl"],
        "stage3": [out_dir / "stage3_labels.jsonl"],
        "analyze": [
            out_dir / "analysis" / "paths.jsonl",
            out_dir / "analysis" / "sankey.json",
            out_dir / "analysis" / "edge_flows.json",
            out_dir / "analysis" / "trends.csv",
            out_dir / "analysis" / "weights.csv",
        ],
    }


@dataclass
class RunManifest:
    version: str = __version__
    config_hash: str = ""
    stages: dict[str, dict] = field(default_factory=dict)
    gateway: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _config_hash(config: RunConfig) -> str:
    import hashlib

    payload = dumps_stable(
        {
            k: str(v) if isinstance(v, Path) else v
            for k, v in vars(config).items()
            if k != "backends"
        }
        | {"backends": {slot: vars(b) for slot, b in sorted(config.backends.items())}}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_corpus_file(path: str | Path) -> list[corpus_mod.PaperRecord]:
    return [corpus_mod.record_from_dict(raw) for raw in read_jsonl(path)]


def _rows_with(path: str | Path, keys: Sequence[str]) -> Iterator[dict]:
    """The records of JSONL file `path`; one lacking any of `keys` is an `InputError`."""
    for number, row in enumerate(read_jsonl(path), 1):
        for key in keys:
            if key not in row:
                raise InputError(f"{path}: record {number} has no {key!r}")
        yield row


def retry_path(out_path: str | Path) -> Path:
    """Where the retry queue of the stage writing `out_path` goes: `<name>.retry.jsonl` beside it.

    Named after the output, so two runs writing two outputs into one
    directory keep two queues.
    """
    return Path(out_path).with_suffix(".retry.jsonl")


def _write_retry_queue(path: Path, keys: Sequence[str], retry: Sequence[tuple[str, ...]]) -> None:
    """One row per failed item, its values under `keys`; no file when none failed."""
    if retry:
        write_jsonl(path, (dict(zip(keys, item)) for item in retry))
    else:
        path.unlink(missing_ok=True)


def load_pool(
    pool_path: str | Path, records: Sequence[corpus_mod.PaperRecord],
) -> corpus_mod.LabeledPool:
    """The labeled pool of `pool_path`, in the file's assignment order.

    `records` come first; pool rows with a title add papers they lack.
    """
    pool_rows = list(_rows_with(pool_path, ("paper_id", "label")))
    have = {r.paper_id for r in records}
    extras = [corpus_mod.record_from_dict(row) for row in pool_rows
              if row.get("paper_id") not in have and "title" in row]
    assignments = [(str(row["paper_id"]), str(row["label"])) for row in pool_rows]
    return corpus_mod.load_labeled_pool([*records, *extras], assignments)


def _config_path(config: RunConfig, path: Path | None, name: str) -> Path:
    resolved = config.resolve(path)
    if resolved is None:
        raise PipelineError(f"config has no {name}")
    return resolved


def load_evidence_table(
    path: str | Path, paper_ids: Collection[str],
) -> dict[tuple[str, str], evidence_mod.FigureEvidence]:
    """The evidence file's rows of the papers in `paper_ids`, keyed by (paper_id, figure_id).

    In file order; a later row wins.  Every row is checked for both keys,
    but only the listed papers' rows are kept.
    """
    table: dict[tuple[str, str], evidence_mod.FigureEvidence] = {}
    for raw in _rows_with(path, ("paper_id", "figure_id")):
        if str(raw["paper_id"]) in paper_ids:
            ev = evidence_mod.evidence_from_dict(raw)
            table[(ev.paper_id, ev.figure_id)] = ev
    return table


def run_ingest(
    corpus_path: str | Path, out_path: str | Path, report_path: str | Path, keywords: Sequence[str]
) -> tuple[list[corpus_mod.PaperRecord], corpus_mod.IngestReport]:
    """Ingest raw metadata and keep the records that match a keyword."""
    records, report = corpus_mod.ingest_metadata(read_jsonl(corpus_path))
    filtered = corpus_mod.keyword_prefilter(records, keywords)
    write_jsonl(out_path, (r.to_dict() for r in filtered))
    summary = report.to_dict()
    summary["after_keyword_filter"] = len(filtered)
    summary["keywords"] = list(keywords)
    write_json(report_path, summary)
    logger.info("ingest: %d raw, %d ingested, %d after keyword filter",
                report.total, report.ingested, len(filtered))
    return filtered, report


def run_stage1_step(
    corpus_path: str | Path, pool_path: str | Path, out_path: str | Path,
    decisions_path: str | Path | None, gateway: Gateway, backend_ids: Sequence[str],
    *, k: int, min_pos: int, min_neg: int, max_workers: int,
) -> stage1_mod.Stage1Result:
    """Screen the candidates against the pool `load_pool` reads.

    The decision log is written unless `decisions_path` is None.
    Undecided papers are queued in `retry_path(out_path)`.
    """
    candidates = _load_corpus_file(corpus_path)
    result = stage1_mod.run_stage1(
        candidates,
        load_pool(pool_path, candidates),
        gateway,
        backend_ids,
        k=k,
        min_pos=min_pos,
        min_neg=min_neg,
        max_workers=max_workers,
    )
    write_jsonl(out_path, (r.to_dict() for r in result.subset))
    if decisions_path is not None:
        write_jsonl(decisions_path, (d.to_dict() for d in result.decisions))
    error_of = {d.paper_id: d.error for d in result.decisions}
    _write_retry_queue(retry_path(out_path), ("paper_id", "message"),
                       [(paper_id, error_of[paper_id]) for paper_id in result.retry])
    return result


def run_evidence_step(manifest_path: str | Path, docs_dir: Path, out_path: str | Path) -> int:
    """Extract every figure's evidence from the converted texts; returns the figure count.

    Each document's rows are written as they are made, so one document is
    held at a time.
    """

    def rows() -> Iterator[dict]:
        for entry in _rows_with(manifest_path, ("paper_id", "path")):
            paper_id = str(entry["paper_id"])
            doc_path = docs_dir / str(entry["path"])
            try:
                raw_text = doc_path.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise InputError(
                    f"{doc_path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
            doc = evidence_mod.segment_paragraphs(
                paper_id, raw_text, provenance=str(entry.get("provenance", "")))
            doc = evidence_mod.filter_nonbody(doc)
            for ev in evidence_mod.extract_all_evidence(doc):
                yield ev.to_dict()

    return write_jsonl(out_path, rows())


def run_stage2_step(
    papers_path: str | Path, evidence_path: str | Path, library_path: str | Path,
    out_path: str | Path, gateway: Gateway, backend_id: str,
    *, k: int, max_figs: int, max_workers: int,
) -> stage2_mod.Stage2Result:
    """Judge every figure of each paper that the coded library does not hold.

    Failed figures are queued in `retry_path(out_path)`.
    """
    papers = _load_corpus_file(papers_path)
    library = load_library(read_jsonl(library_path))
    library_ids = {p.paper_id for p in library}
    table = load_evidence_table(evidence_path, {r.paper_id for r in papers} | library_ids)
    by_paper: dict[str, list[evidence_mod.FigureEvidence]] = {}
    for ev in table.values():
        by_paper.setdefault(ev.paper_id, []).append(ev)
    for evs in by_paper.values():
        evs.sort(key=lambda e: evidence_mod.figure_sort_key(e.figure_id))
    targets = [
        (record, by_paper.get(record.paper_id, []))
        for record in papers
        if record.paper_id not in library_ids
    ]
    result = stage2_mod.run_stage2(
        targets,
        library,
        lambda paper_id, figure_id: table.get((paper_id, figure_id)),
        gateway,
        backend_id,
        k=k,
        max_figs=max_figs,
        max_workers=max_workers,
    )
    write_jsonl(out_path, (v.to_dict() for v in result.verdicts))
    _write_retry_queue(retry_path(out_path), ("paper_id", "figure_id", "message"), result.retry)
    return result


def run_stage3_step(
    verdicts_path: str | Path, evidence_path: str | Path, library_path: str | Path,
    out_path: str | Path, vocab: LabelVocabulary, gateway: Gateway, backend_id: str,
    *, k: int, per_paper_cap: int, max_workers: int,
) -> stage3_mod.Stage3Result:
    """Label every selected figure, with the coded library's figures as exemplars.

    Failed figures are queued in `retry_path(out_path)`.
    """
    library = load_library(read_jsonl(library_path))
    selected = []
    for raw in _rows_with(verdicts_path, ("paper_id", "figure_id")):
        verdict = stage2_mod.verdict_from_dict(raw)
        if verdict.selected:
            selected.append(verdict)
    table = load_evidence_table(
        evidence_path, {v.paper_id for v in selected} | {p.paper_id for p in library})
    corpus = stage3_mod.library_figure_corpus(
        library, lambda paper_id, figure_id: table.get((paper_id, figure_id)))
    targets = []
    for verdict in selected:
        ev = table.get((verdict.paper_id, verdict.figure_id))
        if ev is None:
            logger.warning("no evidence for selected figure %s::%s",
                           verdict.paper_id, verdict.figure_id)
            continue
        targets.append(ev)
    result = stage3_mod.run_stage3(
        targets,
        corpus,
        vocab,
        gateway,
        backend_id,
        k=k,
        per_paper_cap=per_paper_cap,
        max_workers=max_workers,
    )
    write_jsonl(out_path, (l.to_dict() for l in result.labels))
    _write_retry_queue(retry_path(out_path), ("paper_id", "figure_id", "message"), result.retry)
    return result


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def run_analyze_step(
    labels_path: str | Path, papers_path: str | Path | None, library_path: str | Path | None,
    out_dir: Path, reference_year: int,
) -> tuple[list[analysis_mod.PathRecord], list[FrameworkLabels], list[analysis_mod.PaperLabels]]:
    """Write paths, flows, trends and weights from the stage-3 labels and library figures.

    Library papers fill in metadata missing from `papers_path`; either path may be None.
    """
    labels = [labels_from_dict(raw) for raw in read_jsonl(labels_path)]
    papers: dict[str, corpus_mod.PaperRecord] = {}
    if papers_path is not None:
        for record in _load_corpus_file(papers_path):
            papers[record.paper_id] = record
    if library_path is not None:
        for paper in load_library(read_jsonl(library_path)):
            papers.setdefault(paper.paper_id, paper.record)
            for figure in paper.coded_figures():
                labels.append(figure.labels)

    usable = [l for l in labels if not l.flags]
    skipped = len(labels) - len(usable)
    if skipped:
        logger.warning("analyze: %d flagged figure(s) excluded from path expansion", skipped)
    paths = analysis_mod.expand_all(usable)
    write_jsonl(out_dir / "paths.jsonl", (p.to_dict() for p in paths))
    write_json(out_dir / "sankey.json", analysis_mod.sankey_export(paths))
    write_json(out_dir / "edge_flows.json", analysis_mod.edge_flows(usable))

    paper_labels = analysis_mod.paper_level_labels(usable, papers)
    trend_rows = []
    weight_rows = []
    for fname in FIELDS:
        for row in analysis_mod.yearly_proportions(paper_labels, fname):
            trend_rows.append([row["year"], row["field"], row["category"],
                               row["papers"], row["carriers"], f"{row['proportion']:.6f}"])
        for row in analysis_mod.weighted_coverage(
            paper_labels, fname, reference_year=reference_year
        ):
            share = "" if row["weighted_share"] is None else f"{row['weighted_share']:.6f}"
            weight_rows.append([row["field"], row["category"],
                                f"{row['prevalence']:.6f}", share])
    atomic_write_text(
        out_dir / "trends.csv",
        _csv_text(["year", "field", "category", "papers", "carriers", "proportion"], trend_rows),
    )
    atomic_write_text(
        out_dir / "weights.csv",
        _csv_text(["field", "category", "prevalence", "weighted_share"], weight_rows),
    )
    return paths, usable, paper_labels


def run_pipeline(config: RunConfig, stages: list[str] | None = None) -> RunManifest:
    """Execute the requested stages in order and emit a manifest.

    A downstream stage whose upstream outputs are missing fails fast,
    naming the stage to run first.  When papers fail in stage 1 or figures
    in stage 2 or 3, the remaining stages still run and the manifest is
    written; then a `PipelineError` names each stage's retry queue.
    """
    stages = list(stages) if stages is not None else list(STAGES)
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise PipelineError(f"unknown stages: {unknown}")
    stages.sort(key=STAGES.index)
    problems = validate_config(config)
    if problems:
        raise ConfigError("; ".join(problems))

    out_dir = config.resolve(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = stage_outputs(out_dir)
    corpus_out, report_out = outputs["ingest"]
    subset_out, decisions_out = outputs["stage1"]
    [evidence_out], [verdicts_out] = outputs["evidence"], outputs["stage2"]
    [labels_out] = outputs["stage3"]
    manifest = RunManifest(config_hash=_config_hash(config))
    needs_gateway = any(s in stages for s in ("stage1", "stage2", "stage3"))
    gateway = build_gateway(config) if needs_gateway else None
    failed: list[str] = []

    for stage in stages:
        for upstream in UPSTREAM.get(stage, ()):
            if upstream in stages and stages.index(upstream) < stages.index(stage):
                continue
            missing = [p for p in outputs[upstream] if not p.exists()]
            if missing:
                raise PipelineError(
                    f"stage {stage!r} needs outputs of {upstream!r}; run {upstream!r} first "
                    f"(missing {missing[0]})"
                )
        inputs = {
            str(p): file_sha256(p)
            for up in UPSTREAM.get(stage, ())
            for p in outputs[up]
            if p.exists()
        }
        started = time.time()
        if stage == "ingest":
            corpus_path = _config_path(config, config.corpus_path, "corpus file")
            run_ingest(corpus_path, corpus_out, report_out, config.keywords)
        elif stage == "stage1":
            pool_path = _config_path(config, config.pool_path, "pool file")
            result = run_stage1_step(
                corpus_out, pool_path, subset_out, decisions_out, gateway, config.stage1_backends,
                k=config.stage1_k, min_pos=config.stage1_min_pos, min_neg=config.stage1_min_neg,
                max_workers=config.max_workers,
            )
            if result.retry:
                failed.append(f"{len(result.retry)} paper(s) in {retry_path(subset_out)}")
        elif stage == "evidence":
            manifest_path = _config_path(config, config.docs_manifest_path, "docs_manifest file")
            docs_dir = _config_path(config, config.docs_dir, "docs_dir directory")
            run_evidence_step(manifest_path, docs_dir, evidence_out)
        elif stage == "stage2":
            library_path = _config_path(config, config.library_path, "library file")
            result = run_stage2_step(
                subset_out, evidence_out, library_path, verdicts_out, gateway,
                config.stage2_backend, k=config.stage2_k, max_figs=config.stage2_max_figs,
                max_workers=config.max_workers,
            )
            if result.retry:
                failed.append(f"{len(result.retry)} figure(s) in {retry_path(verdicts_out)}")
        elif stage == "stage3":
            library_path = _config_path(config, config.library_path, "library file")
            vocab = load_vocabulary(config.resolve(config.vocab_path),
                                    config.resolve(config.alias_path))
            result = run_stage3_step(
                verdicts_out, evidence_out, library_path, labels_out, vocab, gateway,
                config.stage3_backend, k=config.stage3_k,
                per_paper_cap=config.stage3_per_paper_cap, max_workers=config.max_workers,
            )
            if result.retry:
                failed.append(f"{len(result.retry)} figure(s) in {retry_path(labels_out)}")
        elif stage == "analyze":
            papers_path = corpus_out if corpus_out.exists() else None
            run_analyze_step(labels_out, papers_path, config.resolve(config.library_path),
                             out_dir / "analysis", config.reference_year)
        manifest.stages[stage] = {
            "inputs": inputs,
            "outputs": {str(p): file_sha256(p) for p in outputs[stage] if p.exists()},
            "started": started,
            "finished": time.time(),
        }
    if gateway is not None:
        manifest.gateway = gateway.stats.to_dict()
    write_json(out_dir / "manifest.json", manifest.to_dict())
    if failed:
        raise PipelineError(f"items failed and were queued for retry: {'; '.join(failed)}")
    return manifest
