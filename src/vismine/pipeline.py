"""End-to-end orchestration: ingest -> screen -> evidence -> figures -> labels -> analytics.

Each step reads the previous step's output file, writes its own atomically,
and records input/output hashes in a run manifest. With a warm response
cache a rerun performs zero network calls and reproduces every output file
byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Collection, Iterator, Sequence

from . import __version__
from . import analysis as analysis_mod
from . import corpus as corpus_mod
from . import evaluation as eval_mod
from . import evidence as evidence_mod
from . import jsonl as jsonl_mod
from . import stage1 as stage1_mod
from . import stage2 as stage2_mod
from . import stage3 as stage3_mod
from .config import RunConfig, build_gateway, validate_config
from .errors import ConfigError, InputError, PipelineError
from .gateway import Gateway
from .jsonl import (
    atomic_write_text, dumps_stable, file_sha256, read_jsonl, write_json, write_jsonl,
    write_lines,
)
from .library import load_library
from .vocab import FIELDS, LabelVocabulary, labels_from_dict, load_vocabulary

logger = logging.getLogger(__name__)

STAGES = ("ingest", "stage1", "evidence", "stage2", "stage3", "analyze")

UPSTREAM = {
    "stage1": ("ingest",),
    "stage2": ("stage1", "evidence"),
    "stage3": ("stage2", "evidence"),
    "analyze": ("stage3",),
}

# The stages of `vismine run` whose outputs each stage of `vismine eval` reads.
EVAL_UPSTREAM = {"stage1": ("ingest",), "stage2": ("evidence",), "stage3": ("evidence",)}

# The config's input paths each stage reads.
STAGE_INPUTS = {"ingest": ("corpus_path",), "stage1": ("pool_path",),
                "evidence": ("docs_manifest_path", "docs_dir"),
                "stage2": ("library_path",), "stage3": ("library_path",)}


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
    """SHA-256 of every setting, paths as strings."""
    settings = asdict(config, dict_factory=lambda items: {
        k: str(v) if isinstance(v, Path) else v for k, v in items})
    return hashlib.sha256(dumps_stable(settings).encode("utf-8")).hexdigest()


def load_corpus_file(path: str | Path) -> list[corpus_mod.PaperRecord]:
    return [corpus_mod.record_from_dict(raw) for raw in read_jsonl(path)]


def _rows_with(path: str | Path, keys: Sequence[str]) -> Iterator[dict]:
    """The records of JSONL file `path`, each holding a string under every key of `keys`."""
    for number, row in enumerate(read_jsonl(path), 1):
        for key in keys:
            if key not in row:
                raise InputError(f"{path}: record {number} has no {key!r}")
            if not isinstance(row[key], str):
                raise InputError(
                    f"{path}: record {number}: {key}: expected a string, got {row[key]!r}")
        yield row


def _write_retry_queue(
    out_path: Path, keys: Sequence[str], retry: Sequence[tuple[str, ...]],
) -> tuple[int, Path]:
    """Queue the stage's failed items in `<name>.retry.jsonl` beside its output
    `out_path`, so each stage's queue in `<out_dir>` is its own: one row per
    item, its values under `keys`, and no file when none failed.  Returns the
    row count and the queue's path."""
    path = out_path.with_suffix(".retry.jsonl")
    if retry:
        write_jsonl(path, (dict(zip(keys, item)) for item in retry))
    else:
        path.unlink(missing_ok=True)
    return len(retry), path


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
    assignments = [(row["paper_id"], row["label"]) for row in pool_rows]
    return corpus_mod.load_labeled_pool([*records, *extras], assignments)


def _check_config(config: RunConfig, stages: Sequence[str]) -> None:
    """A `ConfigError` listing every `validate_config` violation and each input
    path that a stage of `stages` reads but the config leaves out."""
    problems = validate_config(config)
    missing: dict[str, str] = {}  # key -> the first stage that reads it
    for stage in stages:
        for name in STAGE_INPUTS.get(stage, ()):
            if getattr(config, name) is None:
                missing.setdefault(RunConfig.JSON_KEYS.get(name, name), stage)
    problems += [f"{key}: missing, but stage {stage!r} reads it" for key, stage in missing.items()]
    if problems:
        raise ConfigError("; ".join(problems))


def require_outputs(stage: str, upstream: Sequence[str], outputs: dict[str, list[Path]]) -> None:
    """A `PipelineError` naming the first stage of `upstream` that left an output of
    `outputs` missing, as the one `stage` needs run first."""
    for up in upstream:
        missing = [p for p in outputs[up] if not p.exists()]
        if missing:
            raise PipelineError(
                f"stage {stage!r} needs outputs of {up!r}; run {up!r} first "
                f"(missing {missing[0]})"
            )


def config_vocabulary(config: RunConfig) -> LabelVocabulary:
    """The config's `vocabulary` and `aliases` files, or the packaged ones it leaves out."""
    return load_vocabulary(config.resolve(config.vocab_path), config.resolve(config.alias_path))


def load_evidence_table(
    path: str | Path, paper_ids: Collection[str],
) -> dict[tuple[str, str], evidence_mod.FigureEvidence]:
    """The evidence file's rows of the papers in `paper_ids`, keyed by (paper_id, figure_id).

    In file order; a later row wins.  Every row is checked for both keys,
    but only the listed papers' rows are kept.
    """
    table: dict[tuple[str, str], evidence_mod.FigureEvidence] = {}
    for raw in _rows_with(path, ("paper_id", "figure_id")):
        if raw["paper_id"] in paper_ids:
            ev = evidence_mod.evidence_from_dict(raw)
            table[(ev.paper_id, ev.figure_id)] = ev
    return table


def run_ingest(config: RunConfig, outputs: dict[str, list[Path]]) -> None:
    """Ingest the config's `corpus` into `outputs`, keeping the records that match a keyword."""
    corpus_out, report_out = outputs["ingest"]
    records, report = corpus_mod.ingest_metadata(read_jsonl(config.resolve(config.corpus_path)))
    filtered = corpus_mod.keyword_prefilter(records, config.keywords)
    write_jsonl(corpus_out, (r.to_dict() for r in filtered))
    summary = report.to_dict()
    summary["after_keyword_filter"] = len(filtered)
    summary["keywords"] = list(config.keywords)
    write_json(report_out, summary)
    logger.info("ingest: %d raw, %d ingested, %d after keyword filter",
                report.total, report.ingested, len(filtered))


def run_stage1_step(
    config: RunConfig, outputs: dict[str, list[Path]], gateway: Gateway,
) -> tuple[int, Path]:
    """Screen the ingested candidates against the config's `pool`, as `load_pool` reads
    it, with the config's stage-1 settings; undecided papers go to the retry queue."""
    subset_out, decisions_out = outputs["stage1"]
    candidates = load_corpus_file(outputs["ingest"][0])
    result = stage1_mod.run_stage1(
        candidates,
        load_pool(config.resolve(config.pool_path), candidates),
        gateway,
        config.stage1_backends,
        k=config.stage1_k,
        min_pos=config.stage1_min_pos,
        min_neg=config.stage1_min_neg,
        max_workers=config.max_workers,
    )
    write_jsonl(subset_out, (r.to_dict() for r in result.subset))
    write_jsonl(decisions_out, (d.to_dict() for d in result.decisions))
    return _write_retry_queue(subset_out, ("paper_id", "message"), result.retry)


# Leads every evidence memo key; change it when the key's layout changes.
_EVIDENCE_MEMO_FORMAT = b"vismine evidence memo 3"


def _manifest_documents(manifest_path: str | Path, docs_dir: Path) -> list[tuple[str, Path]]:
    """`(paper_id, path)` of each manifest row's document, in manifest order.

    A document that does not exist or is a directory is an `InputError`
    naming the manifest, the record and the path.
    """
    documents = []
    for number, entry in enumerate(_rows_with(manifest_path, ("paper_id", "path")), 1):
        doc_path = docs_dir / entry["path"]
        # One stat for a regular file; any other path that exists and is not
        # a directory is read as well.
        if not doc_path.is_file() and (doc_path.is_dir() or not doc_path.exists()):
            problem = "is a directory" if doc_path.is_dir() else "no such document"
            raise InputError(f"{manifest_path}: record {number} ({entry['paper_id']!r}): "
                             f"{problem}: {doc_path}")
        documents.append((entry["paper_id"], doc_path))
    return documents


def _part(digest, data: bytes) -> None:
    """Add `data` to `digest` length-prefixed, so no two sequences of parts collide."""
    digest.update(len(data).to_bytes(8, "big"))
    digest.update(data)


def run_evidence_step(
    manifest_path: str | Path, docs_dir: Path, out_path: str | Path,
    cache_dir: Path | None = None,
) -> int:
    """Extract every figure's evidence from the converted texts; returns the figure count.

    Every manifest row's document is checked before the first is read.
    Each document is then read once and its lines are written as they are
    made, so one document is held at a time.  With a `cache_dir`, each
    document's lines are memoised in the log `<cache_dir>/evidence.jsonl`,
    and a document found there is not extracted.  Its key is the SHA-256
    of the memo format, the Python version, the sources of
    `vismine.evidence` and `vismine.jsonl` (which make the lines), the
    paper id and the document's bytes, each part length-prefixed.
    """
    documents = _manifest_documents(manifest_path, docs_dir)
    memo, sources = None, None
    if cache_dir is not None:
        memo = jsonl_mod.AppendLog(cache_dir / "evidence.jsonl")
        sources = hashlib.sha256(_EVIDENCE_MEMO_FORMAT)
        for part in (sys.version.encode("utf-8"), Path(evidence_mod.__file__).read_bytes(),
                     Path(jsonl_mod.__file__).read_bytes()):
            _part(sources, part)

    def lines() -> Iterator[str]:
        for paper_id, path in documents:
            data = path.read_bytes()
            if memo is None:
                yield evidence_mod.evidence_lines(paper_id, path, data)
                continue
            digest = sources.copy()
            _part(digest, paper_id.encode("utf-8"))
            _part(digest, data)
            key = digest.hexdigest()
            text = memo.get(key)
            if text is None:
                text = evidence_mod.evidence_lines(paper_id, path, data)
                memo.put(key, text)
            yield text

    return write_lines(out_path, lines())


def run_stage2_step(
    config: RunConfig, outputs: dict[str, list[Path]], gateway: Gateway,
) -> tuple[int, Path]:
    """Judge every figure of each stage-1 paper that the config's coded `library` does
    not hold, with the config's stage-2 settings; failed figures go to the retry queue."""
    [verdicts_out] = outputs["stage2"]
    papers = load_corpus_file(outputs["stage1"][0])
    library = load_library(read_jsonl(config.resolve(config.library_path)))
    library_ids = {p.paper_id for p in library}
    table = load_evidence_table(outputs["evidence"][0],
                                {r.paper_id for r in papers} | library_ids)
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
        config.stage2_backend,
        k=config.stage2_k,
        max_figs=config.stage2_max_figs,
        max_workers=config.max_workers,
    )
    write_jsonl(verdicts_out, (v.to_dict() for v in result.verdicts))
    return _write_retry_queue(verdicts_out, ("paper_id", "figure_id", "message"), result.retry)


def run_stage3_step(
    config: RunConfig, outputs: dict[str, list[Path]], gateway: Gateway, vocab: LabelVocabulary,
) -> tuple[int, Path]:
    """Label every figure stage 2 selected, with the config's coded `library` figures as
    exemplars and its stage-3 settings; failed figures go to the retry queue."""
    [labels_out] = outputs["stage3"]
    library = load_library(read_jsonl(config.resolve(config.library_path)))
    selected = []
    for raw in _rows_with(outputs["stage2"][0], ("paper_id", "figure_id")):
        verdict = stage2_mod.verdict_from_dict(raw)
        if verdict.selected:
            selected.append(verdict)
    table = load_evidence_table(
        outputs["evidence"][0], {v.paper_id for v in selected} | {p.paper_id for p in library})
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
        config.stage3_backend,
        k=config.stage3_k,
        per_paper_cap=config.stage3_per_paper_cap,
        max_workers=config.max_workers,
    )
    write_jsonl(labels_out, (l.to_dict() for l in result.labels))
    return _write_retry_queue(labels_out, ("paper_id", "figure_id", "message"), result.retry)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def run_analyze_step(config: RunConfig, outputs: dict[str, list[Path]]) -> None:
    """Write paths, flows, trends and weights from the stage-3 labels and the
    figures of the config's coded `library`, when it names one.

    Papers' metadata comes from the ingested corpus, when ingest has run;
    library papers fill in the rest.
    """
    paths_out, sankey_out, flows_out, trends_out, weights_out = outputs["analyze"]
    labels = [labels_from_dict(raw) for raw in read_jsonl(outputs["stage3"][0])]
    papers: dict[str, corpus_mod.PaperRecord] = {}
    if outputs["ingest"][0].exists():
        for record in load_corpus_file(outputs["ingest"][0]):
            papers[record.paper_id] = record
    if config.library_path is not None:
        for paper in load_library(read_jsonl(config.resolve(config.library_path))):
            papers.setdefault(paper.paper_id, paper.record)
            for figure in paper.coded_figures():
                labels.append(figure.labels)

    usable = [l for l in labels if not l.flags]
    skipped = len(labels) - len(usable)
    if skipped:
        logger.warning("analyze: %d flagged figure(s) excluded from path expansion", skipped)
    paths = analysis_mod.expand_all(usable)
    write_jsonl(paths_out, (p.to_dict() for p in paths))
    write_json(sankey_out, analysis_mod.sankey_export(paths))
    write_json(flows_out, analysis_mod.edge_flows(usable))

    paper_labels = analysis_mod.paper_level_labels(usable, papers)
    trend_rows = []
    weight_rows = []
    for fname in FIELDS:
        for row in analysis_mod.yearly_proportions(paper_labels, fname):
            trend_rows.append([row["year"], row["field"], row["category"],
                               row["papers"], row["carriers"], f"{row['proportion']:.6f}"])
        for row in analysis_mod.weighted_coverage(
            paper_labels, fname, reference_year=config.reference_year
        ):
            share = "" if row["weighted_share"] is None else f"{row['weighted_share']:.6f}"
            weight_rows.append([row["field"], row["category"],
                                f"{row['prevalence']:.6f}", share])
    atomic_write_text(
        trends_out,
        _csv_text(["year", "field", "category", "papers", "carriers", "proportion"], trend_rows),
    )
    atomic_write_text(
        weights_out,
        _csv_text(["field", "category", "prevalence", "weighted_share"], weight_rows),
    )


def run_pipeline(config: RunConfig, stages: list[str] | None = None) -> RunManifest:
    """Run `stages` (all when None) in order on the config's inputs and the files
    earlier steps wrote to `<out_dir>`, and write the run manifest there.

    An unknown stage (`InputError`) or a config that fails `_check_config`
    fails before anything is written; a stage whose upstream outputs are
    missing fails fast, naming the stage to run first.  When papers fail in
    stage 1 or figures in stage 2 or 3, the remaining stages still run and
    the manifest is written; then a `PipelineError` names each retry queue.
    """
    stages = list(stages) if stages is not None else list(STAGES)
    unknown = [s for s in stages if s not in STAGES]
    if unknown:
        raise InputError(f"--stages names unknown stages {unknown}; choose from {','.join(STAGES)}")
    stages.sort(key=STAGES.index)
    _check_config(config, stages)

    out_dir = config.resolve(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = stage_outputs(out_dir)
    manifest = RunManifest(config_hash=_config_hash(config))
    needs_gateway = any(s in stages for s in ("stage1", "stage2", "stage3"))
    gateway = build_gateway(config) if needs_gateway else None
    # Read before the first stage, so a bad vocabulary file costs no backend call.
    vocab = config_vocabulary(config) if "stage3" in stages else None
    failed: list[str] = []
    # Each output's hash, taken once when its stage writes it: a later
    # stage reading it as input reuses the hash instead of reading it again.
    written: dict[str, str] = {}

    for stage in stages:
        # A requested upstream stage ran earlier in this loop.
        require_outputs(stage, [up for up in UPSTREAM.get(stage, ()) if up not in stages],
                        outputs)
        inputs = {
            str(p): written.get(str(p)) or file_sha256(p)
            for up in UPSTREAM.get(stage, ())
            for p in outputs[up]
            if p.exists()
        }
        started = time.time()
        queued, queue = 0, None
        if stage == "ingest":
            run_ingest(config, outputs)
        elif stage == "stage1":
            queued, queue = run_stage1_step(config, outputs, gateway)
        elif stage == "evidence":
            run_evidence_step(config.resolve(config.docs_manifest_path),
                              config.resolve(config.docs_dir), outputs["evidence"][0],
                              config.resolve(config.cache_dir))
        elif stage == "stage2":
            queued, queue = run_stage2_step(config, outputs, gateway)
        elif stage == "stage3":
            queued, queue = run_stage3_step(config, outputs, gateway, vocab)
        elif stage == "analyze":
            run_analyze_step(config, outputs)
        if queued:
            failed.append(f"{queued} {'paper' if stage == 'stage1' else 'figure'}(s) in {queue}")
        produced = {str(p): file_sha256(p) for p in outputs[stage] if p.exists()}
        written.update(produced)
        manifest.stages[stage] = {
            "inputs": inputs,
            "outputs": produced,
            "started": started,
            "finished": time.time(),
        }
    if gateway is not None:
        manifest.gateway = gateway.stats.to_dict()
    write_json(out_dir / "manifest.json", manifest.to_dict())
    if failed:
        raise PipelineError(f"items failed and were queued for retry: {'; '.join(failed)}")
    return manifest


def run_eval(config: RunConfig, stages: Sequence[int], out_path: str | Path) -> eval_mod.LooReport:
    """Score eval `stages` (of 1-3) leave-one-out on what `vismine run` reads; write the report.

    Stage 1's pool is `load_pool` of the config's `pool` and
    `<out_dir>/corpus.jsonl`, as `run_stage1_step` builds it; stages 2 and 3
    read the config's `library` and `<out_dir>/evidence.jsonl`.  Each stage
    is scored zero-shot and with its configured `k`.  A missing ingest or
    evidence output fails before any backend call, naming the stage to run.
    """
    names = [f"stage{stage}" for stage in stages]
    _check_config(config, names)
    outputs = stage_outputs(config.resolve(config.out_dir))
    for name in names:
        require_outputs(name, EVAL_UPSTREAM[name], outputs)
    pool, coded, table = None, None, {}
    if 1 in stages:
        pool = load_pool(config.resolve(config.pool_path), load_corpus_file(outputs["ingest"][0]))
    if 2 in stages or 3 in stages:
        coded = load_library(read_jsonl(config.resolve(config.library_path)))
        table = load_evidence_table(outputs["evidence"][0], {p.paper_id for p in coded})
    report = eval_mod.run_loo(
        pool=pool, coded=coded, stages=stages,
        evidence_lookup=lambda paper_id, figure_id: table.get((paper_id, figure_id)),
        # Read before stage 1 runs, so a bad vocabulary file costs no backend call.
        vocab=config_vocabulary(config) if 3 in stages else None,
        gateway=build_gateway(config),
        stage1_backends=config.stage1_backends, figure_backend=config.stage2_backend,
        stage1_shots=(0, config.stage1_k), stage2_shots=(0, config.stage2_k),
        stage3_shots=(0, config.stage3_k),
        stage1_k=config.stage1_k, stage1_min_pos=config.stage1_min_pos,
        stage1_min_neg=config.stage1_min_neg, stage3_backend=config.stage3_backend,
        stage3_per_paper_cap=config.stage3_per_paper_cap, max_workers=config.max_workers,
    )
    write_json(out_path, report.to_dict())
    return report
