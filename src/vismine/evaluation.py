"""Leave-one-out evaluation harness and score arithmetic.

Counts are aggregated across folds before any ratio is taken, so every
reported score is derivable from its own count row. Undefined denominators
yield 0.0 with a flag instead of failing, letting partially failed runs
still report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from . import bm25
from .corpus import LabeledPool, NEGATIVE, POSITIVE
from .errors import EvaluationError, StageError
from .gateway import Gateway, map_items
from .library import CodedPaper
from .stage1 import (
    DEFAULT_K, DEFAULT_MIN_NEG, DEFAULT_MIN_POS, FewShotContext, build_fewshot_context, paper_doc,
    screen_paper,
)
from .stage2 import EvidenceLookup, judge_paper_figures
from .stage3 import (
    DEFAULT_PER_PAPER_CAP, coded_figure_entries, figure_docs, figure_tokens, index_figures,
    label_figure,
)
from .vocab import FIELDS, LabelVocabulary


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int | None = 0

    def add(self, other: "ConfusionCounts") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn
        if self.tn is None or other.tn is None:
            self.tn = None
        else:
            self.tn += other.tn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def precision(counts: ConfusionCounts) -> float:
    denominator = counts.tp + counts.fp
    return counts.tp / denominator if denominator else 0.0


def recall(counts: ConfusionCounts) -> float:
    denominator = counts.tp + counts.fn
    return counts.tp / denominator if denominator else 0.0


def f1(counts: ConfusionCounts) -> float:
    denominator = 2 * counts.tp + counts.fp + counts.fn
    return 2 * counts.tp / denominator if denominator else 0.0


def metric_defined(counts: ConfusionCounts, metric: str) -> bool:
    if metric == "precision":
        return counts.tp + counts.fp > 0
    if metric == "recall":
        return counts.tp + counts.fn > 0
    if metric in ("f1", "micro_f1"):
        return 2 * counts.tp + counts.fp + counts.fn > 0
    raise EvaluationError(f"unknown metric {metric!r}")


def sum_counts(counts_list: Iterable[ConfusionCounts]) -> ConfusionCounts:
    total = ConfusionCounts()
    for counts in counts_list:
        total.add(counts)
    return total


def multilabel_counts(
    truth: Iterable[str],
    predicted: Iterable[str],
    vocabulary: Iterable[str],
) -> ConfusionCounts:
    """Set arithmetic per figure: TP=|Y∩Ŷ|, FP=|Ŷ∖Y|, FN=|Y∖Ŷ|."""
    valid = set(vocabulary)
    truth_set = set(truth)
    predicted_set = set(predicted)
    outside = (truth_set | predicted_set) - valid
    if outside:
        raise EvaluationError(f"values outside vocabulary: {sorted(outside)}")
    return ConfusionCounts(
        tp=len(truth_set & predicted_set),
        fp=len(predicted_set - truth_set),
        fn=len(truth_set - predicted_set),
        tn=None,
    )


def micro_f1(counts_list: Sequence[ConfusionCounts]) -> float:
    """F1 of the summed counts (sum first, divide once)."""
    if not counts_list:
        raise EvaluationError("micro_f1 needs at least one count record")
    return f1(sum_counts(counts_list))


def _majority_label(pool: LabeledPool, neighbors: Sequence[str]) -> str:
    """Majority pool label among `neighbors`; ties resolve positive."""
    votes = [pool.label_of(n) for n in neighbors]
    positive_votes = sum(1 for v in votes if v == POSITIVE)
    negative_votes = sum(1 for v in votes if v == NEGATIVE)
    return POSITIVE if positive_votes >= negative_votes else NEGATIVE


@dataclass
class FoldLog:
    stage: str
    method: str
    held_out: str
    neighbors: list[str] = field(default_factory=list)
    exemplars: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "method": self.method,
            "held_out": self.held_out,
            "neighbors": list(self.neighbors),
            "exemplars": list(self.exemplars),
        }


@dataclass
class ReportRow:
    stage: str
    method: str
    model: str
    target: str
    counts: ConfusionCounts
    metric: str

    @property
    def score(self) -> float:
        if self.metric == "precision":
            return precision(self.counts)
        if self.metric in ("f1", "micro_f1"):
            return f1(self.counts)
        raise EvaluationError(f"unknown metric {self.metric!r}")

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "method": self.method,
            "model": self.model,
            "target": self.target,
            **self.counts.to_dict(),
            "metric": self.metric,
            "score": self.score,
            "flagged": not metric_defined(self.counts, self.metric),
        }


@dataclass
class LooReport:
    rows: list[ReportRow] = field(default_factory=list)
    folds: list[FoldLog] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    fold_counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rows": [r.to_dict() for r in self.rows],
            "folds": [f.to_dict() for f in self.folds],
            "errors": list(self.errors),
            "fold_counts": dict(self.fold_counts),
        }


def find_leakage(report: LooReport) -> list[str]:
    """Fold-log occurrences of the held-out paper; empty means clean."""
    violations = []
    for fold in report.folds:
        if fold.held_out in fold.neighbors:
            violations.append(
                f"{fold.stage}/{fold.method}: {fold.held_out} in retrieval results"
            )
        for exemplar in fold.exemplars:
            paper_id = exemplar.split("::", 1)[0]
            if paper_id == fold.held_out:
                violations.append(
                    f"{fold.stage}/{fold.method}: {fold.held_out} in exemplar set"
                )
    return violations


def _binary_counts(gold_positive: bool, predicted_positive: bool, track_tn: bool) -> ConfusionCounts:
    counts = ConfusionCounts(tn=0 if track_tn else None)
    if gold_positive and predicted_positive:
        counts.tp = 1
    elif gold_positive:
        counts.fn = 1
    elif predicted_positive:
        counts.fp = 1
    elif track_tn:
        counts.tn = 1
    return counts


def _with_evidence(paper_id: str, figures: Iterable, evidence_lookup: EvidenceLookup) -> list:
    """`(figure, evidence)` of each of `figures` that has evidence."""
    pairs = ((figure, evidence_lookup(paper_id, figure.figure_id)) for figure in figures)
    return [(figure, evidence) for figure, evidence in pairs if evidence is not None]


def _run_folds(
    stage: str,
    folds: Sequence,
    score_fold: Callable,
    build_rows: Callable[[dict], list[ReportRow]],
    report: LooReport | None,
    max_workers: int,
) -> LooReport:
    """Score `folds` on `max_workers` threads and add them to `report`.

    `score_fold` returns a fold's `FoldLog`s, error lines and
    `(aggregate key, counts)` pairs, or None when the fold has nothing to
    score and is not counted. Logs and errors are appended in fold order,
    counts are summed per key in the order keys first appear, and
    `build_rows` turns those sums into the stage's rows.
    """
    report = report if report is not None else LooReport()
    aggregates: dict = {}
    scored = [s for s in map_items(score_fold, folds, max_workers) if s is not None]
    for logs, errors, counts in scored:
        report.folds.extend(logs)
        report.errors.extend(errors)
        for key, fold_counts in counts:
            aggregates.setdefault(key, ConfusionCounts()).add(fold_counts)
    report.rows.extend(build_rows(aggregates))
    report.fold_counts[stage] = len(scored)
    return report


def run_stage1_loo(
    pool: LabeledPool,
    gateway: Gateway,
    backend_ids: Sequence[str],
    shots: Sequence[int] = (0, 6),
    baseline_k: int = DEFAULT_K,
    min_pos: int = DEFAULT_MIN_POS,
    min_neg: int = DEFAULT_MIN_NEG,
    report: LooReport | None = None,
    max_workers: int = 1,
) -> LooReport:
    """One fold per pool paper: baseline plus each shots setting."""
    if len(pool.records) < 2:
        raise EvaluationError("stage 1 LOO needs at least two labeled papers")
    if baseline_k < 1:
        raise EvaluationError(f"baseline_k must be >= 1, got {baseline_k}")
    # Each paper is tokenized once per run; a fold's index is built from
    # the other papers' documents, so the held-out paper never enters its
    # N, df or average length, and its query is its own document's tokens.
    docs = [paper_doc(r) for r in pool.records]

    def score_fold(fold):
        target, target_doc = fold
        rest = pool.without(target.paper_id)
        rest_index = bm25.build_index(d for d in docs if d is not target_doc)
        ranked = bm25.rank_all(rest_index, target_doc.tokens)
        gold_positive = target.label == POSITIVE

        # Scores are never negative, so this is `top_k`'s result.
        neighbors = [doc_id for doc_id, score in ranked[:baseline_k] if score > 0.0]
        baseline_positive = _majority_label(rest, neighbors) == POSITIVE
        logs = [FoldLog(stage="stage1", method="majority_vote", held_out=target.paper_id,
                        neighbors=neighbors)]
        errors = []
        counts = [(("majority_vote", "bm25"),
                   _binary_counts(gold_positive, baseline_positive, True))]
        for shot in shots:
            method = f"{shot}-shot"
            if shot == 0:
                context = FewShotContext(exemplars=())
            else:
                try:
                    context = build_fewshot_context(
                        target, rest, ranked, k=shot, min_pos=min_pos, min_neg=min_neg
                    )
                except StageError as exc:
                    errors.append(f"stage1/{method}/{target.paper_id}: {exc}")
                    continue
            decision = screen_paper(target, context, gateway, backend_ids)
            counts += [((method, verdict.backend_id),
                        _binary_counts(gold_positive, verdict.decision, True))
                       for verdict in decision.verdicts]
            logs.append(FoldLog(stage="stage1", method=method, held_out=target.paper_id,
                                exemplars=list(context.exemplar_ids)))
            if decision.error:
                errors.append(f"stage1/{method}/{target.paper_id}: {decision.error}")
            elif len(backend_ids) > 1:
                counts.append(((method, "consensus"),
                               _binary_counts(gold_positive, decision.decision == POSITIVE, True)))
        return logs, errors, counts

    target = f"manually classified {len(pool.records)} papers"
    return _run_folds(
        "stage1", list(zip(pool.records, docs)), score_fold,
        lambda aggregates: [ReportRow("stage1", method, model, target, counts, "precision")
                            for (method, model), counts in aggregates.items()],
        report, max_workers,
    )


def run_stage2_loo(
    coded: Sequence[CodedPaper],
    evidence_lookup: EvidenceLookup,
    gateway: Gateway,
    backend_id: str,
    shots: Sequence[int] = (0, 5),
    report: LooReport | None = None,
    max_workers: int = 1,
) -> LooReport:
    """One fold per coded paper; scored on explicitly labeled figures only."""
    if len(coded) < 2:
        raise EvaluationError("stage 2 LOO needs at least two coded papers")
    # Each paper is tokenized once per run; a fold's index is built from
    # the other papers' documents, in library order.
    docs = [paper_doc(p.record) for p in coded]

    def score_fold(fold):
        target, target_doc = fold
        labeled = _with_evidence(target.paper_id, target.labeled_figures(), evidence_lookup)
        if not labeled:
            return None
        rest = [p for p in coded if p.paper_id != target.paper_id]
        rest_index = bm25.build_index(
            d for p, d in zip(coded, docs) if p.paper_id != target.paper_id
        )
        gold = {evidence.figure_id: bool(figure.relevant) for figure, evidence in labeled}
        logs, errors, counts = [], [], []
        for shot in shots:
            method = f"{shot}-shot"
            verdicts, failed, log = judge_paper_figures(
                target_doc, [evidence for _, evidence in labeled], rest, rest_index,
                evidence_lookup, gateway, backend_id, shot,
            )
            logs.append(FoldLog(stage="stage2", method=method, held_out=target.paper_id,
                                neighbors=log["neighbors"], exemplars=log["exemplars"]))
            errors += [f"stage2/{method}/{paper_id}::{figure_id}: {message}"
                       for paper_id, figure_id, message in failed]
            counts += [(method, _binary_counts(gold[verdict.figure_id], verdict.relevant, False))
                       for verdict in verdicts]
        return logs, errors, counts

    target = f"{len(coded)} labeled papers"
    return _run_folds(
        "stage2", list(zip(coded, docs)), score_fold,
        lambda aggregates: [ReportRow("stage2", method, backend_id, target, counts, "f1")
                            for method, counts in sorted(aggregates.items())],
        report, max_workers,
    )


def run_stage3_loo(
    coded: Sequence[CodedPaper],
    evidence_lookup: EvidenceLookup,
    vocab: LabelVocabulary,
    gateway: Gateway,
    backend_id: str,
    shots: Sequence[int] = (0, 10),
    per_paper_cap: int = DEFAULT_PER_PAPER_CAP,
    report: LooReport | None = None,
    max_workers: int = 1,
) -> LooReport:
    """One fold per coded paper; scored on figures with available labels."""
    if len(coded) < 2:
        raise EvaluationError("stage 3 LOO needs at least two coded papers")
    # Each figure is tokenized once per run; a fold's corpus indexes the
    # other papers' figures, in library order, and a figure's query is its
    # own document's tokens.
    figures = [figure_docs(coded_figure_entries(p, evidence_lookup)) for p in coded]

    def score_fold(fold):
        target, target_figures = fold
        gold_figures = _with_evidence(target.paper_id, target.coded_figures(), evidence_lookup)
        if not gold_figures:
            return None
        corpus = index_figures([
            d for p, paper_figures in zip(coded, figures) if p.paper_id != target.paper_id
            for d in paper_figures
        ])
        queries = {d.evidence.figure_id: d.doc.tokens for d in target_figures}
        for _, evidence in gold_figures:
            if evidence.figure_id not in queries:  # no caption: not a document
                queries[evidence.figure_id] = figure_tokens(evidence)
        logs, errors, counts = [], [], []
        for shot in shots:
            method = f"{shot}-shot"
            for figure, evidence in gold_figures:
                predicted, doc_ids, error = label_figure(
                    evidence, queries[evidence.figure_id], corpus, vocab, gateway, backend_id,
                    shot, per_paper_cap,
                )
                logs.append(FoldLog(stage="stage3", method=method, held_out=target.paper_id,
                                    exemplars=list(doc_ids)))
                if predicted is None:
                    errors.append(f"stage3/{method}/{target.paper_id}::{figure.figure_id}: {error}")
                    continue
                counts += [((method, fname), multilabel_counts(
                    figure.labels.field_values(fname), predicted.field_values(fname),
                    vocab.values(fname),
                )) for fname in FIELDS]
        return logs, errors, counts

    return _run_folds(
        "stage3", list(zip(coded, figures)), score_fold,
        lambda aggregates: [ReportRow("stage3", method, backend_id, fname, counts, "micro_f1")
                            for (method, fname), counts in sorted(aggregates.items())],
        report, max_workers,
    )


def run_loo(
    pool: LabeledPool | None = None,
    coded: Sequence[CodedPaper] | None = None,
    evidence_lookup: EvidenceLookup | None = None,
    vocab: LabelVocabulary | None = None,
    gateway: Gateway | None = None,
    stage1_backends: Sequence[str] = ("primary", "secondary"),
    figure_backend: str = "primary",
    stages: Sequence[int] = (1, 2, 3),
    stage1_shots: Sequence[int] = (0, 6),
    stage2_shots: Sequence[int] = (0, 5),
    stage3_shots: Sequence[int] = (0, 10),
    stage1_k: int = DEFAULT_K,
    stage1_min_pos: int = DEFAULT_MIN_POS,
    stage1_min_neg: int = DEFAULT_MIN_NEG,
    stage3_backend: str | None = None,
    stage3_per_paper_cap: int = DEFAULT_PER_PAPER_CAP,
    max_workers: int = 1,
) -> LooReport:
    """Full leave-one-out report across the requested stages.

    The stage settings are the run config's `stage1.k` (the majority-vote
    neighbour count), `min_pos`, `min_neg`, `stage3.backend`,
    `stage3.per_paper_cap` and `max_workers`, the threads each stage's
    folds run on; stage 3 runs on `figure_backend` when no `stage3_backend`
    is given.
    """
    if gateway is None:
        raise EvaluationError("a gateway is required")
    report = LooReport()
    if 1 in stages:
        if pool is None:
            raise EvaluationError("stage 1 LOO requires a labeled pool")
        run_stage1_loo(
            pool, gateway, stage1_backends, shots=stage1_shots, baseline_k=stage1_k,
            min_pos=stage1_min_pos, min_neg=stage1_min_neg, report=report,
            max_workers=max_workers,
        )
    if 2 in stages:
        if coded is None or evidence_lookup is None:
            raise EvaluationError("stage 2 LOO requires coded papers and evidence")
        run_stage2_loo(
            coded, evidence_lookup, gateway, figure_backend,
            shots=stage2_shots, report=report, max_workers=max_workers,
        )
    if 3 in stages:
        if coded is None or evidence_lookup is None or vocab is None:
            raise EvaluationError("stage 3 LOO requires coded papers, evidence, and vocabulary")
        run_stage3_loo(
            coded, evidence_lookup, vocab, gateway, stage3_backend or figure_backend,
            shots=stage3_shots, per_paper_cap=stage3_per_paper_cap, report=report,
            max_workers=max_workers,
        )
    return report
