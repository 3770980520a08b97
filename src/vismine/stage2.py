"""Figure-level relevance detection with the top-3 representative policy.

For each target paper we retrieve similar coded papers, sample labeled
figure exemplars from them, classify every target figure, and keep at most
three representatives aligned to overview / performance / mechanism roles.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from . import bm25
from .errors import AuthenticationError, GatewayError, StageError
from .evidence import FigureEvidence, figure_sort_key
from .gateway import Gateway, PromptRequest, clip_confidence, map_items, verdict_from_payload
from .jsonl import read_object
from .library import CodedPaper
from .prompts import FIGURE_SCHEMA, FIGURE_SYSTEM, IRRELEVANT_ANSWER, RELEVANT_ANSWER
from .stage1 import paper_doc

logger = logging.getLogger(__name__)

DEFAULT_K = 5
DEFAULT_MAX_FIGS = 3
ROLES = ("overview", "performance", "mechanism")

EXEMPLARS_PER_CLASS_PER_PAPER = 2
EXEMPLAR_CAP = 8

EvidenceLookup = Callable[[str, str], FigureEvidence | None]


@dataclass(frozen=True)
class RelevanceVerdict:
    paper_id: str
    figure_id: str
    relevant: bool
    confidence: float
    evidence: str
    role: str | None = None
    selected: bool = False

    def to_dict(self) -> dict:
        return dict(vars(self))


def verdict_from_dict(raw: Mapping) -> RelevanceVerdict:
    """A RelevanceVerdict from one JSON object; its confidence is clipped to [0, 1]."""
    verdict = read_object(RelevanceVerdict, raw, f"record {raw.get('paper_id')!r}:",
                          relevant=False, confidence=0.0, evidence="")
    if 0.0 <= verdict.confidence <= 1.0:
        return verdict
    return replace(verdict, confidence=clip_confidence(verdict.confidence))


@dataclass(frozen=True)
class FigureExemplarSet:
    """(evidence, relevant) of each exemplar figure, in prompt order: positives first."""

    pairs: tuple[tuple[FigureEvidence, bool], ...] = ()

    @property
    def exemplar_ids(self) -> tuple[str, ...]:
        return tuple(f"{ev.paper_id}::{ev.figure_id}" for ev, _ in self.pairs)


def library_index(library: Sequence[CodedPaper]) -> bm25.Bm25Index:
    return bm25.build_index(paper_doc(p.record) for p in library)


def retrieve_neighbor_papers(
    target: bm25.TokenizedDoc,
    index: bm25.Bm25Index,
    k: int = DEFAULT_K,
) -> list[str]:
    """Up to k similar coded papers by title+abstract BM25; target excluded.

    `target` is the paper's `paper_doc`; `index` holds the library's
    papers, as `library_index` builds it.
    """
    if not index.doc_count:
        raise StageError("empty coded-paper library")
    return bm25.top_k(index, target.tokens, k, exclude={target.doc_id})


def sample_exemplars(
    neighbor_ids: Sequence[str],
    library: Sequence[CodedPaper],
    evidence_lookup: EvidenceLookup,
) -> FigureExemplarSet:
    """Positive and negative figure exemplars drawn from neighbor papers.

    Figures are taken in neighbor rank order, then figure order, up to
    EXEMPLARS_PER_CLASS_PER_PAPER per paper each way and EXEMPLAR_CAP in
    total, and the positives go first. Figures without an explicit
    relevance flag or without extracted evidence are skipped.
    """
    by_id = {p.paper_id: p for p in library}
    pairs: list[tuple[FigureEvidence, bool]] = []
    for neighbor_id in neighbor_ids:
        paper = by_id.get(neighbor_id)
        if paper is None:
            continue
        taken = {True: 0, False: 0}
        for figure in sorted(paper.labeled_figures(), key=lambda f: figure_sort_key(f.figure_id)):
            if len(pairs) >= EXEMPLAR_CAP:
                break
            if taken[figure.relevant] >= EXEMPLARS_PER_CLASS_PER_PAPER:
                continue
            evidence = evidence_lookup(neighbor_id, figure.figure_id)
            if evidence is None:
                logger.warning(
                    "no evidence for library figure %s::%s; skipped as exemplar",
                    neighbor_id, figure.figure_id,
                )
                continue
            taken[figure.relevant] += 1
            pairs.append((evidence, figure.relevant))
    # `sorted` is stable: positives first, each class in the order it was taken.
    return FigureExemplarSet(tuple(sorted(pairs, key=lambda pair: not pair[1])))


def figure_request(evidence: FigureEvidence, exemplars: FigureExemplarSet) -> PromptRequest:
    pairs = tuple(
        (ev.assembled_evidence, RELEVANT_ANSWER if label else IRRELEVANT_ANSWER)
        for ev, label in exemplars.pairs
    )
    return PromptRequest(
        system=FIGURE_SYSTEM,
        exemplars=pairs,
        target=evidence.assembled_evidence,
        schema_id=FIGURE_SCHEMA,
    )


def classify_figure(
    evidence: FigureEvidence,
    exemplars: FigureExemplarSet,
    gateway: Gateway,
    backend_id: str,
) -> RelevanceVerdict:
    """One verdict per figure; malformed responses fall back to negative."""
    if not evidence.assembled_evidence.strip():
        raise StageError(f"empty evidence for {evidence.paper_id}::{evidence.figure_id}")
    request = figure_request(evidence, exemplars)
    payload, _ = gateway.complete(backend_id, request)
    verdict = verdict_from_payload(payload, backend_id)
    role = (payload or {}).get("role")
    if role not in ROLES:
        role = None
    return RelevanceVerdict(
        paper_id=evidence.paper_id,
        figure_id=evidence.figure_id,
        relevant=verdict.decision,
        confidence=verdict.confidence,
        evidence=verdict.evidence,
        role=role,
    )


def select_representatives(
    verdicts: Sequence[RelevanceVerdict],
    max_figs: int = DEFAULT_MAX_FIGS,
) -> list[RelevanceVerdict]:
    """At most max_figs relevant figures: one per role, then by confidence.

    Ties in confidence break by figure order. Output is in figure order.
    Papers with no relevant figure yield an empty selection.
    """
    papers = {v.paper_id for v in verdicts}
    if len(papers) > 1:
        raise StageError(f"verdicts span multiple papers: {sorted(papers)}")
    relevant = [v for v in verdicts if v.relevant]
    chosen: list[RelevanceVerdict] = []
    for role in ROLES:
        if len(chosen) >= max_figs:
            break
        candidates = [v for v in relevant if v.role == role and v not in chosen]
        if candidates:
            candidates.sort(key=lambda v: (-v.confidence, figure_sort_key(v.figure_id)))
            chosen.append(candidates[0])
    remaining = [v for v in relevant if v not in chosen]
    remaining.sort(key=lambda v: (-v.confidence, figure_sort_key(v.figure_id)))
    chosen.extend(remaining[: max_figs - len(chosen)])
    chosen.sort(key=lambda v: figure_sort_key(v.figure_id))
    return [replace(v, selected=True) for v in chosen]


def judge_paper_figures(
    target: bm25.TokenizedDoc, figures: Sequence[FigureEvidence], library: Sequence[CodedPaper],
    index: bm25.Bm25Index, evidence_lookup: EvidenceLookup, gateway: Gateway,
    backend_id: str, k: int,
) -> tuple[list[RelevanceVerdict], list[tuple[str, str, str]], dict]:
    """Verdicts, failures and neighbour/exemplar log of one paper's figures.

    `target` is the paper's `paper_doc`. Exemplars come from the k nearest
    library papers; none when k is 0. A figure with empty evidence, or
    whose backend call raises a `GatewayError` other than
    `AuthenticationError`, fails alone as (paper_id, figure_id, message).
    """
    neighbors = retrieve_neighbor_papers(target, index, k=k) if k else []
    exemplars = sample_exemplars(neighbors, library, evidence_lookup)
    verdicts: list[RelevanceVerdict] = []
    failed: list[tuple[str, str, str]] = []
    for evidence in figures:
        try:
            verdicts.append(classify_figure(evidence, exemplars, gateway, backend_id))
        except AuthenticationError:
            raise
        except (GatewayError, StageError) as exc:
            logger.warning("figure %s::%s failed: %s", evidence.paper_id, evidence.figure_id, exc)
            failed.append((evidence.paper_id, evidence.figure_id, str(exc)))
    log = {"neighbors": list(neighbors), "exemplars": list(exemplars.exemplar_ids)}
    return verdicts, failed, log


@dataclass
class Stage2Result:
    verdicts: list[RelevanceVerdict] = field(default_factory=list)
    retry: list[tuple[str, str, str]] = field(default_factory=list)


def run_stage2(
    targets: Sequence[tuple[object, Sequence[FigureEvidence]]],
    library: Sequence[CodedPaper],
    evidence_lookup: EvidenceLookup,
    gateway: Gateway,
    backend_id: str,
    k: int = DEFAULT_K,
    max_figs: int = DEFAULT_MAX_FIGS,
    max_workers: int = 1,
) -> Stage2Result:
    """Classify every figure of every target paper and pick representatives.

    Role tags survive only on selected figures; every successfully
    classified figure appears exactly once in the output, and failures go
    to the retry queue as (paper_id, figure_id, message) instead of being
    dropped silently.
    """
    index = library_index(library)

    def process(entry):
        record, figures = entry
        return judge_paper_figures(
            paper_doc(record), figures, library, index, evidence_lookup, gateway, backend_id, k
        )

    processed = map_items(process, targets, max_workers)

    result = Stage2Result()
    for verdicts, failed, _ in processed:
        selected = select_representatives(verdicts, max_figs=max_figs)
        selected_ids = {v.figure_id for v in selected}
        final = [
            next(s for s in selected if s.figure_id == v.figure_id)
            if v.figure_id in selected_ids
            else replace(v, role=None, selected=False)
            for v in verdicts
        ]
        result.verdicts.extend(final)
        result.retry.extend(failed)
    return result
