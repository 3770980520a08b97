"""Paper-level screening: class-balanced few-shot retrieval + consensus.

Each unlabeled candidate is screened by every configured backend using the
same retrieved exemplar context; the final call is the strict all-positive
consensus. Papers already carrying a manual label pass through unqueried.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Sequence

from . import bm25
from .corpus import LabeledPool, PaperRecord, POSITIVE, NEGATIVE
from .errors import AuthenticationError, GatewayError, StageError
from .gateway import Gateway, ModelVerdict, PromptRequest, consensus, map_items, verdict_from_payload
from .prompts import SCREEN_SCHEMA, SCREEN_SYSTEM

logger = logging.getLogger(__name__)

DEFAULT_K = 6
DEFAULT_MIN_POS = 2
DEFAULT_MIN_NEG = 2

UNDECIDED = "undecided"


def paper_text(record: PaperRecord) -> str:
    return f"Title: {record.title}\nAbstract: {record.abstract}"


def paper_query_tokens(record: PaperRecord) -> list[str]:
    return bm25.tokenize(f"{record.title} {record.abstract}")


def paper_doc(record: PaperRecord) -> bm25.TokenizedDoc:
    """A paper as a retrieval document: its id and its query tokens."""
    return bm25.TokenizedDoc(doc_id=record.paper_id, tokens=tuple(paper_query_tokens(record)))


def pool_index(pool: LabeledPool) -> bm25.Bm25Index:
    return bm25.build_index(paper_doc(r) for r in pool.records)


@dataclass(frozen=True)
class FewShotContext:
    """Ordered exemplars (by retrieval score) satisfying class minimums."""

    exemplars: tuple[tuple[PaperRecord, str], ...]

    @property
    def exemplar_ids(self) -> tuple[str, ...]:
        return tuple(record.paper_id for record, _ in self.exemplars)


def build_fewshot_context(
    target: PaperRecord,
    pool: LabeledPool,
    ranked: Sequence[tuple[str, float]],
    k: int = DEFAULT_K,
    min_pos: int = DEFAULT_MIN_POS,
    min_neg: int = DEFAULT_MIN_NEG,
) -> FewShotContext:
    """Top-k retrieval neighbors rebalanced to meet class minimums.

    `ranked` is `bm25.rank_all` of `pool`'s papers, as `pool_index` builds
    them, for the target's `paper_query_tokens`.
    When one class is underrepresented, the lowest-ranked members of the
    other class are swapped for the best-ranked missing-class members;
    the survivors keep retrieval-score order. The target itself is always
    excluded, so leave-one-out runs cannot leak it.
    """
    if k < 1:
        raise StageError(f"k must be >= 1, got {k}")
    if min_pos + min_neg > k:
        raise StageError(f"min_pos + min_neg ({min_pos}+{min_neg}) exceeds k={k}")
    if len(pool.positives) < min_pos or len(pool.negatives) < min_neg:
        raise StageError(
            f"pool too small for constraints: {len(pool.positives)} positives / "
            f"{len(pool.negatives)} negatives, need {min_pos}/{min_neg}"
        )
    ranked = [pair for pair in ranked if pair[0] != target.paper_id]
    rank_of = {doc_id: pos for pos, (doc_id, _) in enumerate(ranked)}
    chosen = [doc_id for doc_id, _ in ranked[:k]]

    def count(label: str) -> int:
        return sum(1 for doc_id in chosen if pool.label_of(doc_id) == label)

    for label, minimum, other in ((POSITIVE, min_pos, NEGATIVE), (NEGATIVE, min_neg, POSITIVE)):
        while count(label) < minimum:
            replaceable = [d for d in chosen if pool.label_of(d) == other]
            candidates = [
                doc_id for doc_id, _ in ranked
                if pool.label_of(doc_id) == label and doc_id not in chosen
            ]
            if not replaceable or not candidates:
                raise StageError(f"cannot satisfy class minimum for {label!r}")
            chosen.remove(replaceable[-1])
            chosen.append(candidates[0])
            chosen.sort(key=lambda d: rank_of[d])

    by_id = pool.by_id
    exemplars = tuple((by_id[d], pool.label_of(d)) for d in chosen)
    return FewShotContext(exemplars=exemplars)


def screening_request(target: PaperRecord, context: FewShotContext) -> PromptRequest:
    exemplars = tuple(
        (paper_text(record), json.dumps({"relevant": label == POSITIVE}))
        for record, label in context.exemplars
    )
    return PromptRequest(
        system=SCREEN_SYSTEM,
        exemplars=exemplars,
        target=paper_text(target),
        schema_id=SCREEN_SCHEMA,
    )


@dataclass
class ScreenDecision:
    paper_id: str
    decision: str  # "positive" | "negative" | "undecided"
    source: str  # "consensus" | "manual"
    verdicts: list[ModelVerdict] = field(default_factory=list)
    neighbors: list[str] = field(default_factory=list)
    prompt_hashes: dict[str, str] = field(default_factory=dict)
    error: str = ""

    def to_dict(self) -> dict:
        return {
            "paper_id": self.paper_id,
            "decision": self.decision,
            "source": self.source,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "neighbors": list(self.neighbors),
            "prompt_hashes": dict(self.prompt_hashes),
            "error": self.error,
        }


def screen_paper(
    target: PaperRecord,
    context: FewShotContext,
    gateway: Gateway,
    backend_ids: Sequence[str],
) -> ScreenDecision:
    """Query every backend with the same context and apply consensus.

    A `GatewayError` other than `AuthenticationError` marks the paper
    undecided, keeping its message in `error` and the verdicts and
    `prompt_hashes` (cache keys) of the backends that answered.
    """
    if not backend_ids:
        raise StageError("at least one backend id is required")
    if target.paper_id in context.exemplar_ids:
        raise StageError(f"target {target.paper_id!r} leaked into its own exemplars")
    request = screening_request(target, context)
    decision = ScreenDecision(
        paper_id=target.paper_id,
        decision=UNDECIDED,
        source="consensus",
        neighbors=list(context.exemplar_ids),
    )
    try:
        for backend_id in backend_ids:
            payload, key = gateway.complete(backend_id, request)
            decision.prompt_hashes[backend_id] = key
            decision.verdicts.append(verdict_from_payload(payload, backend_id))
    except AuthenticationError:
        raise
    except GatewayError as exc:
        decision.error = str(exc)
        return decision
    decision.decision = POSITIVE if consensus(decision.verdicts) else NEGATIVE
    return decision


@dataclass
class Stage1Result:
    subset: list[PaperRecord]
    decisions: list[ScreenDecision]
    retry: list[tuple[str, str]]  # (paper_id, message) of each undecided paper


def run_stage1(
    candidates: Sequence[PaperRecord],
    pool: LabeledPool,
    gateway: Gateway,
    backend_ids: Sequence[str],
    k: int = DEFAULT_K,
    min_pos: int = DEFAULT_MIN_POS,
    min_neg: int = DEFAULT_MIN_NEG,
    max_workers: int = 1,
) -> Stage1Result:
    """Screen every candidate; manual pool labels pass through unqueried.

    The returned subset is the union of consensus positives and all manual
    positives, sorted by paper_id so reruns are byte-stable regardless of
    scheduling.  Undecided papers go to the retry queue as
    (paper_id, message), in paper_id order.
    """
    index = pool_index(pool)

    def decide(candidate: PaperRecord) -> ScreenDecision:
        manual = pool.label_of(candidate.paper_id)
        if manual is not None:
            return ScreenDecision(
                paper_id=candidate.paper_id, decision=manual, source="manual"
            )
        ranked = bm25.rank_all(index, paper_query_tokens(candidate))
        context = build_fewshot_context(
            candidate, pool, ranked, k=k, min_pos=min_pos, min_neg=min_neg
        )
        return screen_paper(candidate, context, gateway, backend_ids)

    decisions = map_items(decide, candidates, max_workers)

    positive_ids = {d.paper_id for d in decisions if d.decision == POSITIVE}
    by_id = {c.paper_id: c for c in candidates}
    by_id.update(pool.by_id)
    subset_ids = sorted(positive_ids | set(pool.positives))
    subset = [by_id[i] for i in subset_ids]
    retry = sorted((d.paper_id, d.error) for d in decisions if d.decision == UNDECIDED)
    if retry:
        logger.warning("%d papers undecided after retries: %s", len(retry), [p for p, _ in retry])
    return Stage1Result(subset=subset, decisions=decisions, retry=retry)
