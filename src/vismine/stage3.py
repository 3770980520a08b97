"""Four-field framework extraction for selected figures.

Figures are tokenized with their caption repeated three times ahead of the
local context, so caption terms dominate retrieval; `build_figure_corpus`
builds every figure corpus, the step's and each leave-one-out fold's. Raw
model payloads are normalized against the controlled vocabulary, and
sub-figures sharing a base figure are merged (set union for multi-label
fields, strict-majority vote for single-label ones).
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from . import bm25
from .errors import AuthenticationError, GatewayError, StageError
from .evidence import FigureEvidence
from .gateway import Gateway, PromptRequest, clip_confidence, map_items
from .library import CodedPaper
from .prompts import LABELS_SCHEMA, LABELS_SYSTEM
from .stage2 import EvidenceLookup
from .vocab import (
    DATA_TYPE,
    FIELDS,
    FrameworkLabels,
    LabelVocabulary,
    MODEL_LISTENER,
    MULTI_FIELDS,
    OTHER,
    VIS_PURPOSE,
    VIS_TYPE,
)

logger = logging.getLogger(__name__)

DEFAULT_K = 10
DEFAULT_PER_PAPER_CAP = 3
MAX_EVIDENCE_CHARS = 240

CAPTION_REPEATS = 3


def figure_tokens(evidence: FigureEvidence) -> list[str]:
    """Caption tokens three times, then context tokens."""
    caption = bm25.tokenize(evidence.caption)
    context = bm25.tokenize(" ".join(evidence.context))
    return caption * CAPTION_REPEATS + context


@dataclass(frozen=True)
class FigureDoc:
    """A labeled figure as a retrieval document."""

    doc: bm25.TokenizedDoc
    evidence: FigureEvidence
    labels: FrameworkLabels


@dataclass
class FigureCorpus:
    index: bm25.Bm25Index
    figures: dict[str, FigureDoc]  # by document id


def figure_docs(
    entries: Iterable[tuple[FigureEvidence, FrameworkLabels]],
) -> list[FigureDoc]:
    """Tokenize labeled figures for exemplar retrieval.

    A figure without a caption cannot anchor retrieval and is skipped with
    a warning.
    """
    docs: list[FigureDoc] = []
    for evidence, labels in entries:
        if not evidence.caption.strip():
            logger.warning(
                "figure %s::%s has no caption; skipped from figure corpus",
                evidence.paper_id, evidence.figure_id,
            )
            continue
        doc = bm25.TokenizedDoc(doc_id=f"{evidence.paper_id}::{evidence.figure_id}",
                                tokens=tuple(figure_tokens(evidence)))
        docs.append(FigureDoc(doc, evidence, labels))
    return docs


def build_figure_corpus(docs: Sequence[FigureDoc],
                        within: FigureCorpus | None = None) -> FigureCorpus:
    """The figure corpus of the `figure_docs` figures `docs`, in their order.

    With `within`, every figure must be one of `within`'s, and the index
    is built within `within`'s (see `bm25.build_index`).
    """
    return FigureCorpus(
        index=bm25.build_index((d.doc for d in docs),
                               within=None if within is None else within.index),
        figures={d.doc.doc_id: d for d in docs},
    )


def coded_figure_entries(
    paper: CodedPaper, evidence_lookup: EvidenceLookup,
) -> list[tuple[FigureEvidence, FrameworkLabels]]:
    """(evidence, labels) of each coded figure of `paper` whose evidence is known."""
    return [(evidence, figure.labels) for figure in paper.coded_figures()
            if (evidence := evidence_lookup(paper.paper_id, figure.figure_id)) is not None]


def retrieve_similar_figures(
    target: FigureEvidence,
    query_tokens: Sequence[str],
    corpus: FigureCorpus,
    k: int = DEFAULT_K,
    per_paper_cap: int = DEFAULT_PER_PAPER_CAP,
) -> list[str]:
    """Top-k similar figure doc ids with a per-source-paper cap.

    `query_tokens` are `figure_tokens(target)`. The target's own paper
    never supplies a result, and the cap stops one source paper from
    dominating the exemplar slate.
    """
    result: list[str] = []
    per_paper: Counter = Counter()
    for doc_id, score in bm25.rank_all(corpus.index, query_tokens):
        if len(result) >= k or score <= 0.0:  # scores are never negative
            break
        paper_id = corpus.figures[doc_id].evidence.paper_id
        if paper_id == target.paper_id or per_paper[paper_id] >= per_paper_cap:
            continue
        per_paper[paper_id] += 1
        result.append(doc_id)
    return result


def labels_request(
    target: FigureEvidence,
    exemplars: Sequence[tuple[FigureEvidence, FrameworkLabels]],
) -> PromptRequest:
    pairs = tuple(
        (ev.assembled_evidence, gold.payload_json)
        for ev, gold in exemplars
    )
    return PromptRequest(
        system=LABELS_SYSTEM,
        exemplars=pairs,
        target=target.assembled_evidence,
        schema_id=LABELS_SCHEMA,
    )


def extract_labels(
    target: FigureEvidence,
    exemplars: Sequence[tuple[FigureEvidence, FrameworkLabels]],
    gateway: Gateway,
    backend_id: str,
) -> dict:
    """Raw four-field payload from the backend; {} when unparseable."""
    request = labels_request(target, exemplars)
    payload, _ = gateway.complete(backend_id, request)
    if payload is None:
        logger.warning(
            "malformed label payload for %s::%s; normalization will fall back",
            target.paper_id, target.figure_id,
        )
        return {}
    return payload


def _as_values(raw_value) -> list[str]:
    if raw_value is None:
        return []
    if isinstance(raw_value, str):
        return [raw_value]
    if isinstance(raw_value, (list, tuple)):
        return [str(v) for v in raw_value]
    return [str(raw_value)]


def _as_mapping(raw_value) -> Mapping:
    return raw_value if isinstance(raw_value, Mapping) else {}


def normalize_labels(
    raw: Mapping,
    vocab: LabelVocabulary,
    paper_id: str,
    base_figure_id: str,
) -> FrameworkLabels:
    """Map a raw payload onto the controlled vocabulary. Total function.

    Unmatched values fall back to "other" where the field has one; the
    model-listener field has no "other", so unmatched values are dropped
    and logged, and a figure left with no listener is flagged.  A
    `confidences` or `evidence` value that is not a mapping reads as {}.
    """
    normalized: dict[str, tuple[str, ...]] = {}
    for fname in MULTI_FIELDS:
        values: list[str] = []
        for surface in _as_values(raw.get(fname)):
            canonical = vocab.canonical(fname, surface)
            if canonical is not None:
                values.append(canonical)
            elif vocab.has_other(fname):
                values.append(OTHER)
            else:
                logger.warning(
                    "%s/%s: dropped unmatched %s value %r",
                    paper_id, base_figure_id, fname, surface,
                )
        if not values and vocab.has_other(fname):
            values = [OTHER]
        normalized[fname] = vocab.sort_values(fname, values)
    singles: dict[str, str] = {}
    for fname in (VIS_TYPE, VIS_PURPOSE):
        raw_values = _as_values(raw.get(fname))
        canonical = vocab.canonical(fname, raw_values[0]) if raw_values else None
        singles[fname] = canonical if canonical is not None else OTHER

    raw_conf = _as_mapping(raw.get("confidences"))
    raw_evidence = _as_mapping(raw.get("evidence"))
    confidences = {fname: clip_confidence(raw_conf.get(fname)) for fname in FIELDS}
    evidence = {
        fname: str(raw_evidence.get(fname) or "")[:MAX_EVIDENCE_CHARS] for fname in FIELDS
    }
    return FrameworkLabels(
        paper_id=paper_id,
        base_figure_id=base_figure_id,
        listeners=normalized[MODEL_LISTENER],
        data_types=normalized[DATA_TYPE],
        vis_type=singles[VIS_TYPE],
        vis_purpose=singles[VIS_PURPOSE],
        confidences=confidences,
        evidence=evidence,
    )


def _majority(values: Sequence[str]) -> str:
    """Strict majority (> half); anything short of that resolves to other."""
    counts = Counter(values)
    value, count = counts.most_common(1)[0]
    if count * 2 > len(values):
        return value
    return OTHER


def aggregate_subfigures(parts: Sequence[FrameworkLabels], vocab: LabelVocabulary) -> FrameworkLabels:
    """Merge sub-figure labels at base-figure granularity.

    Multi-label fields union; single-label fields need a strict majority,
    otherwise "other". Confidences average; the evidence snippet comes from
    the most confident contributor. Permutation-invariant by construction.
    """
    if not parts:
        raise StageError("aggregate_subfigures needs at least one record")
    base_ids = {(p.paper_id, p.base_figure_id) for p in parts}
    if len(base_ids) > 1:
        raise StageError(f"mixed base figure ids: {sorted(base_ids)}")

    listeners = vocab.sort_values(MODEL_LISTENER, [v for p in parts for v in p.listeners])
    data_types = vocab.sort_values(DATA_TYPE, [v for p in parts for v in p.data_types])
    vis_type = _majority([p.vis_type for p in parts])
    vis_purpose = _majority([p.vis_purpose for p in parts])
    confidences = {
        # Summing in sorted order keeps the mean bit-identical under
        # permutation of the inputs.
        fname: sum(sorted(p.confidences.get(fname, 0.0) for p in parts)) / len(parts)
        for fname in FIELDS
    }
    evidence = {}
    for fname in FIELDS:
        candidates = [
            (p.confidences.get(fname, 0.0), p.evidence.get(fname, "")) for p in parts
        ]
        candidates = [c for c in candidates if c[1]]
        evidence[fname] = max(candidates)[1] if candidates else ""
    paper_id, base_figure_id = next(iter(base_ids))
    return FrameworkLabels(
        paper_id=paper_id,
        base_figure_id=base_figure_id,
        listeners=listeners,
        data_types=data_types,
        vis_type=vis_type,
        vis_purpose=vis_purpose,
        confidences=confidences,
        evidence=evidence,
    )


def label_figure(
    evidence: FigureEvidence, query_tokens: Sequence[str], corpus: FigureCorpus,
    vocab: LabelVocabulary, gateway: Gateway, backend_id: str, k: int, per_paper_cap: int,
) -> tuple[FrameworkLabels | None, list[str], str]:
    """Normalized labels, exemplar doc ids and error message of one figure.

    `query_tokens` are `figure_tokens(evidence)`. Exemplars are other
    papers' figures; none when k is 0. A `GatewayError` other than
    `AuthenticationError` fails this figure alone: no labels.
    """
    doc_ids = retrieve_similar_figures(
        evidence, query_tokens, corpus, k=k, per_paper_cap=per_paper_cap
    ) if k else []
    exemplars = [(corpus.figures[d].evidence, corpus.figures[d].labels) for d in doc_ids]
    try:
        payload = extract_labels(evidence, exemplars, gateway, backend_id)
    except AuthenticationError:
        raise
    except GatewayError as exc:
        logger.warning("figure %s::%s failed: %s", evidence.paper_id, evidence.figure_id, exc)
        return None, doc_ids, str(exc)
    return normalize_labels(payload, vocab, evidence.paper_id, evidence.base_figure_id), doc_ids, ""


@dataclass
class Stage3Result:
    labels: list[FrameworkLabels] = field(default_factory=list)
    retry: list[tuple[str, str, str]] = field(default_factory=list)


def run_stage3(
    targets: Sequence[FigureEvidence],
    corpus: FigureCorpus,
    vocab: LabelVocabulary,
    gateway: Gateway,
    backend_id: str,
    k: int = DEFAULT_K,
    per_paper_cap: int = DEFAULT_PER_PAPER_CAP,
    max_workers: int = 1,
) -> Stage3Result:
    """Label every target figure, then aggregate at base-figure level.

    A figure's own paper never supplies its exemplars.  A figure whose
    labeling fails goes to the retry queue as (paper_id, figure_id, message).
    Output order follows (paper_id, base figure) of the input, so reruns
    are byte-stable.
    """

    def process(evidence: FigureEvidence):
        return label_figure(
            evidence, figure_tokens(evidence), corpus, vocab, gateway, backend_id, k, per_paper_cap
        )

    processed = map_items(process, targets, max_workers)

    result = Stage3Result()
    grouped: dict[tuple[str, str], list[FrameworkLabels]] = {}
    group_order: list[tuple[str, str]] = []
    for evidence, (labels, _, message) in zip(targets, processed):
        if labels is None:
            result.retry.append((evidence.paper_id, evidence.figure_id, message))
            continue
        key = (evidence.paper_id, evidence.base_figure_id)
        if key not in grouped:
            grouped[key] = []
            group_order.append(key)
        grouped[key].append(labels)
    for key in group_order:
        result.labels.append(aggregate_subfigures(grouped[key], vocab))
    return result
