"""Publication metadata: ingest, keyword prefiltering, labeled pools."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .errors import CorpusError
from .jsonl import read_object

logger = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"
LABELS = (POSITIVE, NEGATIVE)

# Default screening keywords used to trim the raw candidate pool.
DEFAULT_KEYWORDS = ("model", "learning", "analytics", "analysis")

MIN_YEAR = 1990

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class PaperRecord:
    """One publication's metadata. `label` is None for unlabeled papers."""

    paper_id: str
    title: str
    abstract: str = ""
    author_keywords: tuple[str, ...] = ()
    year: int | None = None
    venue: str = ""
    citation_count: int | None = None
    label: str | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "paper_id": self.paper_id,
            "title": self.title,
            "abstract": self.abstract,
            "author_keywords": list(self.author_keywords),
            "venue": self.venue,
        }
        if self.year is not None:
            out["year"] = self.year
        if self.citation_count is not None:
            out["citation_count"] = self.citation_count
        if self.label is not None:
            out["label"] = self.label
        return out


def record_from_dict(raw: Mapping) -> PaperRecord:
    """A PaperRecord from one JSON object; `paper_id` and `title` are stripped, not empty.

    `paper_id` holds no `::`, so a `paper::figure` id splits at its first `::`.
    """
    record = read_object(PaperRecord, raw, f"record {raw.get('paper_id')!r}:",
                         paper_id="", title="")
    paper_id, title = record.paper_id.strip(), record.title.strip()
    if not paper_id:
        raise CorpusError(f"record missing paper_id: {dict(raw)!r}")
    if "::" in paper_id:
        raise CorpusError(f"record {paper_id!r}: paper_id must not contain '::', "
                          "which joins a paper id and a figure id")
    if not title:
        raise CorpusError(f"record {paper_id!r} missing title")
    if record.year is not None and record.year < MIN_YEAR:
        raise CorpusError(f"record {paper_id!r} has implausible year {record.year}")
    if record.citation_count is not None and record.citation_count < 0:
        raise CorpusError(f"record {paper_id!r} has negative citation_count")
    if record.label is not None and record.label not in LABELS:
        raise CorpusError(f"record {paper_id!r} has unknown label {record.label!r}")
    if (paper_id, title) == (record.paper_id, record.title):
        return record
    return replace(record, paper_id=paper_id, title=title)


@dataclass
class IngestReport:
    total: int = 0
    ingested: int = 0
    dropped_duplicates: int = 0
    duplicate_ids: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "ingested": self.ingested,
            "dropped_duplicates": self.dropped_duplicates,
            "duplicate_ids": list(self.duplicate_ids),
        }


def ingest_metadata(raw_records: Iterable[Mapping]) -> tuple[list[PaperRecord], IngestReport]:
    """Deduplicate by paper_id, keeping the first occurrence.

    A record without a paper_id (or with an otherwise malformed field) is a
    hard error; duplicates are dropped with a warning and counted in the
    report.
    """
    report = IngestReport()
    seen: set[str] = set()
    records: list[PaperRecord] = []
    for raw in raw_records:
        report.total += 1
        record = record_from_dict(raw)
        if record.paper_id in seen:
            logger.warning("duplicate paper_id %r dropped", record.paper_id)
            report.dropped_duplicates += 1
            report.duplicate_ids.append(record.paper_id)
            continue
        seen.add(record.paper_id)
        records.append(record)
    report.ingested = len(records)
    return records, report


def _field_tokens(record: PaperRecord) -> set[str]:
    tokens: set[str] = set()
    for text in (record.title, record.abstract, *record.author_keywords):
        tokens.update(t.lower() for t in _WORD_RE.findall(text))
    return tokens


def keyword_prefilter(
    records: Sequence[PaperRecord],
    keywords: Sequence[str] = DEFAULT_KEYWORDS,
) -> list[PaperRecord]:
    """Keep records carrying at least one keyword as a whole word token.

    Matching is case-insensitive over title, abstract, and author keywords,
    after splitting on non-alphanumeric characters ("remodeling" does not
    match "model").
    """
    if not keywords:
        raise CorpusError("keyword list must not be empty")
    wanted = {k.strip().lower() for k in keywords if k.strip()}
    if not wanted:
        raise CorpusError("keyword list must not be empty")
    return [r for r in records if _field_tokens(r) & wanted]


@dataclass(frozen=True)
class LabeledPool:
    """Binary-labeled subset used as evaluation reference and few-shot pool."""

    records: tuple[PaperRecord, ...]
    positives: tuple[str, ...]
    negatives: tuple[str, ...]

    def __post_init__(self):
        overlap = set(self.positives) & set(self.negatives)
        if overlap:
            raise CorpusError(f"ids labeled both positive and negative: {sorted(overlap)}")
        # Both maps are read inside the few-shot rebalancing loops, so they
        # are built once here rather than on every lookup.
        labels = {**dict.fromkeys(self.positives, POSITIVE),
                  **dict.fromkeys(self.negatives, NEGATIVE)}
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_by_id", {r.paper_id: r for r in self.records})

    @property
    def by_id(self) -> Mapping[str, PaperRecord]:
        """Records by paper id; shared by every caller, so read-only."""
        return self._by_id

    def label_of(self, paper_id: str) -> str | None:
        return self._labels.get(paper_id)

    def without(self, paper_id: str) -> "LabeledPool":
        """Pool with one paper removed (leave-one-out folds)."""
        return LabeledPool(
            records=tuple(r for r in self.records if r.paper_id != paper_id),
            positives=tuple(i for i in self.positives if i != paper_id),
            negatives=tuple(i for i in self.negatives if i != paper_id),
        )


def load_labeled_pool(
    records: Sequence[PaperRecord],
    assignments: Iterable[tuple[str, str]],
) -> LabeledPool:
    """Partition referenced corpus records by binary label.

    Unknown paper ids and conflicting duplicate assignments are hard
    errors; an empty assignment list yields an empty (flagged) pool.
    """
    by_id = {r.paper_id: r for r in records}
    labels: dict[str, str] = {}
    order: list[str] = []
    for paper_id, label in assignments:
        if label not in LABELS:
            raise CorpusError(f"unknown label {label!r} for {paper_id!r}")
        if paper_id not in by_id:
            raise CorpusError(f"label assignment for unknown paper_id {paper_id!r}")
        if paper_id in labels:
            if labels[paper_id] != label:
                raise CorpusError(f"conflicting labels for {paper_id!r}")
            raise CorpusError(f"duplicate label assignment for {paper_id!r}")
        labels[paper_id] = label
        order.append(paper_id)
    if not order:
        logger.warning("empty labeled pool: few-shot retrieval will be impossible")
    pool_records = tuple(replace(by_id[i], label=labels[i]) for i in order)
    return LabeledPool(
        records=pool_records,
        positives=tuple(i for i in order if labels[i] == POSITIVE),
        negatives=tuple(i for i in order if labels[i] == NEGATIVE),
    )
