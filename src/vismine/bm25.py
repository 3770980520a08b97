"""Okapi BM25 ranking over an in-memory inverted index.

Every retrieval step in the pipeline (paper screening neighbors, figure
exemplar sampling, figure-level label retrieval) goes through this module,
so scoring stays deterministic and auditable: fixed parameters, a
nonnegative IDF, and doc-id tie-breaking.

Queries are evaluated term at a time (Turtle & Flood 1995): `top_k` and
`rank_all` walk the postings of each query token in query order and add
that term's contribution to one score accumulator, so a query costs the
total length of its terms' posting lists rather than one `score()` call
per document.  The corpus statistics are computed once per index
(Robertson & Zaragoza 2009): the average document length at build time,
each term's IDF on first use.  Every addition uses the same expression,
in the same per-document order, as the doc-at-a-time `score()`, so the
accumulated scores equal `score()` bit for bit and rankings are exact.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import RetrievalError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# Unicode-aware alphanumeric runs (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str, stopwords: frozenset[str] = frozenset()) -> list[str]:
    """Lowercase and split on non-alphanumeric boundaries.

    Single-character tokens are dropped. No stemming; stopword removal is
    off unless a set is passed explicitly.
    """
    tokens = [t for t in _TOKEN_RE.findall(text.lower()) if len(t) > 1]
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


@dataclass(frozen=True)
class TokenizedDoc:
    doc_id: str
    tokens: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.tokens)


class Bm25Index:
    """Immutable-after-build index: postings, lengths, corpus stats."""

    def __init__(self, docs: Sequence[TokenizedDoc]):
        self._doc_lengths: dict[str, int] = {}
        self._postings: dict[str, dict[str, int]] = {}
        for doc in docs:
            if doc.doc_id in self._doc_lengths:
                raise RetrievalError(f"duplicate doc_id: {doc.doc_id!r}")
            self._doc_lengths[doc.doc_id] = doc.length
            counts = Counter(doc.tokens)
            if "" in counts:
                raise RetrievalError(f"empty token in doc {doc.doc_id!r}")
            for token, tf in counts.items():
                self._postings.setdefault(token, {})[doc.doc_id] = tf
        self._avg_doc_length = (
            sum(self._doc_lengths.values()) / len(self._doc_lengths)
            if self._doc_lengths else 0.0
        )
        # Filled on first use, so an index built per LOO fold pays only for
        # the terms its queries touch, not for the whole vocabulary.
        self._idf: dict[str, float] = {}

    @property
    def doc_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def avg_doc_length(self) -> float:
        return self._avg_doc_length

    @property
    def doc_ids(self) -> list[str]:
        return sorted(self._doc_lengths)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    def doc_length(self, doc_id: str) -> int:
        if doc_id not in self._doc_lengths:
            raise RetrievalError(f"unknown doc_id: {doc_id!r}")
        return self._doc_lengths[doc_id]

    def document_frequency(self, term: str) -> int:
        return len(self._postings.get(term, {}))

    def term_frequency(self, term: str, doc_id: str) -> int:
        return self._postings.get(term, {}).get(doc_id, 0)

    def _term_idf(self, term: str) -> float:
        value = self._idf.get(term)
        if value is None:
            value = self._idf[term] = idf(self, term)
        return value

    def _accumulate(self, query_tokens: Sequence[str], k1: float, b: float) -> dict[str, float]:
        """Score of every document sharing a term with the query.

        Walks the query tokens in order, repetitions included, and adds each
        term's contribution to the documents in its posting list.  Each
        addition is `score()`'s expression in `score()`'s per-document
        order, so every value equals `score(self, query_tokens, doc_id)`
        exactly; documents sharing no term are absent (score 0.0).
        """
        scores: dict[str, float] = {}
        avgdl = self._avg_doc_length
        if avgdl == 0.0:
            return scores
        lengths = self._doc_lengths
        for term in query_tokens:
            posting = self._postings.get(term)
            if posting is None:
                continue
            term_idf = self._term_idf(term)
            for doc_id, tf in posting.items():
                norm = tf + k1 * (1.0 - b + b * lengths[doc_id] / avgdl)
                scores[doc_id] = scores.get(doc_id, 0.0) + term_idf * tf * (k1 + 1.0) / norm
        return scores

    def dump(self) -> dict:
        """JSON-friendly snapshot for debugging."""
        return {
            "doc_count": self.doc_count,
            "avg_doc_length": self.avg_doc_length,
            "doc_lengths": dict(sorted(self._doc_lengths.items())),
            "postings": {
                term: dict(sorted(posting.items()))
                for term, posting in sorted(self._postings.items())
            },
        }


def build_index(docs: Iterable[TokenizedDoc]) -> Bm25Index:
    return Bm25Index(list(docs))


def idf(index: Bm25Index, term: str) -> float:
    """log((N - df + 0.5) / (df + 0.5) + 1); never negative."""
    df = index.document_frequency(term)
    value = math.log((index.doc_count - df + 0.5) / (df + 0.5) + 1.0)
    return max(0.0, value)


def score(
    index: Bm25Index,
    query_tokens: Sequence[str],
    doc_id: str,
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> float:
    """BM25 score of one document against a query token list.

    Query tokens are consumed with multiplicity, so a term repeated in the
    query contributes once per repetition (this is what makes caption
    repetition upweight caption terms on the query side too).
    """
    if doc_id not in index:
        raise RetrievalError(f"unknown doc_id: {doc_id!r}")
    if index.avg_doc_length == 0.0:
        return 0.0
    doc_len = index.doc_length(doc_id)
    total = 0.0
    for term in query_tokens:
        tf = index.term_frequency(term, doc_id)
        if tf == 0:
            continue
        norm = tf + k1 * (1.0 - b + b * doc_len / index.avg_doc_length)
        total += idf(index, term) * tf * (k1 + 1.0) / norm
    return total


def _rank_key(pair: tuple[str, float]) -> tuple[float, str]:
    return (-pair[1], pair[0])


def top_k(
    index: Bm25Index,
    query_tokens: Sequence[str],
    k: int,
    exclude: frozenset[str] | set[str] = frozenset(),
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> list[str]:
    """Up to k doc ids by descending score; ties by ascending doc_id.

    Zero-score documents are omitted, so fewer than k results is normal.
    """
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    scores = index._accumulate(query_tokens, k1, b)
    ranked = sorted(
        (pair for pair in scores.items() if pair[1] > 0.0 and pair[0] not in exclude),
        key=_rank_key,
    )
    return [doc_id for doc_id, _ in ranked[:k]]


def rank_all(
    index: Bm25Index,
    query_tokens: Sequence[str],
    exclude: frozenset[str] | set[str] = frozenset(),
    k1: float = DEFAULT_K1,
    b: float = DEFAULT_B,
) -> list[tuple[str, float]]:
    """Every indexed document ranked, zero scores included.

    Used where a full ordering is needed (class-balanced exemplar picking
    must be able to reach past the zero-score frontier).
    """
    scores = index._accumulate(query_tokens, k1, b)
    ranked = [
        (doc_id, scores.get(doc_id, 0.0))
        for doc_id in index._doc_lengths
        if doc_id not in exclude
    ]
    ranked.sort(key=_rank_key)
    return ranked
