"""Okapi BM25 ranking over an in-memory inverted index.

Every retrieval step in the pipeline (paper screening neighbors, figure
exemplar sampling, figure-level label retrieval) goes through this module,
so scoring stays deterministic and auditable: fixed parameters, a
nonnegative IDF, and doc-id tie-breaking.

Building an index costs one step per document, not one per posting: a
`TokenizedDoc` counts its terms once, on first use, and keeps the counts,
so a document that joins many indexes (one per leave-one-out fold) is
counted once.  The index keeps the documents' lengths and counts and the
average length, and posts a term only when a query first asks for it:
every term of the query that the index has not seen yet is posted in one
pass over the documents, in document order, and terms found in no
document are remembered as empty.

Queries are evaluated term at a time (Turtle & Flood 1995): `top_k` and
`rank_all` walk the postings of each query token in query order and add
that term's contribution to one score accumulator, so a query costs the
total length of its terms' posting lists rather than one `score()` call
per document.  A term's contribution to a document,
`idf * tf * (k1 + 1) / norm`, depends only on the index and the fixed
parameters, so it is computed when the term is posted and kept as the
term's list of `(doc_id, contribution)` pairs; every later query adds the
stored values.  Each contribution is `score()`'s expression with
`score()`'s operand order, and each query adds them in `score()`'s
per-document order, repeated query tokens included, so the accumulated
scores equal `score()` bit for bit and rankings are exact.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import RetrievalError

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# Unicode-aware alphanumeric runs (underscore excluded).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric boundaries.

    Single-character tokens are dropped. No stemming and no stopword removal.
    """
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) > 1]


@dataclass(frozen=True)
class TokenizedDoc:
    doc_id: str
    tokens: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.tokens)

    @cached_property
    def counts(self) -> Counter:
        """Occurrences of each term, counted on first use and kept."""
        return Counter(self.tokens)


class Bm25Index:
    """Immutable-after-build index: lengths, term counts, corpus stats.

    Postings are made on demand; see the module docstring.
    """

    def __init__(self, docs: Sequence[TokenizedDoc]):
        self._doc_lengths: dict[str, int] = {}
        self._doc_counts: dict[str, Counter] = {}
        for doc in docs:
            if doc.doc_id in self._doc_lengths:
                raise RetrievalError(f"duplicate doc_id: {doc.doc_id!r}")
            self._doc_lengths[doc.doc_id] = doc.length
            counts = doc.counts
            if "" in counts:
                raise RetrievalError(f"empty token in doc {doc.doc_id!r}")
            self._doc_counts[doc.doc_id] = counts
        self._avg_doc_length = (
            sum(self._doc_lengths.values()) / len(self._doc_lengths)
            if self._doc_lengths else 0.0
        )
        # term -> [(doc_id, contribution)] in document order, one pair per
        # document holding the term, stored when the term is first queried.
        # Each list is complete before it is stored, so threads sharing an
        # index can at worst post the same term twice.
        self._contributions: dict[str, list[tuple[str, float]]] = {}

    @property
    def doc_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def avg_doc_length(self) -> float:
        return self._avg_doc_length

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_lengths

    def doc_length(self, doc_id: str) -> int:
        if doc_id not in self._doc_lengths:
            raise RetrievalError(f"unknown doc_id: {doc_id!r}")
        return self._doc_lengths[doc_id]

    def document_frequency(self, term: str) -> int:
        contributions = self._contributions.get(term)
        if contributions is None:
            self._post({term})
            contributions = self._contributions[term]
        return len(contributions)

    def term_frequency(self, term: str, doc_id: str) -> int:
        return self._doc_counts.get(doc_id, {}).get(term, 0)

    def _post(self, terms: set[str]) -> None:
        """Store `score()`'s addend for each of `terms` in each document holding it.

        One pass over the documents, in document order, finds the
        documents holding each term; a document's length normalization,
        `k1 * (1 - b + b * dl / avgdl)`, is computed once for all its terms.
        """
        k1, b = DEFAULT_K1, DEFAULT_B
        avgdl = self._avg_doc_length
        lengths = self._doc_lengths
        postings: dict[str, list[tuple[str, int, float]]] = {term: [] for term in terms}
        for doc_id, counts in self._doc_counts.items():
            shared = counts.keys() & terms
            if shared:
                length_norm = k1 * (1.0 - b + b * lengths[doc_id] / avgdl)
                for term in shared:
                    postings[term].append((doc_id, counts[term], length_norm))
        doc_count = len(lengths)
        for term, posting in postings.items():
            term_idf = _idf(doc_count, len(posting))
            self._contributions[term] = [
                (doc_id, term_idf * tf * (k1 + 1.0) / (tf + length_norm))
                for doc_id, tf, length_norm in posting
            ]

    def _accumulate(self, query_tokens: Sequence[str]) -> dict[str, float]:
        """Score of every document sharing a term with the query.

        Posts the query's unseen terms, then walks the query tokens in
        order, repetitions included, and adds each term's stored
        contributions to the documents holding it, so every value equals
        `score(self, query_tokens, doc_id)` exactly; documents sharing no
        term are absent (score 0.0).
        """
        scores: dict[str, float] = {}
        if self._avg_doc_length == 0.0:
            return scores
        memo = self._contributions
        unseen = {term for term in query_tokens if term not in memo}
        if unseen:
            self._post(unseen)
        get = scores.get
        for term in query_tokens:
            for doc_id, contribution in memo[term]:
                scores[doc_id] = get(doc_id, 0.0) + contribution
        return scores

    def dump(self) -> dict:
        """JSON-friendly snapshot for debugging."""
        postings: dict[str, dict[str, int]] = {}
        for doc_id, counts in self._doc_counts.items():
            for term, tf in counts.items():
                postings.setdefault(term, {})[doc_id] = tf
        return {
            "doc_count": self.doc_count,
            "avg_doc_length": self.avg_doc_length,
            "doc_lengths": dict(sorted(self._doc_lengths.items())),
            "postings": {
                term: dict(sorted(posting.items()))
                for term, posting in sorted(postings.items())
            },
        }


def build_index(docs: Iterable[TokenizedDoc]) -> Bm25Index:
    return Bm25Index(list(docs))


def _idf(doc_count: int, df: int) -> float:
    return max(0.0, math.log((doc_count - df + 0.5) / (df + 0.5) + 1.0))


def idf(index: Bm25Index, term: str) -> float:
    """log((N - df + 0.5) / (df + 0.5) + 1); never negative."""
    return _idf(index.doc_count, index.document_frequency(term))


def score(index: Bm25Index, query_tokens: Sequence[str], doc_id: str) -> float:
    """BM25 score of one document against a query token list.

    Query tokens are consumed with multiplicity, so a term repeated in the
    query contributes once per repetition (this is what makes caption
    repetition upweight caption terms on the query side too).
    """
    k1, b = DEFAULT_K1, DEFAULT_B
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
) -> list[str]:
    """Up to k doc ids by descending score; ties by ascending doc_id.

    Zero-score documents are omitted, so fewer than k results is normal.
    """
    if k < 1:
        raise RetrievalError(f"k must be >= 1, got {k}")
    scores = index._accumulate(query_tokens)
    ranked = sorted(
        (pair for pair in scores.items() if pair[1] > 0.0 and pair[0] not in exclude),
        key=_rank_key,
    )
    return [doc_id for doc_id, _ in ranked[:k]]


def rank_all(
    index: Bm25Index,
    query_tokens: Sequence[str],
    exclude: frozenset[str] | set[str] = frozenset(),
) -> list[tuple[str, float]]:
    """Every indexed document ranked, zero scores included.

    Used where a full ordering is needed (class-balanced exemplar picking
    must be able to reach past the zero-score frontier).
    """
    scores = index._accumulate(query_tokens)
    ranked = [
        (doc_id, scores.get(doc_id, 0.0))
        for doc_id in index._doc_lengths
        if doc_id not in exclude
    ]
    ranked.sort(key=_rank_key)
    return ranked
