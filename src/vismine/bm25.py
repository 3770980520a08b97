"""Okapi BM25 ranking over an in-memory inverted index.

Every retrieval step in the pipeline (paper screening neighbors, figure
exemplar sampling, figure-level label retrieval) goes through this module,
so scoring stays deterministic and auditable: fixed parameters, a
nonnegative IDF, and doc-id tie-breaking.

A `TokenizedDoc` counts its terms once, on first use, and keeps the
counts, so a document that joins many indexes is counted once.  An index
numbers its documents by position and, when built, makes each term's
postings: the positions of the documents holding it and the term's count
in each, in document order, as two parallel tuples of small ints.

A leave-one-out fold's index is built `within` the index of all the
documents (`build_index(kept, within=full)`).  It makes no postings: it
borrows the full index's, keeps the full index's positions, and computes
only its own document count, average length, length norms and document
frequencies, the full index's df less the left-out documents holding the
term, read from their kept counts.  Its N, avgdl and df are the integers
and floats a rebuild from the kept documents gives, and it ranks only its
own positions, so it ranks exactly as that rebuild does; all of a stage's
folds share one set of postings.

Queries are evaluated term at a time (Turtle & Flood 1995): a term's
contribution to a document, `idf * tf * (k1 + 1) / norm`, depends only on
the index and the fixed parameters, so it is computed when a query first
asks for the term and kept, one value per posting.  `top_k` and
`rank_all` add each query token's contributions, in query order and
repeated tokens included, into one list of scores by position, where a
document sharing no term keeps 0.0.  Each contribution is
`score()`'s expression with `score()`'s operand order, and each document
gets `score()`'s additions in `score()`'s order, so the accumulated scores
equal `score()` bit for bit and rankings are exact.
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
    """Immutable-after-build index: documents, postings, corpus stats.

    Contributions are made on demand; see the module docstring.
    """

    def __init__(self, docs: Sequence[TokenizedDoc], within: Bm25Index | None = None):
        self._docs = docs
        # doc_id -> position; its keys are the doc ids in document order.
        self._position: dict[str, int] = {}
        for pos, doc in enumerate(docs):
            if doc.doc_id in self._position:
                raise RetrievalError(f"duplicate doc_id: {doc.doc_id!r}")
            self._position[doc.doc_id] = pos
        if within is None:
            # The documents the postings number, and their lengths.
            self._source_docs = docs
            self._lengths = [doc.length for doc in docs]
            self._postings = _postings(docs)
            # Each document's position in `_source_docs`.
            self._source_positions: Sequence[int] = range(len(docs))
            self._dropped: dict[str, int] = {}
        else:
            self._source_docs, self._lengths = within._source_docs, within._lengths
            self._postings = within._postings
            self._source_positions = []
            for doc in docs:
                pos = within._position.get(doc.doc_id)
                known = None if pos is None else within._docs[pos]
                if known is not doc and known != doc:
                    raise RetrievalError(
                        f"doc {doc.doc_id!r} is not a document of the index it is built within"
                    )
                self._source_positions.append(within._source_positions[pos])
            left_out = set(range(len(self._source_docs))).difference(self._source_positions)
            self._dropped = _holders(self._source_docs[pos] for pos in left_out)
        lengths = self._lengths
        total = sum(lengths[pos] for pos in self._source_positions)
        self._avg_doc_length = avgdl = total / len(docs) if docs else 0.0
        k1, b = DEFAULT_K1, DEFAULT_B
        # `score()`'s length normalization, `k1 * (1 - b + b * dl / avgdl)`,
        # by the postings' positions; a position this index lacks is never
        # ranked, so its score is never read.
        self._length_norms = [k1 * (1.0 - b + b * dl / avgdl) for dl in lengths] if avgdl else []
        # term -> `score()`'s addend for the term in each document of its
        # postings, in their order, stored when the term is first queried.
        # Each list is complete before it is stored, so threads sharing an
        # index can at worst make the same term twice.
        self._contributions: dict[str, list[float]] = {}

    @property
    def doc_count(self) -> int:
        return len(self._docs)

    @property
    def avg_doc_length(self) -> float:
        return self._avg_doc_length

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._position

    def doc_length(self, doc_id: str) -> int:
        if doc_id not in self._position:
            raise RetrievalError(f"unknown doc_id: {doc_id!r}")
        return self._docs[self._position[doc_id]].length

    def document_frequency(self, term: str) -> int:
        """The postings' document count less those of them this index lacks."""
        positions, _ = self._postings.get(term, _NO_POSTING)
        return len(positions) - self._dropped.get(term, 0)

    def term_frequency(self, term: str, doc_id: str) -> int:
        pos = self._position.get(doc_id)
        return 0 if pos is None else self._docs[pos].counts.get(term, 0)

    def _contribute(
        self, term: str, positions: Sequence[int], counts: Sequence[int],
    ) -> list[float]:
        """`score()`'s addend for `term` in each document of its postings."""
        k1_plus_1, norms = DEFAULT_K1 + 1.0, self._length_norms
        term_idf = _idf(len(self._docs), self.document_frequency(term))
        return [
            term_idf * tf * k1_plus_1 / (tf + norms[pos]) for pos, tf in zip(positions, counts)
        ]

    def _scores(self, query_tokens: Sequence[str]) -> list[float]:
        """Score of each document against `query_tokens`, in document order.

        Walks the query tokens in order, repetitions included, and adds
        each term's contributions, by the postings' positions, to the
        documents holding it, so every value equals
        `score(self, query_tokens, doc_id)` exactly; a document sharing no
        term keeps 0.0.
        """
        if self._avg_doc_length == 0.0:
            return [0.0] * len(self._docs)
        scores = [0.0] * len(self._length_norms)
        postings, memo = self._postings, self._contributions
        for term in query_tokens:
            positions, counts = postings.get(term, _NO_POSTING)
            if not positions:
                continue
            contributions = memo.get(term)
            if contributions is None:
                contributions = memo[term] = self._contribute(term, positions, counts)
            for pos, value in zip(positions, contributions):
                scores[pos] += value
        return [scores[pos] for pos in self._source_positions]

    def dump(self) -> dict:
        """JSON-friendly snapshot for debugging."""
        postings: dict[str, dict[str, int]] = {}
        for doc in self._docs:
            for term, tf in doc.counts.items():
                postings.setdefault(term, {})[doc.doc_id] = tf
        return {
            "doc_count": self.doc_count,
            "avg_doc_length": self.avg_doc_length,
            "doc_lengths": dict(sorted((doc.doc_id, doc.length) for doc in self._docs)),
            "postings": {
                term: dict(sorted(posting.items()))
                for term, posting in sorted(postings.items())
            },
        }


_NO_POSTING: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())


def _holders(docs: Iterable[TokenizedDoc]) -> dict[str, int]:
    """term -> how many of `docs` hold it, read from their kept counts."""
    holders: dict[str, int] = {}
    for doc in docs:
        for term in doc.counts:
            holders[term] = holders.get(term, 0) + 1
    return holders


def _postings(docs: Sequence[TokenizedDoc]) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """term -> (positions, term counts) of the documents holding it, in document order.

    Most terms are held by one or two documents, and exact-size tuples
    hold them in less memory than lists grown by appending.
    """
    postings: dict[str, tuple[list[int], list[int]]] = {}
    for pos, doc in enumerate(docs):
        counts = doc.counts
        if "" in counts:
            raise RetrievalError(f"empty token in doc {doc.doc_id!r}")
        for term, tf in counts.items():
            posting = postings.get(term)
            if posting is None:
                postings[term] = ([pos], [tf])
            else:
                posting[0].append(pos)
                posting[1].append(tf)
    return {term: (tuple(pos), tuple(tf)) for term, (pos, tf) in postings.items()}


def build_index(docs: Iterable[TokenizedDoc], within: Bm25Index | None = None) -> Bm25Index:
    """An index of `docs`, in their order.

    With `within`, every doc must be one of `within`'s documents, the same
    id and the same `TokenizedDoc`, and the index borrows `within`'s
    postings instead of making its own: a leave-one-out fold's index,
    built within the index of all the fold's documents and the held-out
    one.  It ranks exactly as `build_index(docs)` would.
    """
    return Bm25Index(list(docs), within)


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
    scored = zip(index._position, index._scores(query_tokens))
    ranked = sorted(
        (pair for pair in scored if pair[1] > 0.0 and pair[0] not in exclude),
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
    scored = zip(index._position, index._scores(query_tokens))
    ranked = [pair for pair in scored if pair[0] not in exclude]
    ranked.sort(key=_rank_key)
    return ranked
