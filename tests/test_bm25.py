"""Tokenization, indexing, and BM25 scoring."""

import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vismine import bm25
from vismine.errors import RetrievalError

K1, B = 1.2, 0.75


def brute_force_scores(token_docs: dict[str, list[str]], query: list[str]) -> dict[str, float]:
    """Independent score-all oracle: direct formula evaluation per doc."""
    n = len(token_docs)
    avgdl = sum(len(t) for t in token_docs.values()) / n if n else 0.0
    scores = {}
    for doc_id, tokens in token_docs.items():
        total = 0.0
        if avgdl:
            for term in query:
                tf = tokens.count(term)
                if tf == 0:
                    continue
                df = sum(1 for t in token_docs.values() if term in t)
                idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))
                total += idf * tf * (K1 + 1.0) / (tf + K1 * (1 - B + B * len(tokens) / avgdl))
        scores[doc_id] = total
    return scores


def brute_force_top_k(token_docs, query, k, exclude=frozenset()):
    scores = brute_force_scores(token_docs, query)
    ranked = sorted(
        ((d, s) for d, s in scores.items() if d not in exclude and s > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return [d for d, _ in ranked[:k]]


def make_index(token_docs: dict[str, list[str]]) -> bm25.Bm25Index:
    return bm25.build_index(
        bm25.TokenizedDoc(doc_id=d, tokens=tuple(t)) for d, t in token_docs.items()
    )


THREE_DOCS = {
    "d1": ["model", "visualization", "model"],
    "d2": ["deep", "learning", "model"],
    "d3": ["chart", "analysis", "visualization", "pipeline"],
}


class TestTokenize:
    def test_rule_application(self):
        assert bm25.tokenize("Model Visualization!") == ["model", "visualization"]

    def test_empty(self):
        assert bm25.tokenize("") == []

    def test_fixture_paragraph_manual_trace(self):
        text = (
            "The BM25 ranking function scores a document D against query Q, "
            "combining term-frequency saturation (parameter k1 = 1.2) with length "
            "normalization (parameter b = 0.75); stop-words are kept, 1-character "
            "tokens vanish, and UTF-8 text like café is preserved throughout indexing."
        )
        assert len(text.split()) == 40
        expected = [
            "the", "bm25", "ranking", "function", "scores", "document", "against",
            "query", "combining", "term", "frequency", "saturation", "parameter",
            "k1", "with", "length", "normalization", "parameter", "75", "stop",
            "words", "are", "kept", "character", "tokens", "vanish", "and", "utf",
            "text", "like", "café", "is", "preserved", "throughout", "indexing",
        ]
        assert bm25.tokenize(text) == expected

    def test_single_char_tokens_dropped(self):
        assert bm25.tokenize("a b c model") == ["model"]


class TestBuildIndex:
    def test_avg_doc_length(self):
        index = make_index({"a": ["x1"] * 2, "b": ["x1"] * 4, "c": ["x1"] * 6})
        assert index.avg_doc_length == 4.0
        assert index.doc_count == 3

    def test_empty(self):
        index = make_index({})
        assert index.doc_count == 0
        assert index.avg_doc_length == 0.0
        assert bm25.top_k(index, ["model"], 3) == []

    def test_document_frequency_matches_linear_scan(self):
        docs = {
            "p1": ["model", "chart", "model"],
            "p2": ["chart", "loss"],
            "p3": ["loss", "curve", "loss"],
            "p4": ["model"],
            "p5": ["curve", "chart"],
        }
        index = make_index(docs)
        for term in {"model", "chart", "loss", "curve", "missing"}:
            expected = sum(1 for tokens in docs.values() if term in tokens)
            assert index.document_frequency(term) == expected

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(RetrievalError):
            bm25.build_index(
                [
                    bm25.TokenizedDoc("same", ("model",)),
                    bm25.TokenizedDoc("same", ("chart",)),
                ]
            )

    def test_dump_roundtrips_statistics(self):
        index = make_index(THREE_DOCS)
        dump = index.dump()
        assert dump["doc_count"] == 3
        assert dump["postings"]["model"] == {"d1": 2, "d2": 1}


class TestScore:
    def test_no_query_term_in_any_doc(self):
        index = make_index(THREE_DOCS)
        for doc_id in THREE_DOCS:
            assert bm25.score(index, ["transformer"], doc_id) == 0.0

    def test_single_doc_positive(self):
        index = make_index({"only": ["saliency", "map"]})
        assert bm25.score(index, ["saliency"], "only") > 0.0

    def test_three_doc_fixture_matches_formula_oracle(self):
        # Frozen from a direct spreadsheet-style evaluation of the formula
        # with k1=1.2, b=0.75 over this fixture.
        index = make_index(THREE_DOCS)
        query = ["model", "visualization"]
        expected = {
            "d1": 1.1550080805255534,
            "d2": 0.4900511774126154,
            "d3": 0.4344571362775708,
        }
        for doc_id, value in expected.items():
            assert bm25.score(index, query, doc_id) == pytest.approx(value, abs=1e-9)

    def test_unknown_doc_id(self):
        index = make_index(THREE_DOCS)
        with pytest.raises(RetrievalError):
            bm25.score(index, ["model"], "nope")

    def test_idf_never_negative(self):
        # A term present in every document still gets a nonnegative idf.
        docs = {f"d{i}": ["ubiquitous"] for i in range(5)}
        index = make_index(docs)
        assert bm25.idf(index, "ubiquitous") >= 0.0
        assert bm25.score(index, ["ubiquitous"], "d0") >= 0.0


class TestTopK:
    def test_labeled_pool_sized_corpus(self):
        # 68 docs sharing vocabulary; k=6 returns 6 ids, non-increasing scores.
        rng = random.Random(7)
        vocabulary = ["model", "chart", "loss", "training", "saliency", "network"]
        docs = {
            f"p{i:02d}": [rng.choice(vocabulary) for _ in range(rng.randint(3, 12))]
            for i in range(68)
        }
        index = make_index(docs)
        query = ["model", "saliency"]
        result = bm25.top_k(index, query, 6)
        assert len(result) == 6
        scores = [bm25.score(index, query, d) for d in result]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_exclusion(self):
        index = make_index(THREE_DOCS)
        best = bm25.top_k(index, ["model"], 3)[0]
        assert best not in bm25.top_k(index, ["model"], 3, exclude={best})

    def test_tie_breaks_by_doc_id(self):
        docs = {"zz": ["model", "chart"], "aa": ["model", "chart"], "mm": ["other", "words"]}
        index = make_index(docs)
        first = bm25.top_k(index, ["model"], 2)
        assert first == ["aa", "zz"]
        assert bm25.top_k(index, ["model"], 2) == first  # stable across calls

    def test_zero_score_docs_omitted(self):
        index = make_index(THREE_DOCS)
        assert bm25.top_k(index, ["learning"], 5) == ["d2"]

    def test_k_below_one_rejected(self):
        index = make_index(THREE_DOCS)
        with pytest.raises(RetrievalError):
            bm25.top_k(index, ["model"], 0)

    def test_prefix_property(self):
        rng = random.Random(13)
        vocabulary = ["alpha", "beta", "gamma", "delta", "epsilon"]
        for _ in range(25):
            docs = {
                f"d{i}": [rng.choice(vocabulary) for _ in range(rng.randint(1, 8))]
                for i in range(rng.randint(2, 9))
            }
            index = make_index(docs)
            query = [rng.choice(vocabulary) for _ in range(rng.randint(1, 4))]
            for k in range(1, 6):
                assert bm25.top_k(index, query, k) == bm25.top_k(index, query, k + 1)[:k]

    def test_permutation_invariance(self):
        items = list(THREE_DOCS.items())
        query = ["model", "visualization", "chart"]
        baseline = None
        for seed in range(6):
            rng = random.Random(seed)
            shuffled = items[:]
            rng.shuffle(shuffled)
            index = make_index(dict(shuffled))
            ranking = bm25.top_k(index, query, 3)
            scores = tuple(bm25.score(index, query, d) for d in ranking)
            if baseline is None:
                baseline = (ranking, scores)
            assert (ranking, scores) == baseline

    def test_small_corpora_match_brute_force_oracle(self):
        rng = random.Random(99)
        vocabulary = ["model", "loss", "chart", "saliency", "graph", "epoch", "layer"]
        for _ in range(50):
            docs = {
                f"d{i}": [rng.choice(vocabulary) for _ in range(rng.randint(0, 10))]
                for i in range(rng.randint(1, 10))
            }
            index = make_index(docs)
            query = [rng.choice(vocabulary) for _ in range(rng.randint(1, 6))]
            k = rng.randint(1, 8)
            exclude = set(rng.sample(sorted(docs), rng.randint(0, min(2, len(docs)))))
            assert bm25.top_k(index, query, k, exclude=exclude) == brute_force_top_k(
                docs, query, k, exclude=exclude
            )


VOCABULARY = ["model", "loss", "chart", "saliency", "graph", "epoch", "layer"]

# Doc ids from a small alphabet so that ids of different lengths and equal
# prefixes meet in the doc-id tie-break; docs may be empty (zero length).
corpora = st.dictionaries(
    st.text(alphabet="abxyz", min_size=1, max_size=3),
    st.lists(st.sampled_from(VOCABULARY), max_size=10),
    max_size=12,
)
# Queries repeat terms freely and may carry terms no document has.
queries = st.lists(st.sampled_from(VOCABULARY + ["unseen", "absent"]), max_size=8)


@st.composite
def ranking_cases(draw):
    docs = draw(corpora)
    query = draw(queries)
    exclude = draw(st.sets(st.sampled_from(sorted(docs)))) if docs else set()
    order = draw(st.permutations(sorted(docs)))
    return docs, query, exclude, order


class TestTermAtATimeProperties:
    """`top_k`/`rank_all` accumulate term at a time; `score()` is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(ranking_cases())
    def test_rank_all_scores_equal_reference_exactly(self, case):
        docs, query, exclude, _ = case
        index = make_index(docs)
        ranked = bm25.rank_all(index, query, exclude=exclude)
        assert sorted(d for d, _ in ranked) == sorted(set(docs) - exclude)
        for doc_id, value in ranked:
            assert value == bm25.score(index, query, doc_id)

    @settings(max_examples=200, deadline=None)
    @given(ranking_cases())
    def test_order_is_sort_by_score_then_doc_id(self, case):
        docs, query, exclude, _ = case
        ranked = bm25.rank_all(make_index(docs), query, exclude=exclude)
        assert ranked == sorted(ranked, key=lambda pair: (-pair[1], pair[0]))

    @settings(max_examples=200, deadline=None)
    @given(ranking_cases(), st.integers(min_value=1, max_value=14))
    def test_top_k_is_positive_prefix_of_rank_all(self, case, k):
        docs, query, exclude, _ = case
        index = make_index(docs)
        positive = [d for d, s in bm25.rank_all(index, query, exclude=exclude) if s > 0.0]
        assert bm25.top_k(index, query, k, exclude=exclude) == positive[:k]

    @settings(max_examples=200, deadline=None)
    @given(ranking_cases(), st.integers(min_value=1, max_value=14))
    def test_top_k_is_the_positives_of_rank_alls_first_k(self, case, k):
        # The stage-1 LOO reads its majority-vote neighbours this way from
        # the one ranking its few-shot context also reads.
        docs, query, exclude, _ = case
        index = make_index(docs)
        ranked = bm25.rank_all(index, query, exclude=exclude)
        assert bm25.top_k(index, query, k, exclude=exclude) == [
            d for d, s in ranked[:k] if s > 0.0
        ]

    @settings(max_examples=200, deadline=None)
    @given(ranking_cases(), st.integers(min_value=1, max_value=14))
    def test_invariant_to_indexing_order(self, case, k):
        docs, query, exclude, order = case
        index = make_index(docs)
        reordered = make_index({d: docs[d] for d in order})
        assert bm25.rank_all(reordered, query, exclude=exclude) == bm25.rank_all(
            index, query, exclude=exclude
        )
        assert bm25.top_k(reordered, query, k, exclude=exclude) == bm25.top_k(
            index, query, k, exclude=exclude
        )

    @settings(max_examples=200, deadline=None)
    @given(corpora, st.lists(queries, min_size=2, max_size=8))
    def test_queries_sharing_terms_on_one_index_equal_reference(self, docs, query_list):
        # Later queries reuse the per-term contributions the earlier ones stored.
        index = make_index(docs)
        for query in query_list:
            ranked = bm25.rank_all(index, query)
            for doc_id, value in ranked:
                assert value == bm25.score(index, query, doc_id)
            positive = [d for d, s in ranked if s > 0.0]
            assert bm25.top_k(index, query, 3) == positive[:3]


@st.composite
def fold_cases(draw):
    """A corpus, the ids a fold keeps (in any order), a query and exclusions.

    Some documents hold a term of their own, so a fold that drops them
    meets terms held only by left-out documents; the query repeats a
    prefix of itself, so repeated tokens are common.
    """
    docs = draw(corpora)
    ids = sorted(docs)
    own = draw(st.sets(st.sampled_from(ids))) if ids else set()
    docs = {d: tokens + ([f"only{d}"] if d in own else []) for d, tokens in docs.items()}
    if ids:
        kept = draw(st.one_of(
            st.just(ids),  # none dropped
            st.just([]),  # every document dropped
            st.sampled_from(ids).map(lambda out: [d for d in ids if d != out]),  # one dropped
            st.sampled_from(ids).map(lambda only: [only]),  # all but one dropped
            st.sets(st.sampled_from(ids)).map(sorted),
        ))
    else:
        kept = []
    kept = draw(st.permutations(kept))
    query = draw(st.lists(st.sampled_from(VOCABULARY + [f"only{d}" for d in ids] + ["unseen"]),
                          max_size=8))
    query += query[:draw(st.integers(min_value=0, max_value=len(query)))]
    exclude = draw(st.sets(st.sampled_from(sorted(kept)))) if kept else set()
    return docs, kept, query, exclude


class TestFoldIndexes:
    """An index built `within` another borrows its postings and must read
    exactly as an index rebuilt from the same documents."""

    @settings(max_examples=300, deadline=None)
    @given(fold_cases(), st.integers(min_value=1, max_value=14))
    def test_fold_index_equals_rebuild_bit_for_bit(self, case, k):
        docs, kept, query, exclude = case
        tokenized = {d: bm25.TokenizedDoc(d, tuple(t)) for d, t in docs.items()}
        full = bm25.build_index(tokenized.values())
        fold = bm25.build_index((tokenized[d] for d in kept), within=full)
        rebuilt = bm25.build_index(tokenized[d] for d in kept)
        # A fold of a fold reads the same: here the outer fold keeps everything.
        nested = bm25.build_index((tokenized[d] for d in kept),
                                  within=bm25.build_index(tokenized.values(), within=full))
        for index in (fold, nested):
            assert index.dump() == rebuilt.dump()
            assert index.avg_doc_length == rebuilt.avg_doc_length
            for term in set(query) | {t for tokens in docs.values() for t in tokens}:
                assert index.document_frequency(term) == rebuilt.document_frequency(term)
            ranked = bm25.rank_all(index, query, exclude=exclude)
            assert ranked == bm25.rank_all(rebuilt, query, exclude=exclude)
            assert bm25.top_k(index, query, k, exclude=exclude) == bm25.top_k(
                rebuilt, query, k, exclude=exclude
            )
            for doc_id, value in ranked:
                assert value == bm25.score(index, query, doc_id) == bm25.score(
                    rebuilt, query, doc_id
                )

    def test_threads_sharing_one_index_for_their_folds_get_rebuilt_rankings(self):
        # Leave-one-out folds on several threads, all built within one index
        # that is itself queried meanwhile.
        rng = random.Random(11)
        docs = [bm25.TokenizedDoc(f"d{i:02d}", tuple(rng.choice(WIDE_VOCABULARY)
                                                     for _ in range(rng.randint(0, 12))))
                for i in range(30)]
        expected = [bm25.rank_all(bm25.build_index(d for d in docs if d is not held), held.tokens)
                    for held in docs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                full = bm25.build_index(docs)
                results: list[bool] = []

                def work(offset):
                    for i in range(len(docs)):
                        j = (i + offset) % len(docs)
                        held = docs[j]
                        fold = bm25.build_index((d for d in docs if d is not held), within=full)
                        results.append(bm25.rank_all(fold, held.tokens) == expected[j])
                        bm25.rank_all(full, held.tokens)

                threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [True] * (6 * len(docs))
        finally:
            sys.setswitchinterval(interval)

    def test_doc_absent_from_within_rejected(self):
        docs = [bm25.TokenizedDoc(d, tuple(t)) for d, t in THREE_DOCS.items()]
        full = bm25.build_index(docs[:2])
        with pytest.raises(RetrievalError, match="'d3'"):
            bm25.build_index(docs[1:], within=full)

    def test_different_doc_under_a_known_id_rejected(self):
        docs = [bm25.TokenizedDoc(d, tuple(t)) for d, t in THREE_DOCS.items()]
        full = bm25.build_index(docs)
        with pytest.raises(RetrievalError, match="'d2'"):
            bm25.build_index([docs[0], bm25.TokenizedDoc("d2", ("chart",))], within=full)
        # An equal document is the same document.
        same = bm25.build_index([bm25.TokenizedDoc("d2", docs[1].tokens)], within=full)
        assert same.dump() == bm25.build_index(docs[1:2]).dump()


class FreshScoreReference:
    """Postings made from the documents up front, as an index makes them at
    build, and every score worked out afresh on each query: the index as it
    would be if no term's contributions were kept between queries."""

    def __init__(self, docs: dict[str, list[str]]):
        self.docs = docs
        self.postings: dict[str, dict[str, int]] = {}
        for doc_id, tokens in docs.items():
            for term in tokens:
                posting = self.postings.setdefault(term, {})
                posting[doc_id] = posting.get(doc_id, 0) + 1
        self.avgdl = sum(len(t) for t in docs.values()) / len(docs) if docs else 0.0

    def document_frequency(self, term: str) -> int:
        return len(self.postings.get(term, {}))

    def dump(self) -> dict:
        return {
            "doc_count": len(self.docs),
            "avg_doc_length": self.avgdl,
            "doc_lengths": {d: len(t) for d, t in sorted(self.docs.items())},
            "postings": {t: dict(sorted(p.items())) for t, p in sorted(self.postings.items())},
        }

    def rank_all(self, query: list[str]) -> list[tuple[str, float]]:
        n = len(self.docs)
        scores = dict.fromkeys(self.docs, 0.0)
        if self.avgdl:
            for term in query:
                df = self.document_frequency(term)
                idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))
                for doc_id, tf in self.postings.get(term, {}).items():
                    norm = tf + K1 * (1.0 - B + B * len(self.docs[doc_id]) / self.avgdl)
                    scores[doc_id] += idf * tf * (K1 + 1.0) / norm
        return sorted(scores.items(), key=lambda pair: (-pair[1], pair[0]))


# Queries over overlapping vocabularies: each draws from its own slice of a
# larger vocabulary, so later queries meet terms whose contributions are
# partly made.
WIDE_VOCABULARY = VOCABULARY + ["unseen", "absent", "token", "figure"]
overlapping_queries = st.lists(
    st.integers(min_value=0, max_value=len(WIDE_VOCABULARY) - 3).flatmap(
        lambda lo: st.lists(st.sampled_from(WIDE_VOCABULARY[lo:lo + 4]), max_size=6)
    ),
    min_size=1,
    max_size=8,
)


class TestContributionsOnFirstQuery:
    """Postings are made when the index is built, and a term's contributions
    when a query first asks for it; the index must still rank as if every
    score were worked out afresh on each query."""

    @settings(max_examples=200, deadline=None)
    @given(corpora, overlapping_queries)
    def test_any_query_sequence_equals_the_fresh_score_reference(self, docs, query_list):
        index = make_index(docs)
        reference = FreshScoreReference(docs)
        for query in query_list:
            assert bm25.rank_all(index, query) == reference.rank_all(query)
        assert index.dump() == reference.dump()
        for term in WIDE_VOCABULARY:
            assert index.document_frequency(term) == reference.document_frequency(term)
        for query in query_list:
            assert bm25.rank_all(index, query) == reference.rank_all(query)

    def test_document_counted_once_across_indexes(self, monkeypatch):
        counted: list[tuple[str, ...]] = []

        class CountingCounter(bm25.Counter):
            def __init__(self, tokens):
                counted.append(tuple(tokens))
                super().__init__(tokens)

        monkeypatch.setattr(bm25, "Counter", CountingCounter)
        docs = [bm25.TokenizedDoc(d, tuple(t)) for d, t in THREE_DOCS.items()]
        # One index per held-out document, as the leave-one-out folds build them.
        for held_out in docs:
            index = bm25.build_index(d for d in docs if d is not held_out)
            bm25.rank_all(index, ["model", "visualization"])
        assert sorted(counted) == sorted(tuple(t) for t in THREE_DOCS.values())

    def test_reader_never_sees_a_term_half_posted(self, monkeypatch):
        # One thread is held while it makes its query's second term's
        # contributions, its first term's stored, while a second thread
        # queries the same terms on the same index.
        paused, resume = threading.Event(), threading.Event()
        holder: list[threading.Thread] = []
        held_calls: list[int] = []
        idf = bm25._idf

        def pausing_idf(doc_count, df):
            if threading.current_thread() in holder:
                held_calls.append(df)
                if len(held_calls) == 2:
                    paused.set()
                    resume.wait(timeout=10)
            return idf(doc_count, df)

        monkeypatch.setattr(bm25, "_idf", pausing_idf)
        docs = {"d1": ["model", "chart"], "d2": ["model", "loss"], "d3": ["chart", "model"]}
        index = make_index(docs)
        expected = FreshScoreReference(docs).rank_all(["model", "chart"])
        results = {}

        def query(name):
            results[name] = bm25.rank_all(index, ["model", "chart"])

        holder.append(threading.Thread(target=query, args=("held",)))
        holder[0].start()
        assert paused.wait(timeout=10)
        query("reader")
        resume.set()
        holder[0].join(timeout=10)
        assert not holder[0].is_alive()
        assert results == {"held": expected, "reader": expected}

    def test_threads_sharing_an_index_get_reference_rankings(self):
        rng = random.Random(5)
        docs = {
            f"d{i:02d}": [rng.choice(WIDE_VOCABULARY) for _ in range(rng.randint(0, 12))]
            for i in range(40)
        }
        reference = FreshScoreReference(docs)
        queries = [[rng.choice(WIDE_VOCABULARY) for _ in range(rng.randint(1, 6))]
                   for _ in range(24)]
        expected = [reference.rank_all(q) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                index = make_index(docs)
                results: list[bool] = []

                def work(offset):
                    for i in range(len(queries)):
                        j = (i + offset) % len(queries)
                        results.append(bm25.rank_all(index, queries[j]) == expected[j])

                threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [True] * (6 * len(queries))
        finally:
            sys.setswitchinterval(interval)
