"""Metric arithmetic and the leave-one-out harness."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vismine import bm25
from vismine import evaluation as ev
from vismine.corpus import PaperRecord, load_labeled_pool
from vismine.errors import AuthenticationError, EvaluationError
from vismine.evidence import FigureEvidence
from vismine.gateway import Gateway, KeywordStubBackend, StubRules
from vismine.library import CodedFigure, CodedPaper
from vismine.stage1 import DEFAULT_K, paper_doc, paper_query_tokens, pool_index
from vismine.stage2 import library_index, retrieve_neighbor_papers
from vismine.stage3 import figure_tokens, library_figure_corpus, retrieve_similar_figures
from vismine.vocab import load_vocabulary, FrameworkLabels
from tests.conftest import ITEM_FAILURES, RaisingBackend

VOCAB = load_vocabulary()


def counts(tp=0, fp=0, fn=0, tn=0):
    return ev.ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


class TestMetricArithmetic:
    def test_precision_consensus_row(self):
        assert ev.precision(counts(tp=31, fp=2)) == pytest.approx(0.939, abs=1e-3)

    def test_f1_examples(self):
        assert ev.f1(counts(tp=61, fp=3, fn=44)) == pytest.approx(0.722, abs=1e-3)
        assert ev.f1(counts(tp=73, fp=5, fn=32)) == pytest.approx(0.798, abs=1e-3)

    def test_degenerate_precision_flagged_zero(self):
        zero = counts()
        assert ev.precision(zero) == 0.0
        assert not ev.metric_defined(zero, "precision")

    def test_recall(self):
        assert ev.recall(counts(tp=3, fn=1)) == 0.75
        assert ev.recall(counts()) == 0.0

    def test_f1_harmonic_mean_identity(self):
        c = counts(tp=9, fp=4, fn=2)
        p, r = ev.precision(c), ev.recall(c)
        assert ev.f1(c) == pytest.approx(2 * p * r / (p + r))


class TestMultilabelCounts:
    def test_set_arithmetic(self):
        c = ev.multilabel_counts({"a", "b", "c"}, {"a", "b", "d"}, {"a", "b", "c", "d"})
        assert (c.tp, c.fp, c.fn) == (2, 1, 1)
        assert c.tn is None

    def test_identity(self):
        c = ev.multilabel_counts({"a"}, {"a"}, {"a"})
        assert (c.tp, c.fp, c.fn) == (1, 0, 0)

    def test_empty_prediction(self):
        c = ev.multilabel_counts({"a"}, set(), {"a"})
        assert (c.tp, c.fp, c.fn) == (0, 0, 1)

    def test_outside_vocabulary_rejected(self):
        with pytest.raises(EvaluationError):
            ev.multilabel_counts({"a"}, {"zzz"}, {"a", "b"})


class TestMicroF1:
    def test_micro_f1_reference_rows(self):
        assert ev.micro_f1([counts(tp=106, fp=16, fn=22, tn=None)]) == pytest.approx(
            0.848, abs=1e-3
        )
        assert ev.micro_f1([counts(tp=55, fp=18, fn=18, tn=None)]) == pytest.approx(
            0.753, abs=1e-3
        )

    def test_single_figure(self):
        assert ev.micro_f1([counts(tp=2, fp=1, fn=1)]) == pytest.approx(0.667, abs=1e-3)

    def test_equals_f1_of_summed_counts(self):
        import random

        rng = random.Random(17)
        for _ in range(50):
            parts = [
                counts(tp=rng.randint(0, 5), fp=rng.randint(0, 5), fn=rng.randint(0, 5))
                for _ in range(rng.randint(1, 8))
            ]
            assert ev.micro_f1(parts) == ev.f1(ev.sum_counts(parts))

    def test_all_zero_flagged(self):
        zeros = [counts(), counts()]
        assert ev.micro_f1(zeros) == 0.0
        assert not ev.metric_defined(ev.sum_counts(zeros), "micro_f1")

    def test_empty_list_rejected(self):
        with pytest.raises(EvaluationError):
            ev.micro_f1([])


def tiered_pool(tiers):
    records = []
    assignments = []
    filler = 0
    for paper_id, label, tf in tiers:
        fillers = []
        for _ in range(8 - tf):
            fillers.append(f"filler{filler:03d}")
            filler += 1
        records.append(
            PaperRecord(paper_id=paper_id, title=" ".join(["saliency"] * tf + fillers))
        )
        assignments.append((paper_id, label))
    return load_labeled_pool(records, assignments)


class TestBaseline:
    """`run_stage1_loo`'s majority vote over a paper's BM25 top-k pool neighbours."""

    TARGET = PaperRecord(paper_id="target", title="saliency saliency probe")

    def baseline(self, pool, k):
        neighbors = bm25.top_k(pool_index(pool), paper_query_tokens(self.TARGET), k,
                               exclude={self.TARGET.paper_id})
        return ev._majority_label(pool, neighbors)

    def test_majority_positive(self):
        pool = tiered_pool(
            [("p1", "positive", 3), ("p2", "positive", 2), ("n1", "negative", 1)]
        )
        assert self.baseline(pool, k=3) == "positive"

    def test_majority_negative(self):
        pool = tiered_pool(
            [("n1", "negative", 5), ("n2", "negative", 4), ("n3", "negative", 3),
             ("p1", "positive", 2), ("p2", "positive", 1)]
        )
        assert self.baseline(pool, k=5) == "negative"

    def test_tie_resolves_positive(self):
        pool = tiered_pool([("p1", "positive", 2), ("n1", "negative", 2)])
        assert self.baseline(pool, k=2) == "positive"

    def test_no_neighbors_resolves_positive(self):
        pool = tiered_pool([("p1", "positive", 0), ("n1", "negative", 0)])
        assert self.baseline(pool, k=2) == "positive"


def dual_stub_gateway():
    return Gateway(
        {
            "primary": KeywordStubBackend("primary", StubRules(screen_keywords=("saliency",))),
            "secondary": KeywordStubBackend("secondary", StubRules(screen_keywords=("model",))),
        }
    )


def screening_pool():
    records = [
        PaperRecord(paper_id="A1", title="saliency model alpha view", label="positive"),
        PaperRecord(paper_id="A2", title="saliency model beta view", label="positive"),
        PaperRecord(paper_id="A3", title="saliency model gamma view", label="positive"),
        PaperRecord(paper_id="B1", title="treemap layout delta", label="negative"),
        PaperRecord(paper_id="B2", title="cartogram atlas epsilon", label="negative"),
        PaperRecord(paper_id="B3", title="volume render zeta", label="negative"),
    ]
    return load_labeled_pool(records, [(r.paper_id, r.label) for r in records])


class TestStage1Loo:
    def test_fold_count_matches_pool(self):
        report = ev.run_stage1_loo(
            screening_pool(), dual_stub_gateway(), ["primary", "secondary"], shots=(0,)
        )
        assert report.fold_counts["stage1"] == 6

    def test_hand_traced_counts(self):
        # Stub consensus agrees with every gold label (positives carry both
        # keywords, negatives neither), so all LLM rows are perfect. The
        # BM25 baseline finds neighbors only for positives; negatives get
        # the empty-neighborhood tie -> positive, giving three FPs.
        report = ev.run_stage1_loo(
            screening_pool(), dual_stub_gateway(), ["primary", "secondary"], shots=(0, 6)
        )
        by_key = {(r.method, r.model): r for r in report.rows}
        consensus_row = by_key[("0-shot", "consensus")]
        assert (consensus_row.counts.tp, consensus_row.counts.fp,
                consensus_row.counts.tn, consensus_row.counts.fn) == (3, 0, 3, 0)
        assert consensus_row.score == 1.0
        six_shot = by_key[("6-shot", "consensus")]
        assert (six_shot.counts.tp, six_shot.counts.fp) == (3, 0)
        baseline = by_key[("majority_vote", "bm25")]
        assert (baseline.counts.tp, baseline.counts.fp,
                baseline.counts.tn, baseline.counts.fn) == (3, 3, 0, 0)
        assert baseline.score == pytest.approx(0.5)

    def test_no_leakage(self):
        report = ev.run_stage1_loo(
            screening_pool(), dual_stub_gateway(), ["primary", "secondary"], shots=(0, 6)
        )
        assert ev.find_leakage(report) == []

    def test_rows_in_first_seen_order(self):
        report = ev.run_stage1_loo(
            screening_pool(), dual_stub_gateway(), ["primary", "secondary"], shots=(6, 0)
        )
        assert [(r.method, r.model) for r in report.rows] == [
            ("majority_vote", "bm25"),
            ("6-shot", "primary"), ("6-shot", "secondary"), ("6-shot", "consensus"),
            ("0-shot", "primary"), ("0-shot", "secondary"), ("0-shot", "consensus"),
        ]

    def test_fold_indexes_exact_and_papers_tokenized_once(self, monkeypatch):
        pool = screening_pool()
        built, tokenized = [], []
        build_index, tokenize = bm25.build_index, bm25.tokenize

        def recording_build(docs, within=None):
            built.append(build_index(docs, within=within))
            return built[-1]

        def recording_tokenize(text, *args, **kwargs):
            tokenized.append(text)
            return tokenize(text, *args, **kwargs)

        monkeypatch.setattr(bm25, "build_index", recording_build)
        monkeypatch.setattr(bm25, "tokenize", recording_tokenize)
        ev.run_stage1_loo(pool, dual_stub_gateway(), ["primary", "secondary"], shots=(0, 6))
        monkeypatch.undo()
        assert len(tokenized) == len(pool.records)
        # The pool's index, then one fold index built within it per paper.
        assert len(built) == len(pool.records) + 1
        assert built[0].dump() == pool_index(pool).dump()
        for held_out, index in zip(pool.records, built[1:]):
            expected = pool_index(pool.without(held_out.paper_id))
            assert held_out.paper_id not in index
            assert index.dump() == expected.dump()

    def test_one_ranking_per_fold(self, monkeypatch):
        pool = screening_pool()
        rankings, top_k_results = [], []
        rank_all, top_k = bm25.rank_all, bm25.top_k

        def recording_rank_all(*args, **kwargs):
            rankings.append(rank_all(*args, **kwargs))
            return rankings[-1]

        def recording_top_k(*args, **kwargs):
            top_k_results.append(top_k(*args, **kwargs))
            return top_k_results[-1]

        monkeypatch.setattr(bm25, "rank_all", recording_rank_all)
        monkeypatch.setattr(bm25, "top_k", recording_top_k)
        report = ev.run_stage1_loo(
            pool, dual_stub_gateway(), ["primary", "secondary"], shots=(0, 6)
        )
        monkeypatch.undo()
        assert len(rankings) == report.fold_counts["stage1"] == len(pool.records)
        assert top_k_results == []
        baselines = [f.neighbors for f in report.folds if f.method == "majority_vote"]
        assert baselines == [
            [doc_id for doc_id, score in ranked[:DEFAULT_K] if score > 0.0]
            for ranked in rankings
        ]

    def test_too_small_pool_rejected(self):
        records = [PaperRecord(paper_id="only", title="t", label="positive")]
        pool = load_labeled_pool(records, [("only", "positive")])
        with pytest.raises(EvaluationError):
            ev.run_stage1_loo(pool, dual_stub_gateway(), ["primary"])

    def test_baseline_k_below_one_rejected(self):
        with pytest.raises(EvaluationError):
            ev.run_stage1_loo(screening_pool(), dual_stub_gateway(), ["primary"], baseline_k=0)


def figure_gateway():
    rules = StubRules(
        figure_keywords=("accuracy", "gradient"),
        listener_rules=(("accuracy", "output results"), ("gradient", "transient state")),
        data_type_rules=(("accuracy", "one-dimensional quantitative"),),
        vis_type_rules=(("chart", "statistical chart"), ("heatmap", "heatmap")),
        purpose_rules=(("accuracy", "performance evaluation"),),
    )
    return Gateway({"primary": KeywordStubBackend("primary", rules)})


def coded_fixture():
    def gold(paper_id, listeners, data, vis, purpose):
        return FrameworkLabels(
            paper_id=paper_id,
            base_figure_id="Figure 1",
            listeners=listeners,
            data_types=data,
            vis_type=vis,
            vis_purpose=purpose,
            confidences={},
            evidence={},
        )

    papers = [
        CodedPaper(
            record=PaperRecord(paper_id="C1", title="saliency paper one"),
            figures=(
                CodedFigure(
                    "Figure 1", relevant=True,
                    labels=gold("C1", ("output results",), ("one-dimensional quantitative",),
                                "statistical chart", "performance evaluation"),
                ),
                CodedFigure("Figure 2", relevant=False),
            ),
        ),
        CodedPaper(
            record=PaperRecord(paper_id="C2", title="saliency paper two"),
            figures=(
                CodedFigure(
                    "Figure 1", relevant=True,
                    labels=gold("C2", ("transient state", "model structure"),
                                ("multi-dimensional quantitative",), "heatmap", "distribution"),
                ),
                CodedFigure("Figure 2", relevant=False),
            ),
        ),
        CodedPaper(
            record=PaperRecord(paper_id="C3", title="saliency paper three"),
            figures=(
                CodedFigure("Figure 1", relevant=True),
                CodedFigure("Figure 2", relevant=False),
            ),
        ),
    ]
    captions = {
        ("C1", "Figure 1"): "Figure 1: accuracy chart by class for the model.",
        ("C1", "Figure 2"): "Figure 2: flowers photographed outside the venue.",
        ("C2", "Figure 1"): "Figure 1: gradient heatmap across layers shown.",
        ("C2", "Figure 2"): "Figure 2: accuracy sidebar from the appendix.",
        ("C3", "Figure 1"): "Figure 1: training montage without keywords.",
        ("C3", "Figure 2"): "Figure 2: palette options for the interface.",
    }

    def lookup(paper_id, figure_id):
        caption = captions.get((paper_id, figure_id))
        if caption is None:
            return None
        return FigureEvidence(
            paper_id=paper_id, figure_id=figure_id, base_figure_id=figure_id,
            caption=caption, context=(),
        )

    return papers, lookup


class TestStage2Loo:
    def test_hand_traced_counts(self):
        # Stub says relevant iff the caption mentions accuracy or gradient:
        # C1F1 TP, C1F2 quiet, C2F1 TP, C2F2 FP, C3F1 FN, C3F2 quiet.
        papers, lookup = coded_fixture()
        report = ev.run_stage2_loo(papers, lookup, figure_gateway(), "primary", shots=(0, 5))
        for row in report.rows:
            assert (row.counts.tp, row.counts.fp, row.counts.fn) == (2, 1, 1)
            assert row.counts.tn is None
            assert row.score == pytest.approx(2 * 2 / (4 + 1 + 1))
        assert report.fold_counts["stage2"] == 3

    def test_no_leakage(self):
        papers, lookup = coded_fixture()
        report = ev.run_stage2_loo(papers, lookup, figure_gateway(), "primary")
        assert ev.find_leakage(report) == []

    def test_rows_sorted_by_method(self):
        papers, lookup = coded_fixture()
        report = ev.run_stage2_loo(papers, lookup, figure_gateway(), "primary", shots=(5, 0))
        assert [r.method for r in report.rows] == ["0-shot", "5-shot"]

    def test_folds_run_concurrently_and_score_as_serial(self):
        papers, lookup = coded_fixture()
        backend = BarrierBackend(figure_gateway().backend("primary"))
        report = ev.run_stage2_loo(papers, lookup, Gateway({"primary": backend}), "primary",
                                   shots=(0, 5), max_workers=2)
        assert not backend.barrier.broken  # two calls were in flight at once
        serial = ev.run_stage2_loo(papers, lookup, figure_gateway(), "primary", shots=(0, 5))
        assert report.to_dict() == serial.to_dict()


class TestStage3Loo:
    def test_hand_traced_per_field_counts(self):
        # C1F1 predictions match gold on all fields. C2F1: listener catches
        # transient state but misses model structure; data falls back to
        # nominal (fp+fn); heatmap matches; purpose falls back to other
        # (fp+fn). C3 has no labeled fields and contributes nothing.
        papers, lookup = coded_fixture()
        report = ev.run_stage3_loo(
            papers, lookup, VOCAB, figure_gateway(), "primary", shots=(0, 10)
        )
        expected = {
            "model_listener": (2, 0, 1),
            "data_type": (1, 1, 1),
            "visualization_type": (2, 0, 0),
            "visualization_purpose": (1, 1, 1),
        }
        assert len(report.rows) == 8  # four fields x two shot settings
        for row in report.rows:
            assert (row.counts.tp, row.counts.fp, row.counts.fn) == expected[row.target]
        by_key = {(r.method, r.target): r for r in report.rows}
        assert by_key[("10-shot", "model_listener")].score == pytest.approx(0.8)
        assert by_key[("10-shot", "visualization_type")].score == 1.0

    def test_no_leakage(self):
        papers, lookup = coded_fixture()
        report = ev.run_stage3_loo(papers, lookup, VOCAB, figure_gateway(), "primary")
        assert ev.find_leakage(report) == []

    def test_rows_sorted_by_method_and_field_name(self):
        papers, lookup = coded_fixture()
        report = ev.run_stage3_loo(papers, lookup, VOCAB, figure_gateway(), "primary",
                                   shots=(10, 0))
        names = ["data_type", "model_listener", "visualization_purpose", "visualization_type"]
        assert [(r.method, r.target) for r in report.rows] == (
            [("0-shot", name) for name in names] + [("10-shot", name) for name in names]
        )


class BarrierBackend:
    """Answers through `inner`, but its first two calls return only once
    both are in flight; with one thread the first call's bounded wait
    breaks the barrier instead of hanging."""

    def __init__(self, inner):
        self.name = inner.name
        self.inner = inner
        self.barrier = threading.Barrier(2, timeout=10)
        self.calls = 0
        self.lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        with self.lock:
            self.calls += 1
            waits = self.calls <= 2
        if waits:
            self.barrier.wait()
        return self.inner.complete(prompt)


def recording_bm25(monkeypatch):
    """Lists that collect every index built and every text tokenized."""
    built, tokenized = [], []
    build_index, tokenize = bm25.build_index, bm25.tokenize

    def recording_build(docs, within=None):
        built.append(build_index(docs, within=within))
        return built[-1]

    def recording_tokenize(text, *args, **kwargs):
        tokenized.append(text)
        return tokenize(text, *args, **kwargs)

    monkeypatch.setattr(bm25, "build_index", recording_build)
    monkeypatch.setattr(bm25, "tokenize", recording_tokenize)
    return built, tokenized


def coded_library(n):
    """n coded papers, each with one labeled and coded figure with evidence."""
    papers = []
    for i in range(n):
        labels = FrameworkLabels(
            paper_id=f"L{i}", base_figure_id="Figure 1", listeners=("output results",),
            data_types=("one-dimensional quantitative",), vis_type="statistical chart",
            vis_purpose="performance evaluation", confidences={}, evidence={},
        )
        papers.append(CodedPaper(
            record=PaperRecord(paper_id=f"L{i}", title=f"saliency paper {i} topic{i % 2}"),
            figures=(CodedFigure("Figure 1", relevant=True, labels=labels),),
        ))

    def lookup(paper_id, figure_id):
        return FigureEvidence(
            paper_id=paper_id, figure_id=figure_id, base_figure_id=figure_id,
            caption=f"{figure_id}: accuracy chart of {paper_id}.",
            context=(f"The {paper_id} chart shows accuracy.",),
        )

    return papers, lookup


class TestLibraryFoldIndexes:
    def test_stage2_fold_indexes_exact_and_papers_tokenized_once(self, monkeypatch):
        papers, lookup = coded_library(4)
        built, tokenized = recording_bm25(monkeypatch)
        ev.run_stage2_loo(papers, lookup, figure_gateway(), "primary", shots=(0,))
        monkeypatch.undo()
        assert len(tokenized) == len(papers)
        # The library's index, then one fold index built within it per paper.
        assert len(built) == len(papers) + 1
        assert built[0].dump() == library_index(papers).dump()
        for held_out, index in zip(papers, built[1:]):
            rest = [p for p in papers if p.paper_id != held_out.paper_id]
            assert held_out.paper_id not in index
            assert index.dump() == library_index(rest).dump()

    def test_stage3_fold_indexes_exact_and_figures_tokenized_once(self, monkeypatch):
        papers, lookup = coded_library(4)
        built, tokenized = recording_bm25(monkeypatch)
        ev.run_stage3_loo(papers, lookup, VOCAB, figure_gateway(), "primary", shots=(0,))
        monkeypatch.undo()
        assert len(tokenized) == 2 * len(papers)  # caption and context, once per figure
        # The library's figure index, then one fold index built within it per paper.
        assert len(built) == len(papers) + 1
        assert built[0].dump() == library_figure_corpus(papers, lookup).index.dump()
        for held_out, index in zip(papers, built[1:]):
            rest = [p for p in papers if p.paper_id != held_out.paper_id]
            assert not any(d.startswith(f"{held_out.paper_id}::")
                           for d in index.dump()["doc_lengths"])
            assert index.dump() == library_figure_corpus(rest, lookup).index.dump()

    def test_stage2_queries_are_the_fold_documents_tokens(self, monkeypatch):
        papers, lookup = coded_library(4)
        _, tokenized = recording_bm25(monkeypatch)
        report = ev.run_stage2_loo(papers, lookup, figure_gateway(), "primary", shots=(0, 2))
        monkeypatch.undo()
        assert len(tokenized) == len(papers)
        for fold in (f for f in report.folds if f.method == "2-shot"):
            target = next(p for p in papers if p.paper_id == fold.held_out)
            rest = [p for p in papers if p is not target]
            assert fold.neighbors == retrieve_neighbor_papers(paper_doc(target.record),
                                                              library_index(rest), k=2)

    def test_stage3_queries_are_the_fold_documents_tokens(self, monkeypatch):
        papers, lookup = coded_library(4)
        _, tokenized = recording_bm25(monkeypatch)
        report = ev.run_stage3_loo(papers, lookup, VOCAB, figure_gateway(), "primary",
                                   shots=(0, 2), per_paper_cap=1)
        monkeypatch.undo()
        assert len(tokenized) == 2 * len(papers)
        for fold in (f for f in report.folds if f.method == "2-shot"):
            target = next(p for p in papers if p.paper_id == fold.held_out)
            rest = [p for p in papers if p is not target]
            evidence = lookup(target.paper_id, "Figure 1")
            assert fold.exemplars == retrieve_similar_figures(
                evidence, figure_tokens(evidence), library_figure_corpus(rest, lookup), k=2,
                per_paper_cap=1,
            )


class TestRunLoo:
    def test_all_stages_combined(self):
        papers, lookup = coded_fixture()
        report = ev.run_loo(
            pool=screening_pool(),
            coded=papers,
            evidence_lookup=lookup,
            vocab=VOCAB,
            gateway=dual_stub_gateway_with_figures(),
            stage1_backends=["primary", "secondary"],
            figure_backend="primary",
            stages=(1, 2, 3),
            stage1_shots=(0,),
            stage2_shots=(0,),
            stage3_shots=(0,),
        )
        assert {r.stage for r in report.rows} == {"stage1", "stage2", "stage3"}
        assert report.fold_counts == {"stage1": 6, "stage2": 3, "stage3": 2}
        assert ev.find_leakage(report) == []

    def test_gateway_required(self):
        with pytest.raises(EvaluationError):
            ev.run_loo(pool=screening_pool(), gateway=None)


def dual_stub_gateway_with_figures():
    figure_rules = StubRules(
        screen_keywords=("saliency",),
        figure_keywords=("accuracy", "gradient"),
        listener_rules=(("accuracy", "output results"), ("gradient", "transient state")),
        data_type_rules=(("accuracy", "one-dimensional quantitative"),),
        vis_type_rules=(("chart", "statistical chart"), ("heatmap", "heatmap")),
        purpose_rules=(("accuracy", "performance evaluation"),),
    )
    return Gateway(
        {
            "primary": KeywordStubBackend("primary", figure_rules),
            "secondary": KeywordStubBackend("secondary", StubRules(screen_keywords=("model",))),
        }
    )


class TestFindLeakage:
    def test_detects_planted_violations(self):
        report = ev.LooReport()
        report.folds.append(
            ev.FoldLog(stage="stage1", method="6-shot", held_out="P9", neighbors=["P9", "P2"])
        )
        report.folds.append(
            ev.FoldLog(stage="stage3", method="10-shot", held_out="P7",
                       exemplars=["P7::Figure 1"])
        )
        violations = ev.find_leakage(report)
        assert len(violations) == 2


TITLE_WORDS = ["saliency", "model", "probe", "layer", "treemap", "atlas"]
CAPTION_WORDS = ["accuracy", "gradient", "chart", "heatmap", "flowers", "layer"]


@st.composite
def loo_inputs(draw):
    """A labeled pool and a coded library whose texts share most words, so
    every paper is a strong neighbour of the others."""
    def words(vocabulary):
        return " ".join(draw(st.lists(st.sampled_from(vocabulary), min_size=1, max_size=4)))

    size = draw(st.integers(2, 7))
    records = [PaperRecord(paper_id=f"P{i}", title=words(TITLE_WORDS)) for i in range(size)]
    pool_labels = draw(st.lists(st.sampled_from(["positive", "negative"]),
                                min_size=size, max_size=size))
    pool = load_labeled_pool(records, [(r.paper_id, label)
                                       for r, label in zip(records, pool_labels)])

    papers = []
    captions = {}
    for i in range(draw(st.integers(2, 5))):
        paper_id = f"C{i}"
        figures = []
        for j in range(1, draw(st.integers(1, 3)) + 1):
            figure_id = f"Figure {j}"
            captions[(paper_id, figure_id)] = f"{figure_id}: {words(CAPTION_WORDS)}"
            relevant = draw(st.booleans())
            gold = FrameworkLabels(
                paper_id=paper_id, base_figure_id=figure_id,
                listeners=(draw(st.sampled_from(VOCAB.values("model_listener"))),),
                data_types=(draw(st.sampled_from(VOCAB.values("data_type"))),),
                vis_type=draw(st.sampled_from(VOCAB.values("visualization_type"))),
                vis_purpose=draw(st.sampled_from(VOCAB.values("visualization_purpose"))),
                confidences={}, evidence={},
            ) if relevant and draw(st.booleans()) else None
            figures.append(CodedFigure(figure_id, relevant=relevant, labels=gold))
        papers.append(CodedPaper(record=PaperRecord(paper_id=paper_id, title=words(TITLE_WORDS)),
                                 figures=tuple(figures)))

    def lookup(paper_id, figure_id):
        caption = captions.get((paper_id, figure_id))
        return caption and FigureEvidence(paper_id=paper_id, figure_id=figure_id,
                                          base_figure_id=figure_id, caption=caption, context=())

    return pool, papers, lookup


class TestLeakageProperty:
    @settings(max_examples=40, deadline=None)
    @given(loo_inputs(), st.integers(1, 2))
    def test_no_leakage_for_any_generated_pool(self, inputs, max_workers):
        pool, papers, lookup = inputs
        report = ev.run_loo(pool=pool, coded=papers, evidence_lookup=lookup, vocab=VOCAB,
                            gateway=dual_stub_gateway_with_figures(), max_workers=max_workers)
        assert report.folds
        assert ev.find_leakage(report) == []


def failing_screen_gateway(error_type, marker):
    """`dual_stub_gateway`, with the secondary backend failing on `marker`."""
    backends = dual_stub_gateway().backends
    backends["secondary"] = RaisingBackend(backends["secondary"], error_type, marker)
    return Gateway(backends, max_attempts=1, backoff_base=0.0)


def failing_figure_gateway(error_type, marker):
    """`figure_gateway`, failing on `marker`."""
    backend = RaisingBackend(figure_gateway().backend("primary"), error_type, marker)
    return Gateway({"primary": backend}, max_attempts=1, backoff_base=0.0)


def hiding(lookup, paper_id, figure_id):
    return lambda p, f: None if (p, f) == (paper_id, figure_id) else lookup(p, f)


def row_dicts(report):
    return [r.to_dict() for r in report.rows]


class TestLooFailureRule:
    """A backend call failing with a `GatewayError` other than
    `AuthenticationError` fails its item alone: one error line, no score."""

    @pytest.mark.parametrize("error_type", ITEM_FAILURES)
    def test_stage1_keeps_earlier_verdicts_and_drops_consensus(self, error_type):
        gateway = failing_screen_gateway(error_type, "alpha")  # A1's title
        report = ev.run_stage1_loo(
            screening_pool(), gateway, ["primary", "secondary"], shots=(0,)
        )
        assert len(report.errors) == 1
        assert report.errors[0].startswith("stage1/0-shot/A1: ")
        assert "injected failure" in report.errors[0]
        scored = {
            r.model: r.counts.tp + r.counts.fp + r.counts.tn + r.counts.fn
            for r in report.rows if r.method == "0-shot"
        }
        assert scored == {"primary": 6, "secondary": 5, "consensus": 5}
        assert report.fold_counts["stage1"] == 6

    def test_stage1_authentication_error_propagates(self):
        gateway = failing_screen_gateway(AuthenticationError, "alpha")
        with pytest.raises(AuthenticationError):
            ev.run_stage1_loo(screening_pool(), gateway, ["primary", "secondary"], shots=(0,))

    @pytest.mark.parametrize("error_type", ITEM_FAILURES)
    def test_stage2_failed_figure_reported_not_scored(self, error_type):
        papers, lookup = coded_fixture()
        gateway = failing_figure_gateway(error_type, "accuracy chart")  # C1's Figure 1
        report = ev.run_stage2_loo(papers, lookup, gateway, "primary", shots=(0,))
        assert len(report.errors) == 1
        assert report.errors[0].startswith("stage2/0-shot/C1::Figure 1: ")
        without = ev.run_stage2_loo(
            papers, hiding(lookup, "C1", "Figure 1"), figure_gateway(), "primary", shots=(0,)
        )
        assert row_dicts(report) == row_dicts(without)

    @pytest.mark.parametrize("error_type", ITEM_FAILURES)
    def test_stage3_failed_figure_reported_not_scored(self, error_type):
        papers, lookup = coded_fixture()
        gateway = failing_figure_gateway(error_type, "gradient heatmap")  # C2's Figure 1
        report = ev.run_stage3_loo(papers, lookup, VOCAB, gateway, "primary", shots=(0,))
        assert len(report.errors) == 1
        assert report.errors[0].startswith("stage3/0-shot/C2::Figure 1: ")
        assert report.fold_counts["stage3"] == 2
        without = ev.run_stage3_loo(
            papers, hiding(lookup, "C2", "Figure 1"), VOCAB, figure_gateway(), "primary",
            shots=(0,),
        )
        assert row_dicts(report) == row_dicts(without)
