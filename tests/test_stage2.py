"""Figure relevance classification and representative selection."""

import random

import pytest

from vismine import gateway as gateway_mod
from vismine import stage2
from vismine.corpus import PaperRecord
from vismine.errors import StageError, TransientBackendError
from vismine.evidence import FigureEvidence
from vismine.gateway import Gateway, KeywordStubBackend, StubBackend, StubRules
from tests.conftest import ITEM_FAILURES, RaisingBackend
from vismine.library import CodedFigure, CodedPaper
from vismine.stage1 import paper_doc


def record(paper_id, title, abstract=""):
    return PaperRecord(paper_id=paper_id, title=title, abstract=abstract)


def fig_evidence(paper_id, figure_id, caption, context=()):
    return FigureEvidence(
        paper_id=paper_id,
        figure_id=figure_id,
        base_figure_id=figure_id,
        caption=caption,
        context=tuple(context),
    )


def verdict(figure_id, relevant=True, confidence=0.9, role=None, paper_id="p1"):
    return stage2.RelevanceVerdict(
        paper_id=paper_id,
        figure_id=figure_id,
        relevant=relevant,
        confidence=confidence,
        evidence="e",
        role=role,
    )


def coded_library(n, with_figures=True):
    papers = []
    for i in range(n):
        figures = ()
        if with_figures:
            figures = (
                CodedFigure(figure_id="Figure 1", relevant=True),
                CodedFigure(figure_id="Figure 2", relevant=False),
            )
        papers.append(
            CodedPaper(
                record=record(f"L{i:02d}", f"saliency study number {i} of models"),
                figures=figures,
            )
        )
    return papers


def evidence_table(library):
    table = {}
    for paper in library:
        for figure in paper.figures:
            table[(paper.paper_id, figure.figure_id)] = fig_evidence(
                paper.paper_id, figure.figure_id,
                f"{figure.figure_id}: exemplar caption for {paper.paper_id} with detail.",
            )
    return lambda pid, fid: table.get((pid, fid))


def figure_gateway():
    rules = StubRules(
        figure_keywords=("accuracy", "gradient"),
        role_rules=(("accuracy", "performance"), ("pipeline", "overview"),
                    ("gradient", "mechanism")),
    )
    return Gateway({"primary": KeywordStubBackend("primary", rules)})


class TestRetrieveNeighbors:
    @staticmethod
    def neighbors(target, library, k=5):
        return stage2.retrieve_neighbor_papers(paper_doc(target), stage2.library_index(library), k=k)

    def test_full_library_returns_k(self):
        library = coded_library(46)
        target = record("T", "saliency study of models")
        neighbors = self.neighbors(target, library, k=5)
        assert len(neighbors) == 5

    def test_small_library_truncates(self):
        library = coded_library(3)
        target = record("T", "saliency study of models")
        assert len(self.neighbors(target, library, k=5)) == 3

    def test_loo_target_excluded(self):
        library = coded_library(6)
        target = library[0].record
        neighbors = self.neighbors(target, library, k=5)
        assert target.paper_id not in neighbors

    def test_empty_library_error(self):
        with pytest.raises(StageError):
            self.neighbors(record("T", "anything"), [], k=5)


class TestSampleExemplars:
    def test_per_paper_and_total_caps(self):
        papers = []
        for i in range(3):
            figures = tuple(
                CodedFigure(figure_id=f"Figure {j}", relevant=(j % 2 == 1))
                for j in range(1, 7)
            )
            papers.append(CodedPaper(record=record(f"L{i}", f"paper {i}"), figures=figures))
        lookup = evidence_table(papers)
        exemplars = stage2.sample_exemplars([p.paper_id for p in papers], papers, lookup)
        assert len(exemplars.pairs) <= 8
        # Prompt order: the positives first, each class in neighbor, then figure, order.
        assert exemplars.exemplar_ids == (
            "L0::Figure 1", "L0::Figure 3", "L1::Figure 1", "L1::Figure 3",
            "L0::Figure 2", "L0::Figure 4", "L1::Figure 2", "L1::Figure 4")
        assert [relevant for _, relevant in exemplars.pairs] == [True] * 4 + [False] * 4
        for paper in papers:
            from_paper = [e for e, _ in exemplars.pairs if e.paper_id == paper.paper_id]
            relevant_count = sum(
                1 for e in from_paper
                if next(f for f in paper.figures if f.figure_id == e.figure_id).relevant
            )
            assert relevant_count <= 2
            assert len(from_paper) - relevant_count <= 2

    def test_unlabeled_figures_never_sampled(self):
        paper = CodedPaper(
            record=record("L0", "paper"),
            figures=(
                CodedFigure(figure_id="Figure 1", relevant=True),
                CodedFigure(figure_id="Figure 2"),  # no relevance flag
            ),
        )
        lookup = evidence_table([paper])
        exemplars = stage2.sample_exemplars(["L0"], [paper], lookup)
        assert exemplars.exemplar_ids == ("L0::Figure 1",)

    def test_missing_evidence_skipped(self):
        paper = CodedPaper(
            record=record("L0", "paper"),
            figures=(CodedFigure(figure_id="Figure 1", relevant=True),),
        )
        exemplars = stage2.sample_exemplars(["L0"], [paper], lambda p, f: None)
        assert exemplars.exemplar_ids == ()


class TestClassifyFigure:
    def test_stub_keyword_rule(self):
        gateway = figure_gateway()
        positive = fig_evidence("p1", "Figure 1", "Figure 1: accuracy across epochs rises.")
        negative = fig_evidence("p1", "Figure 2", "Figure 2: a street map of the city.")
        empty = stage2.FigureExemplarSet()
        assert stage2.classify_figure(positive, empty, gateway, "primary").relevant is True
        assert stage2.classify_figure(negative, empty, gateway, "primary").relevant is False

    def test_malformed_reply_safe_default(self):
        gateway = Gateway({"broken": StubBackend("broken", lambda p: "not json at all")})
        ev = fig_evidence("p1", "Figure 1", "Figure 1: anything goes here.")
        verdict = stage2.classify_figure(ev, stage2.FigureExemplarSet(), gateway, "broken")
        assert verdict.relevant is False
        assert verdict.confidence == 0.0

    def test_ten_figure_fixture_verdict_vector(self):
        # Hand enumeration: relevant iff the caption mentions accuracy or
        # gradient (the stub's keyword rules).
        captions = [
            ("Figure 1", "accuracy over epochs", True),
            ("Figure 2", "city traffic map", False),
            ("Figure 3", "gradient flow between layers", True),
            ("Figure 4", "a photograph of the venue", False),
            ("Figure 5", "per-class accuracy bars", True),
            ("Figure 6", "team organization chart", False),
            ("Figure 7", "gradient magnitudes histogram", True),
            ("Figure 8", "architecture pipeline sketch", False),
            ("Figure 9", "accuracy versus model size", True),
            ("Figure 10", "sponsor logos", False),
        ]
        gateway = figure_gateway()
        empty = stage2.FigureExemplarSet()
        results = [
            stage2.classify_figure(
                fig_evidence("p1", fid, f"{fid}: {text}."), empty, gateway, "primary"
            ).relevant
            for fid, text, _ in captions
        ]
        assert results == [expected for _, _, expected in captions]

    def test_role_parsed_from_payload(self):
        gateway = figure_gateway()
        ev = fig_evidence("p1", "Figure 1", "Figure 1: accuracy versus depth.")
        verdict = stage2.classify_figure(ev, stage2.FigureExemplarSet(), gateway, "primary")
        assert verdict.role == "performance"

    def test_each_response_parsed_once(self, monkeypatch):
        parsed = []
        parse = gateway_mod.parse_json_payload

        def recording_parse(raw):
            parsed.append(raw)
            return parse(raw)

        monkeypatch.setattr(gateway_mod, "parse_json_payload", recording_parse)
        gateway = figure_gateway()
        for fid, text in (("Figure 1", "accuracy versus depth"), ("Figure 2", "a city map")):
            ev = fig_evidence("p1", fid, f"{fid}: {text}.")
            stage2.classify_figure(ev, stage2.FigureExemplarSet(), gateway, "primary")
        assert len(parsed) == gateway.stats.requests == 2


class TestSelectRepresentatives:
    def test_seven_relevant_yields_three(self):
        verdicts = [verdict(f"Figure {i}", confidence=0.5 + i / 100) for i in range(1, 8)]
        assert len(stage2.select_representatives(verdicts)) == 3

    def test_two_relevant_yields_two(self):
        verdicts = [verdict("Figure 1"), verdict("Figure 2"), verdict("Figure 3", relevant=False)]
        assert len(stage2.select_representatives(verdicts)) == 2

    def test_zero_relevant_yields_empty(self):
        verdicts = [verdict("Figure 1", relevant=False), verdict("Figure 2", relevant=False)]
        assert stage2.select_representatives(verdicts) == []

    def test_one_slot_per_role_first(self):
        verdicts = [
            verdict("Figure 1", confidence=0.6, role="overview"),
            verdict("Figure 2", confidence=0.99, role="overview"),
            verdict("Figure 3", confidence=0.5, role="performance"),
            verdict("Figure 4", confidence=0.4, role="mechanism"),
            verdict("Figure 5", confidence=0.98),
        ]
        chosen = stage2.select_representatives(verdicts)
        ids = [v.figure_id for v in chosen]
        # Role slots pick the most confident per role; figure 5 cannot
        # displace the weaker mechanism slot despite higher confidence.
        assert ids == ["Figure 2", "Figure 3", "Figure 4"]

    def test_confidence_fallback_fills_slots(self):
        verdicts = [
            verdict("Figure 1", confidence=0.6, role="overview"),
            verdict("Figure 2", confidence=0.9),
            verdict("Figure 3", confidence=0.3),
            verdict("Figure 4", confidence=0.8),
        ]
        chosen = stage2.select_representatives(verdicts)
        assert [v.figure_id for v in chosen] == ["Figure 1", "Figure 2", "Figure 4"]

    def test_ties_break_by_figure_order(self):
        verdicts = [
            verdict("Figure 3", confidence=0.5),
            verdict("Figure 1", confidence=0.5),
            verdict("Figure 2", confidence=0.5),
            verdict("Figure 10", confidence=0.5),
        ]
        chosen = stage2.select_representatives(verdicts)
        assert [v.figure_id for v in chosen] == ["Figure 1", "Figure 2", "Figure 3"]

    def test_mixed_papers_rejected(self):
        with pytest.raises(StageError):
            stage2.select_representatives(
                [verdict("Figure 1", paper_id="a"), verdict("Figure 1", paper_id="b")]
            )

    def test_randomized_never_exceeds_three(self):
        rng = random.Random(2024)
        for _ in range(200):
            verdicts = [
                verdict(
                    f"Figure {i}",
                    relevant=rng.random() < 0.6,
                    confidence=round(rng.random(), 2),
                    role=rng.choice([None, "overview", "performance", "mechanism"]),
                )
                for i in range(1, rng.randint(2, 12))
            ]
            chosen = stage2.select_representatives(verdicts)
            assert len(chosen) <= 3
            assert all(v.relevant for v in chosen)
            relevant = [v for v in verdicts if v.relevant]
            assert len(chosen) == min(3, len(relevant))
            if not relevant:
                assert chosen == []

    def test_selection_deterministic(self):
        rng = random.Random(5)
        verdicts = [
            verdict(f"Figure {i}", confidence=round(rng.random(), 2),
                    role=rng.choice([None, "overview"]))
            for i in range(1, 9)
        ]
        first = stage2.select_representatives(verdicts)
        shuffled = verdicts[:]
        rng.shuffle(shuffled)
        assert stage2.select_representatives(shuffled) == first


class TestRunStage2:
    def make_inputs(self):
        library = []
        for i in range(4):
            library.append(
                CodedPaper(
                    record=record(f"L{i}", f"saliency analysis paper {i} on models"),
                    figures=(
                        CodedFigure(figure_id="Figure 1", relevant=True),
                        CodedFigure(figure_id="Figure 2", relevant=False),
                    ),
                )
            )
        lookup = evidence_table(library)
        targets = [
            (
                record("T1", "saliency target paper one"),
                [
                    fig_evidence("T1", "Figure 1", "Figure 1: accuracy trends by epoch."),
                    fig_evidence("T1", "Figure 2", "Figure 2: a scenic photograph."),
                    fig_evidence("T1", "Figure 3", "Figure 3: gradient flows visualized."),
                ],
            ),
            (
                record("T2", "saliency target paper two"),
                [fig_evidence("T2", "Figure 1", "Figure 2: conference floor plan.")],
            ),
        ]
        return targets, library, lookup

    def test_every_figure_has_exactly_one_entry(self):
        targets, library, lookup = self.make_inputs()
        result = stage2.run_stage2(targets, library, lookup, figure_gateway(), "primary")
        produced = [(v.paper_id, v.figure_id) for v in result.verdicts]
        expected = [(rec.paper_id, ev.figure_id) for rec, evs in targets for ev in evs]
        assert sorted(produced) == sorted(expected)
        assert len(produced) == len(set(produced))

    def test_roles_only_on_selected(self):
        targets, library, lookup = self.make_inputs()
        result = stage2.run_stage2(targets, library, lookup, figure_gateway(), "primary")
        for v in result.verdicts:
            if not v.selected:
                assert v.role is None

    def test_zero_relevant_paper_has_empty_selection(self):
        targets, library, lookup = self.make_inputs()
        result = stage2.run_stage2(targets, library, lookup, figure_gateway(), "primary")
        selected = {v.paper_id for v in result.verdicts if v.selected}
        assert "T2" in {v.paper_id for v in result.verdicts} and selected == {"T1"}

    def test_selected_within_relevant(self):
        targets, library, lookup = self.make_inputs()
        result = stage2.run_stage2(targets, library, lookup, figure_gateway(), "primary")
        for paper_id in {v.paper_id for v in result.verdicts}:
            sel = [v for v in result.verdicts if v.paper_id == paper_id and v.selected]
            assert all(v.relevant for v in sel)
            assert len(sel) <= 3

    def test_thread_counts_agree(self):
        targets, library, lookup = self.make_inputs()
        serial = stage2.run_stage2(targets, library, lookup, figure_gateway(), "primary",
                                   max_workers=1)
        threaded = stage2.run_stage2(targets, library, lookup, figure_gateway(), "primary",
                                     max_workers=4)
        assert [v.to_dict() for v in serial.verdicts] == [v.to_dict() for v in threaded.verdicts]

    @pytest.mark.parametrize("error_type", ITEM_FAILURES)
    def test_failed_figure_queued_alone(self, error_type):
        targets, library, lookup = self.make_inputs()
        backend = RaisingBackend(figure_gateway().backend("primary"), error_type, "scenic")
        gateway = Gateway({"primary": backend}, max_attempts=1, backoff_base=0.0)
        result = stage2.run_stage2(targets, library, lookup, gateway, "primary")
        [(paper_id, figure_id, message)] = result.retry
        assert (paper_id, figure_id) == ("T1", "Figure 2")
        assert "injected failure" in message
        assert [(v.paper_id, v.figure_id) for v in result.verdicts] == [
            ("T1", "Figure 1"), ("T1", "Figure 3"), ("T2", "Figure 1"),
        ]

    def test_empty_evidence_queued_for_retry(self):
        targets, library, lookup = self.make_inputs()
        targets[1][1].append(fig_evidence("T2", "Figure 2", ""))
        result = stage2.run_stage2(targets, library, lookup, figure_gateway(), "primary")
        assert result.retry == [("T2", "Figure 2", "empty evidence for T2::Figure 2")]
        assert len(result.verdicts) == 4

    def test_backend_failure_queues_retry(self):
        class AlwaysDown:
            name = "down"

            def complete(self, prompt):
                raise TransientBackendError("offline")

        targets, library, lookup = self.make_inputs()
        gateway = Gateway({"down": AlwaysDown()}, max_attempts=2, backoff_base=0.0)
        result = stage2.run_stage2(targets, library, lookup, gateway, "down")
        assert result.verdicts == []
        assert sorted((p, f) for p, f, _ in result.retry) == sorted(
            [(rec.paper_id, ev.figure_id) for rec, evs in targets for ev in evs]
        )
        assert all("offline" in message for _, _, message in result.retry)
