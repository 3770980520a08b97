"""Figure retrieval with caption upweighting, normalization, aggregation."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vismine import stage3
from vismine.errors import StageError
from vismine.evidence import FigureEvidence
from vismine.gateway import Gateway, StubBackend
from vismine.vocab import FIELDS, FrameworkLabels, LabelVocabulary, load_vocabulary
from tests.conftest import ITEM_FAILURES, RaisingBackend


def fig_evidence(paper_id, figure_id, caption, context=()):
    return FigureEvidence(
        paper_id=paper_id,
        figure_id=figure_id,
        base_figure_id=figure_id,
        caption=caption,
        context=tuple(context),
    )


def labels(paper_id="p", base="Figure 1", listeners=("output results",),
           data=("nominal",), vis="statistical chart", purpose="performance evaluation",
           confidences=None, evidence=None):
    fields = ("model_listener", "data_type", "visualization_type", "visualization_purpose")
    return FrameworkLabels(
        paper_id=paper_id,
        base_figure_id=base,
        listeners=tuple(listeners),
        data_types=tuple(data),
        vis_type=vis,
        vis_purpose=purpose,
        confidences=confidences or {f: 0.9 for f in fields},
        evidence=evidence or {f: "snippet" for f in fields},
    )


VOCAB = load_vocabulary()


class TestBuildFigureCorpus:
    def test_indexed_length_triples_caption(self):
        caption = " ".join(f"cap{i:02d}" for i in range(10))
        context = [" ".join(f"ctx{i:02d}" for i in range(30))]
        corpus = stage3.build_figure_corpus(stage3.figure_docs(
            [(fig_evidence("p1", "Figure 1", caption, context), labels())]
        ))
        assert corpus.index.doc_length("p1::Figure 1") == 60

    def test_empty_context_is_caption_times_three(self):
        caption = "alpha beta gamma"
        corpus = stage3.build_figure_corpus(stage3.figure_docs(
            [(fig_evidence("p1", "Figure 1", caption), labels())]
        ))
        assert corpus.index.doc_length("p1::Figure 1") == 9
        assert corpus.index.term_frequency("alpha", "p1::Figure 1") == 3

    def test_missing_caption_skipped_with_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            corpus = stage3.build_figure_corpus(stage3.figure_docs(
                [
                    (fig_evidence("p1", "Figure 1", ""), labels()),
                    (fig_evidence("p1", "Figure 2", "kept caption here"), labels()),
                ]
            ))
        assert corpus.index.doc_count == 1
        assert any("no caption" in r.message for r in caplog.records)

    def test_caption_upweighting_beats_equal_raw_tf(self):
        # Both figures mention "saliency" exactly once in their raw text;
        # only the caption occurrence gets tripled by indexing.
        fig_caption = fig_evidence(
            "pa", "Figure 1", "saliency overview panel detailed",
            ["the encoder processes input batches quickly"],
        )
        fig_context = fig_evidence(
            "pb", "Figure 1", "encoder overview panel detailed",
            ["the saliency signal appears once here too"],
        )
        corpus = stage3.build_figure_corpus(stage3.figure_docs(
            [(fig_caption, labels("pa")), (fig_context, labels("pb"))]
        ))
        target = fig_evidence("q", "Figure 1", "saliency")
        ranked = stage3.retrieve_similar_figures(
            target, stage3.figure_tokens(target), corpus, k=2
        )
        assert ranked[0] == "pa::Figure 1"

        # Brute-force BM25 oracle over the two upweighted documents.
        def doc_tokens(ev):
            import re

            caption_tokens = [t for t in re.findall(r"[^\W_]+", ev.caption.lower()) if len(t) > 1]
            context_tokens = [
                t for t in re.findall(r"[^\W_]+", " ".join(ev.context).lower()) if len(t) > 1
            ]
            return caption_tokens * 3 + context_tokens

        docs = {"pa::Figure 1": doc_tokens(fig_caption), "pb::Figure 1": doc_tokens(fig_context)}
        n = len(docs)
        avgdl = sum(len(t) for t in docs.values()) / n
        scores = {}
        for doc_id, tokens in docs.items():
            tf = tokens.count("saliency") * 3  # query repeats the caption term too
            df = sum(1 for t in docs.values() if "saliency" in t)
            idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))
            scores[doc_id] = idf * tf and (
                3 * idf * tokens.count("saliency") * (1.2 + 1)
                / (tokens.count("saliency") + 1.2 * (1 - 0.75 + 0.75 * len(tokens) / avgdl))
            )
        assert scores["pa::Figure 1"] > scores["pb::Figure 1"]


class TestRetrieveSimilarFigures:
    def tiered_corpus(self):
        entries = []

        def cap_text(tf, filler_base):
            tokens = ["probe"] * tf + [f"{filler_base}{i:02d}" for i in range(8 - tf)]
            return " ".join(tokens)

        for i, tf in enumerate((7, 6, 5, 4, 3), start=1):
            entries.append(
                (fig_evidence("PA", f"Figure {i}", cap_text(tf, f"pa{i}")), labels("PA"))
            )
        for i, tf in enumerate((2, 1), start=1):
            entries.append(
                (fig_evidence("PB", f"Figure {i}", cap_text(tf, f"pb{i}")), labels("PB"))
            )
        entries.append((fig_evidence("PC", "Figure 1", cap_text(1, "pc1")), labels("PC")))
        for i in range(1, 5):  # four zero-score figures
            entries.append(
                (fig_evidence("PD", f"Figure {i}", cap_text(0, f"pd{i}")), labels("PD"))
            )
        return stage3.build_figure_corpus(stage3.figure_docs(entries))

    def test_per_paper_cap(self):
        # Twelve candidates; the top five all come from PA, so the cap of 3
        # forces the remainder to the next-ranked papers.
        corpus = self.tiered_corpus()
        target = fig_evidence("q", "Figure 1", "probe")
        ranked = stage3.retrieve_similar_figures(
            target, stage3.figure_tokens(target), corpus, k=6, per_paper_cap=3
        )
        assert ranked == [
            "PA::Figure 1", "PA::Figure 2", "PA::Figure 3",
            "PB::Figure 1", "PB::Figure 2", "PC::Figure 1",
        ]

    def test_k_larger_than_corpus(self):
        entries = [
            (fig_evidence("P", f"Figure {i}", f"shared probe caption {i:02d} text"), labels("P"))
            for i in range(1, 9)
        ]
        corpus = stage3.build_figure_corpus(stage3.figure_docs(entries))
        target = fig_evidence("q", "Figure 1", "probe caption")
        assert len(stage3.retrieve_similar_figures(
            target, stage3.figure_tokens(target), corpus, k=10, per_paper_cap=10
        )) == 8

    def test_loo_excludes_target_paper(self):
        corpus = self.tiered_corpus()
        target = fig_evidence("PA", "Figure 9", "probe")
        ranked = stage3.retrieve_similar_figures(
            target, stage3.figure_tokens(target), corpus, k=6, per_paper_cap=3
        )
        assert ranked and all(not d.startswith("PA::") for d in ranked)


def echo_stub():
    """Returns the first exemplar's label payload verbatim."""

    def respond(prompt):
        for line in prompt.splitlines():
            if line.startswith("Labels: "):
                return line[len("Labels: "):]
        return "no exemplars"

    return StubBackend("echo", respond)


class TestExtractLabels:
    def test_echo_stub_returns_nearest_exemplar_labels(self):
        gateway = Gateway({"echo": echo_stub()})
        nearest = labels("L", listeners=("input data",), vis="heatmap")
        exemplars = [
            (fig_evidence("L", "Figure 1", "nearest caption"), nearest),
            (fig_evidence("L", "Figure 2", "farther caption"), labels("L")),
        ]
        payload = stage3.extract_labels(
            fig_evidence("T", "Figure 1", "target caption"), exemplars, gateway, "echo"
        )
        assert payload == nearest.as_payload()

    def test_malformed_reply_yields_empty_payload(self):
        gateway = Gateway({"bad": StubBackend("bad", lambda p: "¯\\_(ツ)_/¯")})
        payload = stage3.extract_labels(
            fig_evidence("T", "Figure 1", "target"), [], gateway, "bad"
        )
        assert payload == {}

    def test_five_figure_fixture_hand_enumerated(self):
        # The stub echoes the first exemplar, so each target's payload is
        # exactly the gold labels supplied first.
        gateway = Gateway({"echo": echo_stub()})
        golds = [
            labels("L", listeners=("input data",)),
            labels("L", listeners=("model structure",), vis="node-link diagram"),
            labels("L", listeners=("output results",), purpose="distribution"),
            labels("L", data=("temporal",)),
            labels("L", vis="heatmap"),
        ]
        for i, gold in enumerate(golds, 1):
            exemplars = [(fig_evidence("L", f"Figure {i}", "cap"), gold)]
            payload = stage3.extract_labels(
                fig_evidence("T", f"Figure {i}", "target"), exemplars, gateway, "echo"
            )
            assert payload == gold.as_payload()


# What `parse_json_payload` can hand `normalize_labels`: an object of any
# JSON values, keyed mostly by the payload's own field names, with
# vocabulary and alias surface forms among the strings.
PAYLOAD_KEYS = st.sampled_from((*FIELDS, "confidences", "evidence")) | st.text(max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(sorted({v for f in FIELDS for v in VOCAB.values(f)}
                             | {a for table in VOCAB.aliases.values() for a in table})),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(PAYLOAD_KEYS, children, max_size=4),
    max_leaves=16,
)
json_payloads = st.dictionaries(PAYLOAD_KEYS, json_values, max_size=6)


class TestNormalizeLabels:
    def norm(self, raw):
        return stage3.normalize_labels(raw, VOCAB, "p1", "Figure 1")

    def test_alias_mapping(self):
        out = self.norm({"visualization_type": "node link graph"})
        assert out.vis_type == "node-link diagram"

    def test_unknown_single_value_falls_back_to_other(self):
        out = self.norm({"visualization_type": "3D surface"})
        assert out.vis_type == "other"

    def test_confidence_clipping(self):
        out = self.norm({"confidences": {"visualization_type": -0.2, "data_type": 1.7}})
        assert out.confidences["visualization_type"] == 0.0
        assert out.confidences["data_type"] == 1.0

    def test_listener_unmatched_dropped_and_flagged(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            out = self.norm({"model_listener": ["quantum flux"]})
        assert out.listeners == ()
        assert "model_listener:empty" in out.flags
        assert any("dropped unmatched" in r.message for r in caplog.records)

    def test_listener_alias_survives(self):
        out = self.norm({"model_listener": ["Predictions", "weights"]})
        assert out.listeners == ("learnable parameters", "output results")

    def test_data_type_unmatched_becomes_other(self):
        out = self.norm({"data_type": ["hologram"]})
        assert out.data_types == ("other",)

    def test_empty_payload_total_function(self):
        out = self.norm({})
        assert out.data_types == ("other",)
        assert out.vis_type == "other"
        assert out.vis_purpose == "other"
        assert out.listeners == ()
        assert "model_listener:empty" in out.flags

    def test_evidence_truncated(self):
        out = self.norm({"evidence": {"data_type": "x" * 1000}})
        assert len(out.evidence["data_type"]) == 240

    def test_case_and_whitespace_insensitive(self):
        out = self.norm({"visualization_purpose": "  Performance   EVALUATION "})
        assert out.vis_purpose == "performance evaluation"

    def test_idempotent(self):
        payloads = [
            {"model_listener": ["outputs", "weights"], "data_type": ["graph"],
             "visualization_type": "scatter plot", "visualization_purpose": "projection",
             "confidences": {"model_listener": 2.0}, "evidence": {"data_type": "e" * 500}},
            {"visualization_type": "unheard of"},
            {},
        ]
        for raw in payloads:
            once = self.norm(raw)
            twice = stage3.normalize_labels(once.as_payload(), VOCAB, "p1", "Figure 1")
            assert twice == once

    @settings(max_examples=300, deadline=None)
    @given(json_payloads)
    @example({"evidence": "quoted text"})
    @example({"confidences": [0.9]})
    @example({"confidences": {"data_type": 10**400}})
    def test_any_json_payload_is_total_and_idempotent(self, raw):
        once = self.norm(raw)
        twice = stage3.normalize_labels(once.as_payload(), VOCAB, "p1", "Figure 1")
        assert twice == once


class TestAggregateSubfigures:
    def test_union_multi_label(self):
        merged = stage3.aggregate_subfigures(
            [labels(listeners=("input data",)), labels(listeners=("output results",))],
            VOCAB,
        )
        assert merged.listeners == ("input data", "output results")

    def test_majority_vote(self):
        merged = stage3.aggregate_subfigures(
            [labels(vis="heatmap"), labels(vis="heatmap"), labels(vis="statistical chart")],
            VOCAB,
        )
        assert merged.vis_type == "heatmap"

    def test_tie_resolves_to_other(self):
        merged = stage3.aggregate_subfigures(
            [labels(vis="heatmap"), labels(vis="statistical chart")], VOCAB
        )
        assert merged.vis_type == "other"

    def test_no_strict_majority_resolves_to_other(self):
        merged = stage3.aggregate_subfigures(
            [labels(purpose="distribution"), labels(purpose="I/O relationship"),
             labels(purpose="performance evaluation")],
            VOCAB,
        )
        assert merged.vis_purpose == "other"

    def test_confidence_mean(self):
        parts = [
            labels(confidences={"visualization_type": 0.4, "model_listener": 1.0,
                                "data_type": 0.0, "visualization_purpose": 0.5}),
            labels(confidences={"visualization_type": 0.8, "model_listener": 0.5,
                                "data_type": 1.0, "visualization_purpose": 0.5}),
        ]
        merged = stage3.aggregate_subfigures(parts, VOCAB)
        assert merged.confidences["visualization_type"] == pytest.approx(0.6)
        assert merged.confidences["model_listener"] == pytest.approx(0.75)

    def test_permutation_invariant(self):
        rng = random.Random(11)
        parts = [
            labels(listeners=("input data",), vis="heatmap",
                   confidences={"model_listener": 0.2, "data_type": 0.4,
                                "visualization_type": 0.9, "visualization_purpose": 0.1},
                   evidence={"model_listener": "aa", "data_type": "bb",
                             "visualization_type": "cc", "visualization_purpose": "dd"}),
            labels(listeners=("transient state",), vis="heatmap",
                   confidences={"model_listener": 0.9, "data_type": 0.4,
                                "visualization_type": 0.2, "visualization_purpose": 0.8},
                   evidence={"model_listener": "ee", "data_type": "ff",
                             "visualization_type": "gg", "visualization_purpose": "hh"}),
            labels(listeners=("output results",), vis="statistical chart"),
        ]
        baseline = stage3.aggregate_subfigures(parts, VOCAB)
        for _ in range(6):
            shuffled = parts[:]
            rng.shuffle(shuffled)
            assert stage3.aggregate_subfigures(shuffled, VOCAB) == baseline

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_order_of_any_parts_gives_one_result(self, data):
        def values(field):
            return st.lists(st.sampled_from(sorted(VOCAB.values(field))), max_size=3)

        unit = st.floats(min_value=0.0, max_value=1.0)
        part = st.builds(
            labels,
            listeners=values("model_listener"),
            data=values("data_type"),
            vis=st.sampled_from(sorted(VOCAB.values("visualization_type"))),
            purpose=st.sampled_from(sorted(VOCAB.values("visualization_purpose"))),
            confidences=st.fixed_dictionaries({f: unit for f in FIELDS}),
            evidence=st.fixed_dictionaries({f: st.sampled_from(["", "a", "b"]) for f in FIELDS}),
        )
        parts = data.draw(st.lists(part, min_size=1, max_size=5))
        shuffled = data.draw(st.permutations(parts))
        assert stage3.aggregate_subfigures(shuffled, VOCAB) == (
            stage3.aggregate_subfigures(parts, VOCAB))

    def test_union_never_loses_values(self):
        rng = random.Random(3)
        listeners_all = list(VOCAB.values("model_listener"))
        for _ in range(30):
            parts = [
                labels(listeners=tuple(rng.sample(listeners_all, rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4))
            ]
            merged = stage3.aggregate_subfigures(parts, VOCAB)
            for part in parts:
                assert set(part.listeners) <= set(merged.listeners)

    def test_a_listener_from_one_part_clears_the_empty_flag(self):
        # The first part's only listener is unmatched, so it alone has none.
        empty = stage3.normalize_labels({"model_listener": ["nonsense"]}, VOCAB, "p", "Figure 1")
        full = stage3.normalize_labels({"model_listener": ["output results"]}, VOCAB, "p",
                                       "Figure 1")
        assert empty.flags == ("model_listener:empty",)
        for parts in ([empty, full], [full, empty]):
            merged = stage3.aggregate_subfigures(parts, VOCAB)
            assert merged.listeners == ("output results",)
            assert merged.flags == ()
            assert merged.to_dict()["flags"] == []
        both_empty = stage3.aggregate_subfigures([empty, empty], VOCAB)
        assert both_empty.to_dict()["flags"] == ["model_listener:empty"]

    def test_mixed_base_ids_rejected(self):
        with pytest.raises(StageError):
            stage3.aggregate_subfigures(
                [labels(base="Figure 1"), labels(base="Figure 2")], VOCAB
            )

    def test_empty_rejected(self):
        with pytest.raises(StageError):
            stage3.aggregate_subfigures([], VOCAB)


# The packaged vocabulary without the data type "other", so that both
# multi-value fields can end up without a value.
NO_OTHER = LabelVocabulary(
    categories={**VOCAB.categories,
                "data_type": tuple(v for v in VOCAB.values("data_type") if v != "other")},
    aliases=VOCAB.aliases,
)


def flags_of_values(labels):
    """`<field>:empty` of each empty multi-value field, sorted: the flags a row shows."""
    empty = [f for f, values in (("model_listener", labels.listeners),
                                 ("data_type", labels.data_types)) if not values]
    return sorted(f"{f}:empty" for f in empty)


class TestFlagsFollowTheValues:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([VOCAB, NO_OTHER]), st.lists(json_payloads, min_size=1, max_size=4))
    def test_normalized_and_merged_flags_are_those_of_the_values(self, vocab, payloads):
        parts = [stage3.normalize_labels(raw, vocab, "p", "Figure 1") for raw in payloads]
        for labels in (*parts, stage3.aggregate_subfigures(parts, vocab)):
            assert list(labels.flags) == labels.to_dict()["flags"] == flags_of_values(labels)


class TestRunStage3:
    @pytest.mark.parametrize("error_type", ITEM_FAILURES)
    def test_failed_figure_queued_alone(self, error_type):
        corpus = stage3.build_figure_corpus(stage3.figure_docs([
            (fig_evidence("L1", "Figure 1", "accuracy chart"), labels("L1", vis="heatmap")),
        ]))
        targets = [
            fig_evidence("T1", "Figure 1", "accuracy chart by epoch"),
            fig_evidence("T1", "Figure 2", "a scenic accuracy photograph"),
            fig_evidence("T2", "Figure 1", "accuracy chart by class"),
        ]
        backend = RaisingBackend(echo_stub(), error_type, "scenic")
        gateway = Gateway({"echo": backend}, max_attempts=1, backoff_base=0.0)
        result = stage3.run_stage3(targets, corpus, VOCAB, gateway, "echo")
        [(paper_id, figure_id, message)] = result.retry
        assert (paper_id, figure_id) == ("T1", "Figure 2")
        assert "injected failure" in message
        assert [(l.paper_id, l.base_figure_id, l.vis_type) for l in result.labels] == [
            ("T1", "Figure 1", "heatmap"), ("T2", "Figure 1", "heatmap"),
        ]
