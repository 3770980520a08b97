"""Path expansion, flow exports, yearly trends, citation weighting."""

import itertools
import random

import pytest

from vismine import analysis
from vismine.corpus import PaperRecord
from vismine.errors import AnalysisError
from vismine.vocab import FIELDS, FrameworkLabels, load_vocabulary

VOCAB = load_vocabulary()


def labels(paper_id="p1", base="Figure 1", listeners=("output results",),
           data=("nominal",), vis="statistical chart", purpose="performance evaluation"):
    return FrameworkLabels(
        paper_id=paper_id,
        base_figure_id=base,
        listeners=tuple(listeners),
        data_types=tuple(data),
        vis_type=vis,
        vis_purpose=purpose,
        confidences={},
        evidence={},
    )


class TestExpandPaths:
    def test_two_listeners_one_data_type(self):
        result = analysis.expand_paths(
            labels(listeners=("input data", "output results"), data=("nominal",))
        )
        assert len(result) == 2
        assert {(p.listener, p.data_type) for p in result} == {
            ("input data", "nominal"),
            ("output results", "nominal"),
        }
        assert all(p.vis_type == "statistical chart" for p in result)

    def test_all_singletons(self):
        assert len(analysis.expand_paths(labels())) == 1

    def test_matches_nested_loop_oracle(self):
        record = labels(
            listeners=("input data",),
            data=("relational", "temporal"),
        )
        result = analysis.expand_paths(record)
        oracle = []
        for listener in record.listeners:
            for data_type in record.data_types:
                for vis in (record.vis_type,):
                    for purpose in (record.vis_purpose,):
                        oracle.append((listener, data_type, vis, purpose))
        assert [(p.listener, p.data_type, p.vis_type, p.vis_purpose) for p in result] == oracle
        assert len(result) == 2

    def test_random_assignments_product_property(self):
        rng = random.Random(42)
        listeners_all = list(VOCAB.values("model_listener"))
        data_all = list(VOCAB.values("data_type"))
        for _ in range(50):
            record = labels(
                listeners=tuple(rng.sample(listeners_all, rng.randint(1, 5))),
                data=tuple(rng.sample(data_all, rng.randint(1, 4))),
                vis=rng.choice(VOCAB.values("visualization_type")),
                purpose=rng.choice(VOCAB.values("visualization_purpose")),
            )
            expanded = analysis.expand_paths(record)
            oracle_count = sum(
                1 for _ in itertools.product(
                    record.listeners, record.data_types, [record.vis_type], [record.vis_purpose]
                )
            )
            assert len(expanded) == oracle_count
            assert oracle_count == len(record.listeners) * len(record.data_types)

    def test_empty_field_rejected(self):
        with pytest.raises(AnalysisError):
            analysis.expand_paths(labels(listeners=()))


class TestSankeyExport:
    def test_shared_listener_node_total(self):
        paths = analysis.expand_all(
            [labels(base="Figure 1"), labels(base="Figure 2")]
        )
        export = analysis.sankey_export(paths)
        node = next(
            n for n in export["nodes"]
            if n["stage"] == "model_listener" and n["category"] == "output results"
        )
        assert node["total"] == 2

    def test_stage_totals_conserve_path_count(self):
        figure_labels = [
            labels(base="Figure 1", listeners=("input data", "output results"),
                   data=("nominal", "temporal")),
            labels(base="Figure 2", listeners=("model structure",), vis="heatmap"),
            labels(base="Figure 3", data=("relational",), purpose="distribution"),
        ]
        paths = analysis.expand_all(figure_labels)
        export = analysis.sankey_export(paths)
        for fname in FIELDS:
            total = sum(n["total"] for n in export["nodes"] if n["stage"] == fname)
            assert total == export["path_count"] == len(paths)

    def test_link_counts_match_brute_force_tally(self):
        figure_labels = [
            labels(base="Figure 1", listeners=("input data", "output results")),
            labels(base="Figure 2", listeners=("input data",), data=("temporal",)),
            labels(base="Figure 3", vis="heatmap", purpose="distribution"),
        ]
        paths = analysis.expand_all(figure_labels)
        export = analysis.sankey_export(paths)
        tally = {}
        for p in paths:
            chain = [p.listener, p.data_type, p.vis_type, p.vis_purpose]
            for i in range(3):
                key = (FIELDS[i], chain[i], FIELDS[i + 1], chain[i + 1])
                tally[key] = tally.get(key, 0) + 1
        exported = {
            (l["source_stage"], l["source"], l["target_stage"], l["target"]): l["value"]
            for l in export["links"]
        }
        assert exported == tally

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            analysis.sankey_export([])


class TestEdgeFlows:
    def test_edge_count_differs_from_chain_count(self):
        record = labels(listeners=("input data", "output results"),
                        data=("nominal", "temporal"))
        chains = analysis.expand_paths(record)
        edges = analysis.edge_flows([record])
        # 2x2 chains -> 4 full paths, but 2*2 + 2*1 + 1*1 = 7 stage edges.
        assert len(chains) == 4
        assert edges["edge_count"] == 7

    def test_edge_tally(self):
        record = labels(listeners=("input data",), data=("nominal",))
        edges = analysis.edge_flows([record])
        assert edges["edge_count"] == 3
        assert all(l["value"] == 1 for l in edges["links"])


def paper_label(paper_id, year, citations, categories=("output results",)):
    return analysis.PaperLabels(
        paper_id=paper_id,
        year=year,
        citation_count=citations,
        values={"model_listener": tuple(categories)},
    )


class TestPaperLevelLabels:
    def test_union_over_figures(self):
        figure_labels = [
            labels(paper_id="p1", base="Figure 1", listeners=("input data",)),
            labels(paper_id="p1", base="Figure 2", listeners=("output results",)),
            labels(paper_id="p2", base="Figure 1", listeners=("model structure",)),
        ]
        papers = {
            "p1": PaperRecord(paper_id="p1", title="t", year=2020, citation_count=10),
            "p2": PaperRecord(paper_id="p2", title="t", year=2021),
        }
        lifted = analysis.paper_level_labels(figure_labels, papers)
        assert len(lifted) == 2
        p1 = next(p for p in lifted if p.paper_id == "p1")
        assert set(p1.values["model_listener"]) == {"input data", "output results"}
        assert p1.year == 2020
        assert p1.citation_count == 10


class TestYearlyProportions:
    def test_three_of_four_carriers(self):
        papers = [
            paper_label("a", 2020, 1, ("output results",)),
            paper_label("b", 2020, 1, ("output results",)),
            paper_label("c", 2020, 1, ("output results",)),
            paper_label("d", 2020, 1, ("input data",)),
        ]
        rows = analysis.yearly_proportions(papers, "model_listener")
        out = next(r for r in rows if r["category"] == "output results")
        assert out["proportion"] == 0.75
        assert out["papers"] == 4

    def test_single_paper_year_binary(self):
        papers = [paper_label("a", 2019, 0, ("output results",))]
        rows = analysis.yearly_proportions(papers, "model_listener")
        assert all(r["proportion"] in (0.0, 1.0) for r in rows)

    def test_six_paper_two_year_hand_count(self):
        papers = [
            paper_label("a", 2020, 0, ("output results", "input data")),
            paper_label("b", 2020, 0, ("output results",)),
            paper_label("c", 2020, 0, ("input data",)),
            paper_label("d", 2021, 0, ("output results",)),
            paper_label("e", 2021, 0, ("output results",)),
            paper_label("f", 2021, 0, ("output results",)),
        ]
        rows = analysis.yearly_proportions(papers, "model_listener")
        table = {(r["year"], r["category"]): r["proportion"] for r in rows}
        assert table[(2020, "output results")] == pytest.approx(2 / 3)
        assert table[(2020, "input data")] == pytest.approx(2 / 3)
        assert table[(2021, "output results")] == 1.0
        assert (2021, "input data") not in table

    def test_undated_papers_omitted(self):
        papers = [paper_label("a", None, 0)]
        assert analysis.yearly_proportions(papers, "model_listener") == []


class TestCitationWeight:
    def test_reference_example(self):
        assert analysis.citation_weight(70, 2020, 2026) == 10.0

    def test_zero_citations(self):
        assert analysis.citation_weight(0, 2015, 2026) == 0.0

    def test_publication_in_reference_year(self):
        assert analysis.citation_weight(5, 2026, 2026) == 5.0

    def test_future_year_rejected(self):
        with pytest.raises(AnalysisError):
            analysis.citation_weight(5, 2027, 2026)


class TestWeightedCoverage:
    def four_paper_fixture(self):
        return [
            paper_label("a", 2020, 70, ("output results",)),          # w = 10.0
            paper_label("b", 2024, 30, ("output results",)),          # w = 10.0
            paper_label("c", 2022, 0, ("input data",)),               # w = 0.0
            paper_label("d", 2022, 25, ("input data", "output results")),  # w = 5.0
        ]

    def test_hand_computed_shares(self):
        rows = analysis.weighted_coverage(self.four_paper_fixture(), "model_listener",
                                          reference_year=2026)
        table = {r["category"]: r for r in rows}
        # Hand computation: weights a=10, b=10, c=0, d=5; total 25.
        assert table["output results"]["prevalence"] == pytest.approx(0.75, abs=1e-9)
        assert table["output results"]["weighted_share"] == pytest.approx(25 / 25, abs=1e-9)
        assert table["input data"]["prevalence"] == pytest.approx(0.5, abs=1e-9)
        assert table["input data"]["weighted_share"] == pytest.approx(5 / 25, abs=1e-9)

    def test_single_paper_everything_full(self):
        rows = analysis.weighted_coverage(
            [paper_label("a", 2020, 4, ("output results",))], "model_listener", 2026
        )
        assert rows[0]["prevalence"] == 1.0
        assert rows[0]["weighted_share"] == 1.0

    def test_zero_total_weight_flagged(self):
        rows = analysis.weighted_coverage(
            [paper_label("a", 2020, 0), paper_label("b", 2021, 0)], "model_listener", 2026
        )
        assert all(r["weighted_flagged"] for r in rows)
        assert all(r["weighted_share"] is None for r in rows)

    def test_uncounted_papers_only_in_prevalence(self):
        papers = [
            paper_label("a", 2020, 70, ("output results",)),
            analysis.PaperLabels(paper_id="b", year=2020, citation_count=None,
                                 values={"model_listener": ("output results",)}),
        ]
        rows = analysis.weighted_coverage(papers, "model_listener", 2026)
        row = rows[0]
        assert row["prevalence"] == 1.0
        assert row["weighted_share"] == 1.0  # paper b excluded from weights

    def test_shares_within_unit_interval(self):
        rng = random.Random(8)
        listeners_all = list(VOCAB.values("model_listener"))
        papers = [
            paper_label(f"p{i}", rng.randint(2010, 2026), rng.randint(0, 200),
                        tuple(rng.sample(listeners_all, rng.randint(1, 3))))
            for i in range(20)
        ]
        for row in analysis.weighted_coverage(papers, "model_listener", 2026):
            assert 0.0 <= row["prevalence"] <= 1.0
            assert 0.0 <= row["weighted_share"] <= 1.0

    def test_empty_scope_rejected(self):
        with pytest.raises(AnalysisError):
            analysis.weighted_coverage([], "model_listener", 2026)
