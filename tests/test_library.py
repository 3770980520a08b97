"""Coded-paper library loading."""

import pytest

from vismine.errors import CorpusError
from vismine.library import coded_paper_from_dict, load_library


def coded_raw(paper_id="C1", figures=None):
    return {
        "paper_id": paper_id,
        "title": "Some coded paper",
        "abstract": "Abstract text.",
        "figures": figures if figures is not None else [
            {"figure_id": "Figure 1", "relevant": True,
             "labels": {"model_listener": ["output results"], "data_type": ["nominal"],
                        "visualization_type": "heatmap",
                        "visualization_purpose": "distribution"}},
            {"figure_id": "Figure 2", "relevant": False},
            {"figure_id": "Figure 3"},
        ],
    }


class TestCodedPaper:
    def test_label_inherits_identity(self):
        paper = coded_paper_from_dict(coded_raw())
        labels = paper.figures[0].labels
        assert labels.paper_id == "C1"
        assert labels.base_figure_id == "Figure 1"

    def test_labeled_vs_coded_views(self):
        paper = coded_paper_from_dict(coded_raw())
        assert [f.figure_id for f in paper.labeled_figures()] == ["Figure 1", "Figure 2"]
        assert [f.figure_id for f in paper.coded_figures()] == ["Figure 1"]

    def test_duplicate_figure_rejected(self):
        raw = coded_raw(figures=[{"figure_id": "Figure 1"}, {"figure_id": "Figure 1"}])
        with pytest.raises(CorpusError):
            coded_paper_from_dict(raw)

    def test_figure_without_id_rejected(self):
        with pytest.raises(CorpusError):
            coded_paper_from_dict(coded_raw(figures=[{"relevant": True}]))

    def test_roundtrip(self):
        raw = coded_raw()
        paper = coded_paper_from_dict(raw)
        assert (paper.paper_id, paper.record.title, paper.record.abstract) == (
            raw["paper_id"], raw["title"], raw["abstract"])
        assert [(f.figure_id, f.relevant) for f in paper.figures] == [
            (f["figure_id"], f.get("relevant")) for f in raw["figures"]]
        assert [f.labels is None for f in paper.figures] == [
            "labels" not in f for f in raw["figures"]]
        assert paper.figures[0].labels.as_payload() == {
            **raw["figures"][0]["labels"], "confidences": {}, "evidence": {}}


class TestLoadLibrary:
    def test_duplicate_paper_rejected(self):
        with pytest.raises(CorpusError):
            load_library([coded_raw("C1"), coded_raw("C1")])

    def test_loads_multiple(self):
        papers = load_library([coded_raw("C1"), coded_raw("C2")])
        assert [p.paper_id for p in papers] == ["C1", "C2"]
