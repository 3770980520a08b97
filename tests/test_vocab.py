"""Controlled vocabulary data, alias lookup, and label records."""

import pytest

from vismine import vocab
from vismine.errors import VocabularyError


class TestDefaultVocabulary:
    def test_canonical_sets(self):
        v = vocab.load_vocabulary()
        assert v.values("model_listener") == (
            "input data", "training configuration", "model structure",
            "learnable parameters", "transient state", "dynamics (time)",
            "output results",
        )
        assert v.values("data_type") == (
            "multi-dimensional quantitative", "one-dimensional quantitative",
            "relational", "temporal", "nominal", "other",
        )
        assert v.values("visualization_type") == (
            "statistical chart", "node-link diagram", "parallel coordinates",
            "heatmap", "Sankey diagram", "other",
        )
        assert v.values("visualization_purpose") == (
            "performance evaluation", "I/O relationship", "distribution",
            "dimensionality reduction", "other",
        )

    def test_other_presence(self):
        v = vocab.load_vocabulary()
        assert not v.has_other("model_listener")
        assert v.has_other("data_type")
        assert v.has_other("visualization_type")
        assert v.has_other("visualization_purpose")

    def test_alias_targets_all_valid(self):
        # Construction validates every alias target; loading must not raise.
        v = vocab.load_vocabulary()
        for fname, table in v.aliases.items():
            for target in table.values():
                assert v.canonical(fname, target) is not None


class TestCanonicalLookup:
    def test_exact_match_case_insensitive(self):
        v = vocab.load_vocabulary()
        assert v.canonical("visualization_type", "HeatMap") == "heatmap"
        assert v.canonical("visualization_type", "sankey DIAGRAM") == "Sankey diagram"

    def test_alias_lookup(self):
        v = vocab.load_vocabulary()
        assert v.canonical("visualization_type", "node link graph") == "node-link diagram"
        assert v.canonical("visualization_type", "confusion matrix") == "heatmap"
        assert v.canonical("model_listener", "predictions") == "output results"

    def test_unknown_returns_none(self):
        v = vocab.load_vocabulary()
        assert v.canonical("visualization_type", "3D surface") is None
        assert v.canonical("model_listener", "") is None

    def test_unknown_field_rejected(self):
        v = vocab.load_vocabulary()
        with pytest.raises(VocabularyError):
            v.canonical("color_scheme", "viridis")

    def test_sort_values_vocabulary_order(self):
        v = vocab.load_vocabulary()
        values = ["output results", "input data", "transient state", "input data"]
        assert v.sort_values("model_listener", values) == (
            "input data", "transient state", "output results",
        )


class TestVocabularyValidation:
    def test_bad_alias_target_rejected(self):
        with pytest.raises(VocabularyError):
            vocab.LabelVocabulary(
                categories={
                    "model_listener": ("input data",),
                    "data_type": ("other",),
                    "visualization_type": ("other",),
                    "visualization_purpose": ("other",),
                },
                aliases={"visualization_type": {"spiral": "vortex chart"}},
            )

    def test_missing_field_rejected(self):
        with pytest.raises(VocabularyError):
            vocab.LabelVocabulary(categories={"model_listener": ("input data",)})


class TestFrameworkLabels:
    def make(self):
        return vocab.FrameworkLabels(
            paper_id="p1",
            base_figure_id="Figure 2",
            listeners=("input data",),
            data_types=("nominal",),
            vis_type="heatmap",
            vis_purpose="distribution",
            confidences={"model_listener": 0.5},
            evidence={"model_listener": "snippet"},
            flags=(),
        )

    def test_field_values(self):
        labels = self.make()
        assert labels.field_values("model_listener") == ("input data",)
        assert labels.field_values("visualization_type") == ("heatmap",)

    def test_roundtrip(self):
        labels = self.make()
        assert vocab.labels_from_dict(labels.to_dict()) == labels
