"""Controlled vocabulary data, alias lookup, and label records."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _fold_oracle(value: str) -> str:
    return re.sub(r"\s+", " ", value.strip().lower())


def canonical_oracle(v: vocab.LabelVocabulary, fname: str, value: str) -> str | None:
    """`LabelVocabulary.canonical` as it was before its lookup table: the reference."""
    folded = _fold_oracle(str(value))
    if not folded:
        return None
    for category in v.values(fname):
        if _fold_oracle(category) == folded:
            return category
    alias = v.aliases.get(fname, {})
    target = {_fold_oracle(k): t for k, t in alias.items()}.get(folded)
    if target is not None:
        return canonical_oracle(v, fname, target)
    return None


# Few letters and several kinds of space, so folds collide often; alias
# surfaces share "a" with the categories, so some fold like one.
surface = st.text(st.sampled_from("aAbB \t\n"), max_size=4)
alias_surface = st.text(st.sampled_from("aAcC \t"), max_size=3)


@st.composite
def vocabularies(draw):
    categories = {f: tuple(draw(st.lists(surface, min_size=1, max_size=4))) for f in vocab.FIELDS}
    aliases = {}
    for fname in draw(st.lists(st.sampled_from(vocab.FIELDS), unique=True)):
        # A target must fold to a category; it may differ from it in case and spacing.
        targets = st.sampled_from(categories[fname]).flatmap(
            lambda c: st.sampled_from([c, c.upper(), f" {c}\t", c.replace(" ", "  ")]))
        aliases[fname] = draw(st.dictionaries(alias_surface, targets, max_size=6))
    return vocab.LabelVocabulary(categories=categories, aliases=aliases)


class TestCanonicalTable:
    @settings(max_examples=300, deadline=None)
    @given(vocabularies(), st.data())
    def test_matches_the_reference(self, v, data):
        known = [s for f in vocab.FIELDS for s in (*v.categories[f], *v.aliases.get(f, {}))]
        for _ in range(8):
            fname = data.draw(st.sampled_from([*vocab.FIELDS, "color_scheme"]))
            value = data.draw(st.one_of(surface, alias_surface, st.sampled_from(known)))
            try:
                expected = canonical_oracle(v, fname, value)
            except VocabularyError:
                with pytest.raises(VocabularyError):
                    v.canonical(fname, value)
            else:
                assert v.canonical(fname, value) == expected, (fname, value)

    def test_packaged_vocabulary_matches_the_reference(self):
        v = vocab.load_vocabulary()
        for fname in vocab.FIELDS:
            for value in (*v.categories[fname], *v.aliases.get(fname, {}), "nothing", " "):
                for variant in (value, value.upper(), f"  {value} "):
                    assert v.canonical(fname, variant) == canonical_oracle(v, fname, variant)


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
