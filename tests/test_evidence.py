"""Paragraph segmentation, non-body filtering, captions, evidence windows."""

import logging

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vismine import evidence
from vismine.errors import DocumentError

# Hand-labeled synthetic document. After filtering, the body paragraphs are
# numbered 0..9 as annotated on the right.
MAIN_DOC = """\
A MODEL-CENTRIC STUDY

This opening paragraph introduces the study of machine learning models in visual analytics applications.

Figure 1: Overview pipeline of the extraction workflow with retrieval components.

As shown in Figure 1, the pipeline couples retrieval with consensus screening.

12

The second part examines figure evidence and local context expansion in detail.

Fig 2 here

Figure 2: Accuracy curves across training epochs for the evaluated models.

Early results in Figure 2 reveal stable accuracy after the tenth epoch.

A short interlude paragraph discusses datasets, baselines, and annotation protocols thoroughly.

Later analysis returns to Figure 2 for the ablation on context windows.

Fig. 3: Heatmap of attention weights grouped by layer and head.

The appendix mentions Figure 9 which has no caption anywhere in this text.

REFERENCES

[1] Some bibliography entry with enough tokens to pass filters.
"""

FILTERED_PARAGRAPHS = (
    "This opening paragraph introduces the study of machine learning models in visual analytics applications.",
    "Figure 1: Overview pipeline of the extraction workflow with retrieval components.",
    "As shown in Figure 1, the pipeline couples retrieval with consensus screening.",
    "The second part examines figure evidence and local context expansion in detail.",
    "Figure 2: Accuracy curves across training epochs for the evaluated models.",
    "Early results in Figure 2 reveal stable accuracy after the tenth epoch.",
    "A short interlude paragraph discusses datasets, baselines, and annotation protocols thoroughly.",
    "Later analysis returns to Figure 2 for the ablation on context windows.",
    "Fig. 3: Heatmap of attention weights grouped by layer and head.",
    "The appendix mentions Figure 9 which has no caption anywhere in this text.",
)

EARLY_REF_DOC = """\
Early mention of Figure 5 anchors the argument about model inspection.

An intervening paragraph describes the corpus construction and screening workflow.

Additional context about annotation and consensus policies appears here as well.

Figure 5: Distribution of categories across the coded corpus sample.
"""

SUBFIGURE_DOC = """\
Figure 4a: Left panel shows training loss for the first configuration.

Figure 4(b): Right panel shows validation loss for the second configuration.

The pair in Figure 4a contrasts with the curve of Figure 4b throughout.
"""


def filtered(doc_text, paper_id="pX"):
    return evidence.filter_nonbody(evidence.segment_paragraphs(paper_id, doc_text))


class TestSegmentation:
    def test_three_blocks(self):
        doc = evidence.segment_paragraphs("p1", "one block\n\ntwo block\n\nthree block")
        assert doc.paragraphs == ("one block", "two block", "three block")

    def test_consecutive_blank_lines(self):
        doc = evidence.segment_paragraphs("p1", "first\n\n\n\n\nsecond")
        assert doc.paragraphs == ("first", "second")
        assert all(p for p in doc.paragraphs)

    def test_empty_input_rejected(self):
        with pytest.raises(DocumentError):
            evidence.segment_paragraphs("p1", "   \n\n  ")

    def test_fixture_paragraph_count(self):
        doc = evidence.segment_paragraphs("p1", MAIN_DOC)
        assert len(doc.paragraphs) == 15  # manual count of blank-line blocks


class TestFilterNonbody:
    def test_references_cutoff(self):
        doc = filtered(MAIN_DOC)
        assert all("bibliography entry" not in p for p in doc.paragraphs)
        assert all(p != "REFERENCES" for p in doc.paragraphs)

    def test_short_fragment_removed(self):
        doc = filtered(MAIN_DOC)
        assert "Fig 2 here" not in doc.paragraphs

    def test_fixture_retention(self):
        doc = filtered(MAIN_DOC)
        assert doc.paragraphs == FILTERED_PARAGRAPHS

    def test_bare_number_removed(self):
        doc = filtered(MAIN_DOC)
        assert "12" not in doc.paragraphs

    def test_all_caps_header_removed(self):
        doc = filtered(MAIN_DOC)
        assert "A MODEL-CENTRIC STUDY" not in doc.paragraphs

    def test_bibliography_header_cuts(self):
        text = (
            "Body paragraph one with plenty of tokens to survive filtering.\n\n"
            "Bibliography\n\n"
            "Trailing entry paragraph with plenty of tokens that must disappear."
        )
        doc = filtered(text)
        assert len(doc.paragraphs) == 1


def detect_captions(doc):
    """(figure_id, caption paragraph) of each caption header, as extraction finds them."""
    return [(figure_id, caption)
            for figure_id, (_, caption) in evidence._scan_captions(doc).by_id.items()]


class TestDetectCaptions:
    def test_caption_header(self):
        doc = filtered(MAIN_DOC)
        captions = dict(detect_captions(doc))
        assert captions["Figure 2"].startswith("Figure 2: Accuracy curves")

    def test_mid_sentence_reference_not_a_caption(self):
        captions = dict(detect_captions(filtered(MAIN_DOC)))
        assert "As shown in Figure 1" not in captions.values()
        assert len(captions) == 3

    def test_canonicalization(self):
        text = (
            "Fig. 1: Short form caption with a handful of tokens.\n\n"
            "Figure 10: Two digit figure caption with several descriptive tokens."
        )
        captions = detect_captions(filtered(text))
        assert [fid for fid, _ in captions] == ["Figure 1", "Figure 10"]

    def test_duplicate_caption_keeps_first(self, caplog):
        text = (
            "Figure 1: First caption text with enough tokens here.\n\n"
            "Figure 1: Second caption text that should be ignored entirely.\n\n"
            "Some body paragraph mentioning Figure 1 for the record."
        )
        with caplog.at_level(logging.WARNING):
            captions = detect_captions(filtered(text))
        assert len(captions) == 1
        assert captions[0][1].startswith("Figure 1: First")
        assert any("duplicate caption" in r.message for r in caplog.records)

    def test_subfigure_ids(self):
        captions = detect_captions(filtered(SUBFIGURE_DOC))
        assert [fid for fid, _ in captions] == ["Figure 4a", "Figure 4b"]


class TestFigureIds:
    def test_base_id_strips_letter(self):
        assert evidence.base_figure_id("Figure 3a") == "Figure 3"
        assert evidence.base_figure_id("Figure 3") == "Figure 3"

    def test_canonicalization_idempotent(self):
        for figure_id in ("Figure 3", "Figure 3a", "Figure 12"):
            assert evidence.base_figure_id(evidence.base_figure_id(figure_id)) == (
                evidence.base_figure_id(figure_id)
            )

    def test_sort_key_numeric(self):
        ids = ["Figure 10", "Figure 2", "Figure 2a", "Figure 1"]
        assert sorted(ids, key=evidence.figure_sort_key) == [
            "Figure 1", "Figure 2", "Figure 2a", "Figure 10",
        ]


class TestExtractEvidence:
    def test_single_hit_window(self):
        doc = filtered(MAIN_DOC)
        ev = evidence.extract_evidence(doc, "Figure 1")
        # Hit at body position 2; window {1,2,3} minus the caption itself.
        assert ev.context == (FILTERED_PARAGRAPHS[2], FILTERED_PARAGRAPHS[3])
        assert ev.caption == FILTERED_PARAGRAPHS[1]

    def test_boundary_clip(self):
        doc = filtered(EARLY_REF_DOC)
        ev = evidence.extract_evidence(doc, "Figure 5")
        assert ev.context == doc.paragraphs[0:2]

    def test_merged_windows(self):
        doc = filtered(MAIN_DOC)
        ev = evidence.extract_evidence(doc, "Figure 2")
        # Hits at body positions 5 and 7; windows {4,5,6} and {6,7,8} merge,
        # then the caption position 4 drops out.
        assert ev.context == FILTERED_PARAGRAPHS[5:9]

    def test_zero_reference_caption_only(self):
        doc = filtered(MAIN_DOC)
        ev = evidence.extract_evidence(doc, "Figure 3")
        assert ev.context == ()
        assert ev.assembled_evidence == ev.caption

    def test_unknown_figure(self):
        with pytest.raises(DocumentError):
            evidence.extract_evidence(filtered(MAIN_DOC), "Figure 7")

    def test_context_strictly_increasing_without_duplicates(self):
        doc = filtered(MAIN_DOC)
        for figure_id in ("Figure 1", "Figure 2", "Figure 3"):
            ev = evidence.extract_evidence(doc, figure_id)
            positions = [doc.paragraphs.index(p) for p in ev.context]
            assert positions == sorted(set(positions))

    def test_subfigure_references(self):
        doc = filtered(SUBFIGURE_DOC)
        ev_a = evidence.extract_evidence(doc, "Figure 4a")
        ev_b = evidence.extract_evidence(doc, "Figure 4b")
        assert doc.paragraphs[2] in ev_a.context
        assert ev_b.context == (doc.paragraphs[2],)

    def test_two_digit_not_confused_with_prefix(self):
        text = (
            "Fig. 1: Caption one with the usual number of tokens.\n\n"
            "Figure 10: Caption ten with the usual number of tokens.\n\n"
            "Only Figure 10 appears in this body paragraph about results."
        )
        doc = filtered(text)
        ev1 = evidence.extract_evidence(doc, "Figure 1")
        ev10 = evidence.extract_evidence(doc, "Figure 10")
        assert ev1.context == ()
        # Window around the hit includes the preceding paragraph, but that
        # is Figure 10's own caption, so only the hit paragraph remains.
        assert ev10.context == (doc.paragraphs[2],)

    def test_extract_all_skips_uncaptioned(self, caplog):
        doc = filtered(MAIN_DOC)
        with caplog.at_level(logging.INFO):
            all_evidence = evidence.extract_all_evidence(doc)
        assert [ev.figure_id for ev in all_evidence] == ["Figure 1", "Figure 2", "Figure 3"]
        assert any("Figure 9" in r.message for r in caplog.records)

    def test_roundtrip_serialization(self):
        doc = filtered(MAIN_DOC)
        ev = evidence.extract_evidence(doc, "Figure 2")
        assert evidence.evidence_from_dict(ev.to_dict()) == ev


def reference_is_nonbody(paragraph: str) -> bool:
    """The letter-list definition `evidence._is_nonbody` must keep agreeing with."""
    letters = [c for c in paragraph if c.isalpha()]
    if not letters:
        return True  # bare numbers / page artifacts
    if all(c.isupper() for c in letters):
        return True  # all-caps header
    if len(paragraph.split()) < evidence.MIN_BODY_TOKENS:
        return True
    return False


# Letters of every case (titlecase, caseless CJK, lower-only such as "ß"),
# digits, punctuation and whitespace, so all branches of the test are hit.
paragraph_chars = st.one_of(
    st.sampled_from("aZ \n\t1.:ßǅǄǆ图あΣσ\u00a0\u2003"),
    st.characters(),
)


class TestNonbodyProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.text(paragraph_chars, max_size=40))
    def test_matches_letter_list_definition(self, paragraph):
        assert evidence._is_nonbody(paragraph) == reference_is_nonbody(paragraph)

    @pytest.mark.parametrize("paragraph", [
        "", "12 34 56 78 90", "A MODEL-CENTRIC STUDY OF MANY THINGS",
        "ǄUNGLE ǅUNGLE FIVE WORDS HERE", "图 图 图 图 图", "ß is lower case so body",
        "Fig 2 here", "This paragraph has enough plain tokens to count.",
    ])
    def test_examples_match(self, paragraph):
        assert evidence._is_nonbody(paragraph) == reference_is_nonbody(paragraph)


# Reference forms the per-figure patterns and the number scan could read
# differently: no space, leading zeros, upper case, non-ASCII digits after or
# instead of the number, two letters, parenthesised and spaced letters.  The
# non-ASCII ones are where lower-casing is not exact: dotted capital I and
# dotless i match `i`, the Kelvin sign matches a letter, and the `fi`
# ligature is no reference at all.  Then a word-internal `fig` and a tab.
NON_ASCII_REFERENCES = ["F\u0130GURE 3", "f\u0131g. 3", "Figure 3\u212a", "\ufb01gure 3"]
REFERENCE_FRAGMENTS = [
    "fig.3b", "Figure 03", "FIGURE 12", "Figure 3\u0663", "Figure \u0663", "Figure 3ab",
    "Fig. 3(b)", "Figure 3 b", "Figure 3a", "figure 1", "Fig.12", "Figure 10", "Figure\n3",
    "Figures 3", "prefigure 3", "fig 2", "Figure 12b", "the model", "(", "3",
    *NON_ASCII_REFERENCES, "xfig 3", "Fig.\t3",
]
CAPTION_HEADS = [
    "Figure 3:", "Fig. 3b.", "FIGURE 12 -", "Figure \u0663:", "Figure 03:", "Figure 3 (a):",
    "Fig.1:", "Figure 10.", "Figure 12b:", "figure 2:", "F\u0130GURE 3:", "Fig.\t3:",
]

body_paragraphs = st.tuples(
    st.lists(st.sampled_from(REFERENCE_FRAGMENTS), min_size=1, max_size=6),
    st.sampled_from([" ", "", ", "]),
).map(lambda parts: parts[1].join(parts[0]))
# Captions may cite figures too; those are never hits.
caption_paragraphs = st.tuples(st.sampled_from(CAPTION_HEADS), body_paragraphs).map(" ".join)
documents = st.lists(st.one_of(caption_paragraphs, body_paragraphs), max_size=10).map(
    lambda paragraphs: evidence.DocumentText(paper_id="p", paragraphs=tuple(paragraphs))
)


class TestPrefilterProperty:
    """`extract_all_evidence` searches only the paragraphs citing a figure's number."""

    @settings(max_examples=300, deadline=None)
    @given(documents)
    @example(evidence.DocumentText("p", ("Figure 3: c", "see F\u0130GURE 3 here", "plain text")))
    @example(evidence.DocumentText("p", ("Figure 3: c", "see Figure 3\u0663 here")))
    @example(evidence.DocumentText("p", ("Figure 3b: c", "Figure 3ab and Fig. 3(b)", "Figure 3 b")))
    @example(evidence.DocumentText("p", ("Figure 3: c", "Figure 03 or Figure \u0663", "fig.3b")))
    def test_equals_per_figure_search_of_every_paragraph(self, doc):
        expected = [evidence.extract_evidence(doc, figure_id)
                    for figure_id in evidence._scan_captions(doc).by_id]
        assert evidence.extract_all_evidence(doc) == expected

    @pytest.mark.parametrize("fragment", REFERENCE_FRAGMENTS)
    def test_each_fragment_after_a_caption(self, fragment):
        doc = evidence.DocumentText("p", ("Figure 3: c", f"see {fragment} here", "plain text"))
        expected = [evidence.extract_evidence(doc, figure_id)
                    for figure_id in evidence._scan_captions(doc).by_id]
        assert evidence.extract_all_evidence(doc) == expected


@pytest.mark.parametrize("fragment", NON_ASCII_REFERENCES[:3])
def test_non_ascii_reference_is_a_hit(fragment):
    doc = evidence.DocumentText("p", ("Figure 3: c", f"see {fragment} here", "plain text"))
    [figure] = evidence.extract_all_evidence(doc)
    assert figure.context == doc.paragraphs[1:]


def two_scan_uncaptioned_lines(doc: evidence.DocumentText) -> list[str]:
    """The "referenced but never captioned" lines of the earlier extraction,
    which scanned every non-caption paragraph in full with `_REF_SCAN_RE`."""
    captions = evidence._scan_captions(doc)
    captioned = set(captions.by_id)
    caption_positions = captions.positions
    referenced: set[str] = set()
    for pos, paragraph in enumerate(doc.paragraphs):
        if pos in caption_positions:
            continue
        for m in evidence._REF_SCAN_RE.finditer(paragraph):
            referenced.add(evidence.canonical_figure_id(m.group(1), m.group(2) or m.group(3)))
    return [
        f"{doc.paper_id}: {figure_id} referenced but never captioned; skipped"
        for figure_id in sorted(referenced - captioned, key=evidence.figure_sort_key)
        if evidence.base_figure_id(figure_id) not in captioned
    ]


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.lines: list[str] = []

    def emit(self, record):
        if record.levelno == logging.INFO:
            self.lines.append(record.getMessage())


def uncaptioned_lines(doc: evidence.DocumentText) -> list[str]:
    handler = _Lines()
    logger = logging.getLogger(evidence.__name__)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        evidence.extract_all_evidence(doc)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return handler.lines


class TestUncaptionedLogProperty:
    """The one-scan extraction logs the uncaptioned references the full scan found."""

    @settings(max_examples=300, deadline=None)
    @given(documents)
    @example(evidence.DocumentText("p", ("see F\u0130GURE 3 and f\u0131g. 4", "Figure 5\u212a")))
    @example(evidence.DocumentText("p", ("xfig 3, Fig.\t4 and \ufb01gure 5", "Figure 2: c")))
    def test_equals_two_scan_reference(self, doc):
        assert uncaptioned_lines(doc) == two_scan_uncaptioned_lines(doc)

    def test_example_lines(self):
        doc = evidence.DocumentText("p", ("see F\u0130GURE 3 and f\u0131g. 4", "Figure 5\u212a"))
        assert uncaptioned_lines(doc) == [
            f"p: Figure {n} referenced but never captioned; skipped" for n in ("3", "4", "5k")
        ]
