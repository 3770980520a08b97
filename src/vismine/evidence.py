"""Figure evidence extraction from converted plain-text papers.

Input is the plain text produced by an external PDF converter. The text is
segmented into paragraphs, non-body fragments are stripped, caption headers
are located, and each figure's evidence is assembled as caption plus a
one-paragraph window around every in-text reference.

A hit is what the figure's own `_reference_pattern` finds in a non-caption
paragraph.  `extract_all_evidence` reads each paragraph once for the places
where a reference can start, and there matches the reference scan and the
cited number anchored (`pattern.match(paragraph, start)` still tests the
word boundary against the character before).  On an ASCII paragraph those
places are where its lower-case copy holds `fig`, which is exact because
on ASCII text IGNORECASE matches `fig` nowhere else.  Any other paragraph
is read with one `_REF_START_RE` search, because there `lower()` is not
exact: `İ` and `ı` match `i`, and `"FİGURE".lower()` is longer.  The
paragraphs citing each number, `fig.`/`figure` followed by an ASCII digit
run, are listed, and each figure's pattern then searches only the
paragraphs listed under its number.  That prefilter is exact: every
figure's pattern is the same prefix, then its number, then a character
that is not `[0-9]`, so wherever a hit starts the scan reads exactly that
number.  The scan reads `[0-9]` like the patterns, not every Unicode digit
(`Figure 3٣` cites figure 3), and leaves the sub-figure letter rules to
the patterns.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DocumentError

logger = logging.getLogger(__name__)

MIN_BODY_TOKENS = 5

# A paragraph equal to one of these (case-insensitive, trailing punctuation
# ignored) ends the body; everything after is dropped.
SECTION_CUTOFFS = ("references", "bibliography", "acknowledgments")

_BLANK_LINE_RE = re.compile(r"\n\s*\n")
_CAPTION_RE = re.compile(
    r"^(?:fig\.|figure)\s*(\d+)\s*(?:\(?\s*([a-z])\s*\)?)?\s*[:.–—-]\s",
    re.IGNORECASE,
)
_FIGURE_ID_RE = re.compile(r"^Figure (\d+)([a-z])?$")
_REF_SCAN_RE = re.compile(
    r"\b(?:fig\.|figure)\s*(\d+)(?:([a-z])|\s*\(\s*([a-z])\s*\))?(?![0-9a-z])",
    re.IGNORECASE,
)
# The prefix every `_reference_pattern` starts with, and the number after it.
_CITED_NUMBER_RE = re.compile(r"\b(?:fig\.|figure)\s*([0-9]+)", re.IGNORECASE)
# Where either can start, searched for in paragraphs that are not ASCII.
_REF_START_RE = re.compile(r"\b(?:fig\.|figure)", re.IGNORECASE)


@dataclass(frozen=True)
class DocumentText:
    paper_id: str
    paragraphs: tuple[str, ...]
    provenance: str = ""


@dataclass(frozen=True)
class FigureEvidence:
    """Caption plus expanded local context for one figure."""

    paper_id: str
    figure_id: str
    base_figure_id: str
    caption: str
    context: tuple[str, ...]

    @property
    def assembled_evidence(self) -> str:
        return "\n\n".join([self.caption, *self.context])

    def to_dict(self) -> dict:
        return {
            "paper_id": self.paper_id,
            "figure_id": self.figure_id,
            "base_figure_id": self.base_figure_id,
            "caption": self.caption,
            "context": list(self.context),
        }


def evidence_from_dict(raw: dict) -> FigureEvidence:
    return FigureEvidence(
        paper_id=str(raw["paper_id"]),
        figure_id=str(raw["figure_id"]),
        base_figure_id=str(raw.get("base_figure_id") or base_figure_id(str(raw["figure_id"]))),
        caption=str(raw.get("caption") or ""),
        context=tuple(str(p) for p in raw.get("context") or ()),
    )


def segment_paragraphs(paper_id: str, raw_text: str, provenance: str = "") -> DocumentText:
    """Split on blank-line boundaries, trimming each block."""
    if not raw_text or not raw_text.strip():
        raise DocumentError(f"empty document for {paper_id!r}")
    blocks = [b.strip() for b in _BLANK_LINE_RE.split(raw_text)]
    return DocumentText(
        paper_id=paper_id,
        paragraphs=tuple(b for b in blocks if b),
        provenance=provenance,
    )


def _is_cutoff_header(paragraph: str) -> bool:
    return paragraph.strip().rstrip(":. ").lower() in SECTION_CUTOFFS


def _is_nonbody(paragraph: str) -> bool:
    """Too short, or no letter that is not upper case (numbers, all-caps headers)."""
    if len(paragraph.split(None, MIN_BODY_TOKENS - 1)) < MIN_BODY_TOKENS:
        return True
    return not any(c.isalpha() and not c.isupper() for c in paragraph)


def filter_nonbody(doc: DocumentText) -> DocumentText:
    """Drop non-body fragments and everything after a references header."""
    kept: list[str] = []
    for paragraph in doc.paragraphs:
        if _is_cutoff_header(paragraph):
            break
        if _is_nonbody(paragraph):
            continue
        kept.append(paragraph)
    return DocumentText(paper_id=doc.paper_id, paragraphs=tuple(kept), provenance=doc.provenance)


def canonical_figure_id(number: str, letter: str | None = None) -> str:
    return f"Figure {int(number)}{letter.lower() if letter else ''}"


def base_figure_id(figure_id: str) -> str:
    """Strip a sub-figure letter suffix: 'Figure 3a' -> 'Figure 3'."""
    m = _FIGURE_ID_RE.match(figure_id)
    if not m:
        return figure_id
    return f"Figure {m.group(1)}"


def figure_sort_key(figure_id: str) -> tuple[int, str]:
    """Document-order sort key: numeric part, then sub-figure letter."""
    m = _FIGURE_ID_RE.match(figure_id)
    if not m:
        return (1 << 30, figure_id)
    return (int(m.group(1)), m.group(2) or "")


@dataclass(frozen=True)
class _Captions:
    """A document's captions: (position, caption) by figure id, in document order."""

    by_id: dict[str, tuple[int, str]]
    positions: frozenset[int]


def _scan_captions(doc: DocumentText) -> _Captions:
    """Every caption paragraph of `doc`; for a figure captioned twice the first wins."""
    by_id: dict[str, tuple[int, str]] = {}
    for pos, paragraph in enumerate(doc.paragraphs):
        m = _CAPTION_RE.match(paragraph)
        if not m:
            continue
        figure_id = canonical_figure_id(m.group(1), m.group(2))
        if figure_id in by_id:
            logger.warning(
                "%s: duplicate caption for %s at paragraph %d; keeping first",
                doc.paper_id, figure_id, pos,
            )
            continue
        by_id[figure_id] = (pos, paragraph)
    return _Captions(by_id=by_id, positions=frozenset(pos for pos, _ in by_id.values()))


def _reference_pattern(figure_id: str) -> re.Pattern:
    m = _FIGURE_ID_RE.match(figure_id)
    if not m:
        raise DocumentError(f"not a canonical figure id: {figure_id!r}")
    number, letter = m.group(1), m.group(2)
    if letter:
        body = rf"\b(?:fig\.|figure)\s*{number}\s*\(?\s*{letter}\)?(?![0-9a-z])"
    else:
        # A trailing letter still counts: "Figure 3a" references figure 3.
        body = rf"\b(?:fig\.|figure)\s*{number}(?![0-9])"
    return re.compile(body, re.IGNORECASE)


def extract_evidence(
    doc: DocumentText,
    figure_id: str,
    captions: _Captions | None = None,
    candidates: Iterable[int] | None = None,
) -> FigureEvidence:
    """Caption plus merged one-paragraph windows around each in-text hit.

    Caption paragraphs never count as hits; the figure's own caption is
    also excluded from the context window because it already leads the
    assembled evidence.  `captions`, when given, must be
    `_scan_captions(doc)`.  Only the paragraph positions in `candidates`
    are searched, every paragraph when it is None; a caller passing
    positions must list every paragraph that can hold a hit.
    """
    if captions is None:
        captions = _scan_captions(doc)
    if figure_id not in captions.by_id:
        raise DocumentError(f"{doc.paper_id}: no caption found for {figure_id!r}")
    own_pos, caption = captions.by_id[figure_id]
    caption_positions = captions.positions

    pattern = _reference_pattern(figure_id)
    if candidates is None:
        candidates = range(len(doc.paragraphs))
    hits = [
        pos
        for pos in candidates
        if pos not in caption_positions and pattern.search(doc.paragraphs[pos])
    ]
    window: set[int] = set()
    for hit in hits:
        for pos in (hit - 1, hit, hit + 1):
            if 0 <= pos < len(doc.paragraphs):
                window.add(pos)
    window.discard(own_pos)
    context = tuple(doc.paragraphs[pos] for pos in sorted(window))
    return FigureEvidence(
        paper_id=doc.paper_id,
        figure_id=figure_id,
        base_figure_id=base_figure_id(figure_id),
        caption=caption,
        context=context,
    )


def _reference_starts(paragraph: str) -> Iterator[int]:
    """Every position of `paragraph` where `_REF_SCAN_RE` or `_CITED_NUMBER_RE` can match.

    Some positions may match neither (`xfig`); the anchored match decides.
    """
    if paragraph.isascii():
        lowered = paragraph.lower()
        start = lowered.find("fig")
        while start >= 0:
            yield start
            start = lowered.find("fig", start + 3)
    else:
        for m in _REF_START_RE.finditer(paragraph):
            yield m.start()


def extract_all_evidence(doc: DocumentText) -> list[FigureEvidence]:
    """Evidence for every captioned figure, in document order.

    Figures referenced in the text but never captioned are skipped and
    logged; they carry no caption to anchor the evidence on.  Each figure
    is searched for only in the paragraphs that cite its number.  The
    captions are scanned once per document, not once per figure.
    """
    captions = _scan_captions(doc)
    captioned = captions.by_id.keys()
    caption_positions = captions.positions
    referenced: set[str] = set()
    cited_at: dict[str, list[int]] = {}
    for pos, paragraph in enumerate(doc.paragraphs):
        if pos in caption_positions:
            continue
        numbers: set[str] = set()
        for start in _reference_starts(paragraph):
            m = _REF_SCAN_RE.match(paragraph, start)
            if m:
                referenced.add(canonical_figure_id(m.group(1), m.group(2) or m.group(3)))
            m = _CITED_NUMBER_RE.match(paragraph, start)
            if m:
                numbers.add(m.group(1))
        for number in numbers:
            cited_at.setdefault(number, []).append(pos)
    for figure_id in sorted(referenced - captioned, key=figure_sort_key):
        if base_figure_id(figure_id) in captioned:
            continue
        logger.info("%s: %s referenced but never captioned; skipped", doc.paper_id, figure_id)
    return [
        extract_evidence(doc, figure_id, captions,
                         cited_at.get(_FIGURE_ID_RE.match(figure_id).group(1), ()))
        for figure_id in captions.by_id
    ]
