"""Input rows are read through `jsonl.read_object`: right-typed rows build what
the old hand-written parsers built, and a wrong-typed value is an
`InputError` naming its key."""

import copy
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vismine import corpus, jsonl
from vismine.errors import CorpusError, InputError
from vismine.evidence import FigureEvidence, base_figure_id, evidence_from_dict
from vismine.gateway import clip_confidence
from vismine.library import CodedFigure, CodedPaper, coded_paper_from_dict
from vismine.stage2 import RelevanceVerdict, verdict_from_dict
from vismine.vocab import OTHER, FrameworkLabels, labels_from_dict

ORACLE = settings(max_examples=150, deadline=None, derandomize=True)


# -- the parsers before one reader replaced them, kept as the oracle --------

def _old_int_field(raw, paper_id, name):
    value = raw.get(name)
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(
            f"record {paper_id!r}: field {name!r} is not an integer: {value!r}") from exc


def _old_record_from_dict(raw) -> corpus.PaperRecord:
    paper_id = str(raw.get("paper_id") or "").strip()
    if not paper_id:
        raise CorpusError(f"record missing paper_id: {dict(raw)!r}")
    if "::" in paper_id:
        raise CorpusError(f"record {paper_id!r}: paper_id must not contain '::', "
                          "which joins a paper id and a figure id")
    title = str(raw.get("title") or "").strip()
    if not title:
        raise CorpusError(f"record {paper_id!r} missing title")
    year = _old_int_field(raw, paper_id, "year")
    if year is not None and year < corpus.MIN_YEAR:
        raise CorpusError(f"record {paper_id!r} has implausible year {year}")
    citations = _old_int_field(raw, paper_id, "citation_count")
    if citations is not None and citations < 0:
        raise CorpusError(f"record {paper_id!r} has negative citation_count")
    label = raw.get("label")
    if label is not None and label not in corpus.LABELS:
        raise CorpusError(f"record {paper_id!r} has unknown label {label!r}")
    keywords = raw.get("author_keywords") or []
    return corpus.PaperRecord(
        paper_id=paper_id,
        title=title,
        abstract=str(raw.get("abstract") or ""),
        author_keywords=tuple(str(k) for k in keywords),
        year=year,
        venue=str(raw.get("venue") or ""),
        citation_count=citations,
        label=label,
    )


def _old_labels_from_dict(raw) -> FrameworkLabels:
    return FrameworkLabels(
        paper_id=str(raw.get("paper_id") or ""),
        base_figure_id=str(raw.get("base_figure_id") or ""),
        listeners=tuple(raw.get("model_listener") or ()),
        data_types=tuple(raw.get("data_type") or ()),
        vis_type=str(raw.get("visualization_type") or OTHER),
        vis_purpose=str(raw.get("visualization_purpose") or OTHER),
        confidences={k: float(v) for k, v in (raw.get("confidences") or {}).items()},
        evidence={k: str(v) for k, v in (raw.get("evidence") or {}).items()},
    )


def _old_coded_paper_from_dict(raw) -> CodedPaper:
    record = _old_record_from_dict(raw)
    figures = []
    seen = set()
    for fig_raw in raw.get("figures") or ():
        figure_id = str(fig_raw.get("figure_id") or "").strip()
        if not figure_id:
            raise CorpusError(f"library figure without figure_id in {record.paper_id!r}")
        if figure_id in seen:
            raise CorpusError(f"duplicate figure {figure_id!r} in {record.paper_id!r}")
        seen.add(figure_id)
        labels = None
        if fig_raw.get("labels") is not None:
            labels_raw = dict(fig_raw["labels"])
            labels_raw.setdefault("paper_id", record.paper_id)
            labels_raw.setdefault("base_figure_id", figure_id)
            labels = _old_labels_from_dict(labels_raw)
        relevant = fig_raw.get("relevant")
        figures.append(CodedFigure(figure_id=figure_id,
                                   relevant=None if relevant is None else bool(relevant),
                                   labels=labels))
    return CodedPaper(record=record, figures=tuple(figures))


def _old_evidence_from_dict(raw) -> FigureEvidence:
    return FigureEvidence(
        paper_id=str(raw["paper_id"]),
        figure_id=str(raw["figure_id"]),
        base_figure_id=str(raw.get("base_figure_id") or base_figure_id(str(raw["figure_id"]))),
        caption=str(raw.get("caption") or ""),
        context=tuple(str(p) for p in raw.get("context") or ()),
    )


def _old_verdict_from_dict(raw) -> RelevanceVerdict:
    return RelevanceVerdict(
        paper_id=str(raw["paper_id"]),
        figure_id=str(raw["figure_id"]),
        relevant=bool(raw.get("relevant")),
        confidence=clip_confidence(raw.get("confidence")),
        evidence=str(raw.get("evidence") or ""),
        role=raw.get("role"),
        selected=bool(raw.get("selected")),
    )


# -- rows whose values have their documented JSON types ----------------------

def _some(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


def _or_null(strategy):
    """A key left out or null takes its default."""
    return strategy | st.none()


_text = st.text(max_size=6)
_id = st.sampled_from(["P1", " P2 ", "Figure 3b", ""]) | _text
_texts = st.lists(_text, max_size=3)
_number = st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False)
_record = dict(
    paper_id=_or_null(_id), title=_or_null(_id), abstract=_or_null(_text),
    author_keywords=_or_null(_texts), year=_or_null(st.integers(1985, 2030)),
    venue=_or_null(_text), citation_count=_or_null(st.integers(-2, 10**6)),
    label=_or_null(st.sampled_from(["positive", "negative", "neither"])),
)
# A library label's ids are strings or left out: a null one now takes the
# paper's or figure's id, where it used to read as "".
_labels = _some(
    paper_id=_id, base_figure_id=_id, model_listener=_or_null(_texts),
    data_type=_or_null(_texts), visualization_type=_or_null(_text),
    visualization_purpose=_or_null(_text),
    confidences=_or_null(st.dictionaries(_text, _number, max_size=3)),
    evidence=_or_null(st.dictionaries(_text, _text, max_size=3)), flags=_or_null(_texts),
)
_figure = _some(figure_id=_or_null(_id), relevant=_or_null(st.booleans()),
                labels=_or_null(_labels))
ROWS = {
    "record": (corpus.record_from_dict, _old_record_from_dict, _some(**_record)),
    "library": (coded_paper_from_dict, _old_coded_paper_from_dict,
                _some(**_record, figures=_or_null(st.lists(_figure, max_size=3)))),
    "labels": (labels_from_dict, _old_labels_from_dict, _labels),
    "evidence": (evidence_from_dict, _old_evidence_from_dict, _some(
        {"paper_id": _id, "figure_id": _id}, base_figure_id=_or_null(_id),
        caption=_or_null(_text), context=_or_null(_texts))),
    "verdict": (verdict_from_dict, _old_verdict_from_dict, _some(
        {"paper_id": _id, "figure_id": _id}, relevant=_or_null(st.booleans()),
        confidence=_or_null(_number), evidence=_or_null(_text), role=_or_null(_text),
        selected=_or_null(st.booleans()))),
}


def _outcome(parse, raw):
    """The object `parse` builds, or the type and message of the error it raises."""
    try:
        return repr(parse(copy.deepcopy(raw)))
    except CorpusError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("kind", ROWS)
@ORACLE
@given(data=st.data())
def test_right_typed_rows_build_what_the_old_parsers_built(kind, data):
    new, old, rows = ROWS[kind]
    raw = data.draw(rows)
    # `repr` tells 1 from 1.0 and a tuple from a list, which `==` does not.
    assert _outcome(new, raw) == _outcome(old, raw)


# -- a value of another JSON type ---------------------------------------------

_labels_row = {"model_listener": ["input data"], "data_type": ["nominal"],
               "visualization_type": "heatmap", "visualization_purpose": "distribution",
               "confidences": {"model_listener": 0.5}, "evidence": {"model_listener": "s"},
               "flags": ["f"]}
_record_row = {"paper_id": "P1", "title": "T", "abstract": "a", "author_keywords": ["k"],
               "year": 2020, "venue": "v", "citation_count": 3, "label": "positive"}
GOOD = {
    "record": _record_row,
    "library": {**_record_row, "figures": [
        {"figure_id": "Figure 1", "relevant": True,
         "labels": {"paper_id": "P1", "base_figure_id": "Figure 1", **_labels_row}}]},
    "labels": {"paper_id": "P1", "base_figure_id": "Figure 1", **_labels_row},
    "evidence": {"paper_id": "P1", "figure_id": "Figure 1", "base_figure_id": "Figure 1",
                 "caption": "c", "context": ["p"]},
    "verdict": {"paper_id": "P1", "figure_id": "Figure 1", "relevant": True,
                "confidence": 0.5, "evidence": "e", "role": "overview", "selected": True},
}

# A JSON value of each type, and the types each documented type rejects.
_leaf = st.integers(0, 3)
_VALUES = {
    "boolean": st.booleans(),
    "integer": st.integers(-10**20, 10**20),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "string": _text,
    "list": st.lists(_leaf, max_size=2),
    "object": st.dictionaries(_text, _leaf, max_size=2),
}
_ACCEPTS = {"string": {"string"}, "integer": {"integer"}, "number": {"integer", "float"},
            "boolean": {"boolean"}, "list": {"list"}, "object": {"object"}}
# Where a value sits in the row, the key its error names, and its JSON type.
_RECORD_KEYS = [
    (("paper_id",), "paper_id", "string"), (("title",), "title", "string"),
    (("abstract",), "abstract", "string"), (("author_keywords",), "author_keywords", "list"),
    (("author_keywords", 0), "author_keywords", "string"), (("year",), "year", "integer"),
    (("venue",), "venue", "string"), (("citation_count",), "citation_count", "integer"),
    (("label",), "label", "string"),
]
_LABEL_KEYS = [
    (("paper_id",), "paper_id", "string"), (("base_figure_id",), "base_figure_id", "string"),
    (("model_listener",), "model_listener", "list"),
    (("model_listener", 0), "model_listener", "string"), (("data_type",), "data_type", "list"),
    (("visualization_type",), "visualization_type", "string"),
    (("visualization_purpose",), "visualization_purpose", "string"),
    (("confidences",), "confidences", "object"),
    (("confidences", "model_listener"), "confidences.model_listener", "number"),
    (("evidence",), "evidence", "object"),
    (("evidence", "model_listener"), "evidence.model_listener", "string"),
]
_FIGURE = ("figures", 0)
WRONG = (
    [("record", *case) for case in _RECORD_KEYS]
    + [("library", *case) for case in _RECORD_KEYS]
    + [("library", ("figures",), "figures", "list"),
       ("library", _FIGURE, "figures", "object"),
       ("library", (*_FIGURE, "figure_id"), "figures[0].figure_id", "string"),
       ("library", (*_FIGURE, "relevant"), "figures[0].relevant", "boolean"),
       ("library", (*_FIGURE, "labels"), "figures[0].labels", "object")]
    + [("library", (*_FIGURE, "labels", *path), f"figures[0].labels.{key}", kind)
       for path, key, kind in _LABEL_KEYS]
    + [("labels", *case) for case in _LABEL_KEYS]
    + [("evidence", (key,), key, kind) for key, kind in (
        ("paper_id", "string"), ("figure_id", "string"), ("base_figure_id", "string"),
        ("caption", "string"), ("context", "list"))]
    + [("evidence", ("context", 0), "context", "string")]
    + [("verdict", (key,), key, kind) for key, kind in (
        ("paper_id", "string"), ("figure_id", "string"), ("relevant", "boolean"),
        ("confidence", "number"), ("evidence", "string"), ("role", "string"),
        ("selected", "boolean"))]
)
WRONG_VALUES = [(*case, wrong) for case in WRONG for wrong in _VALUES
                if wrong not in _ACCEPTS[case[-1]]]


@pytest.mark.parametrize("kind, path, key, json_type, wrong", WRONG_VALUES,
                         ids=[f"{kind}:{'.'.join(map(str, path))}:{wrong}"
                              for kind, path, _, _, wrong in WRONG_VALUES])
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_value_of_another_type_is_an_input_error_naming_its_key(kind, path, key, json_type,
                                                                   wrong, data):
    value = data.draw(_VALUES[wrong])
    raw = copy.deepcopy(GOOD[kind])
    *parents, last = path
    target = raw
    for part in parents:
        target = target[part]
    target[last] = value
    with pytest.raises(InputError) as caught:
        ROWS[kind][0](raw)
    assert type(caught.value) is InputError
    # The row is named by its paper id, which is `value` itself when that is wrong.
    where = repr(value) if key == "paper_id" else "'P1'"
    assert str(caught.value).startswith(f"record {where}: {key}: expected ")


# -- a label row's flags are its values' ---------------------------------------

@pytest.mark.parametrize("stored", [["f"], ["model_listener:empty"], [], "f", 3, {"a": 1}])
@pytest.mark.parametrize("listeners, flags", [(["input data"], ()),
                                               ([], ("model_listener:empty",))])
def test_a_stored_flags_value_is_ignored(stored, listeners, flags):
    row = {**GOOD["labels"], "model_listener": listeners}
    bare = {key: value for key, value in row.items() if key != "flags"}
    assert labels_from_dict({**row, "flags": stored}) == labels_from_dict(bare)
    assert labels_from_dict({**row, "flags": stored}).flags == flags
    library_row = copy.deepcopy(GOOD["library"])
    library_row["figures"][0]["labels"].update(model_listener=listeners, flags=stored)
    assert coded_paper_from_dict(library_row).figures[0].labels.flags == flags


# -- a required value left out -------------------------------------------------

@pytest.mark.parametrize("read, raw, where, key", [
    (evidence_from_dict, {"figure_id": "Figure 1"}, "None", "paper_id"),
    (evidence_from_dict, {"paper_id": "P1", "figure_id": None}, "'P1'", "figure_id"),
    (verdict_from_dict, {"paper_id": "P1"}, "'P1'", "figure_id"),
])
def test_a_required_value_left_out_or_null_is_an_input_error_naming_its_key(read, raw, where,
                                                                            key):
    with pytest.raises(InputError) as caught:
        read(raw)
    assert type(caught.value) is InputError
    assert str(caught.value) == f"record {where}: {key}: missing"


# -- README documents every key the row reader reads --------------------------

def _row_keys(cls) -> set[str]:
    """The JSON keys `read_object` reads for `cls`."""
    return {json_key for _, _, _, json_key, *_ in jsonl._readers(cls)}


def _readme_formats() -> dict[str, set[str]]:
    """The backticked keys of each `**name**` bullet of README's File formats."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- \*\*([^*]+)\*\*(.*?)(?=^- |\n\n|\Z)", section, re.M | re.S)
    return {name: set(re.findall(r"`([^`]+)`", text)) for name, text in bullets}


@pytest.mark.parametrize("name, keys", [
    ("corpus", _row_keys(corpus.PaperRecord)),
    # A library row is a corpus record, and its figures' labels are stage3 labels.
    ("library", {"figures", "labels"} | _row_keys(CodedFigure)),
    ("evidence", _row_keys(FigureEvidence)),
    ("stage2 verdicts", _row_keys(RelevanceVerdict)),
    ("stage3 labels", _row_keys(FrameworkLabels)),
])
def test_readme_file_formats_list_every_key_the_reader_reads(name, keys):
    assert keys
    assert sorted(keys - _readme_formats()[name]) == []
