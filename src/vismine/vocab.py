"""Controlled label vocabulary for the four framework fields.

The canonical category sets ship as package data together with an editable
alias table mapping common lexical variants onto canonical categories.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import ClassVar, Mapping

from .errors import InputError, VocabularyError
from .jsonl import read_object

MODEL_LISTENER = "model_listener"
DATA_TYPE = "data_type"
VIS_TYPE = "visualization_type"
VIS_PURPOSE = "visualization_purpose"

FIELDS = (MODEL_LISTENER, DATA_TYPE, VIS_TYPE, VIS_PURPOSE)
MULTI_FIELDS = (MODEL_LISTENER, DATA_TYPE)

OTHER = "other"

_WS_RE = re.compile(r"\s+")


def _fold(value: str) -> str:
    return _WS_RE.sub(" ", value.strip().lower())


@dataclass(frozen=True)
class LabelVocabulary:
    """Canonical categories per field plus a per-field alias map."""

    categories: Mapping[str, tuple[str, ...]]
    aliases: Mapping[str, Mapping[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        for fname in FIELDS:
            if fname not in self.categories or not self.categories[fname]:
                raise VocabularyError(f"vocabulary missing field {fname!r}")
        for fname, table in self.aliases.items():
            if fname not in FIELDS:
                raise VocabularyError(f"alias table for unknown field {fname!r}")
            valid = {_fold(c) for c in self.categories[fname]}
            for surface, target in table.items():
                if _fold(target) not in valid:
                    raise VocabularyError(
                        f"alias {surface!r} -> {target!r} targets a value "
                        f"outside the {fname} vocabulary"
                    )
        # One table per field from folded surface form to category, read by
        # every `canonical` call: a category beats an alias, the first of
        # two categories that fold alike wins, and the last of two aliases.
        lookup = {}
        for fname in FIELDS:
            by_fold = {_fold(c): c for c in reversed(self.categories[fname])}
            table = {
                _fold(surface): by_fold[_fold(target)] if _fold(target) else None
                for surface, target in self.aliases.get(fname, {}).items()
            }
            lookup[fname] = table | by_fold
        object.__setattr__(self, "_lookup", lookup)

    def values(self, fname: str) -> tuple[str, ...]:
        if fname not in FIELDS:
            raise VocabularyError(f"unknown field {fname!r}")
        return tuple(self.categories[fname])

    def has_other(self, fname: str) -> bool:
        return any(_fold(c) == OTHER for c in self.values(fname))

    def canonical(self, fname: str, value: str) -> str | None:
        """Canonical category for a surface form, or None when unmatched.

        Lookup order: exact canonical match (case/whitespace-insensitive),
        then the alias table.
        """
        folded = _fold(str(value))
        if not folded:
            return None
        if fname not in FIELDS:
            raise VocabularyError(f"unknown field {fname!r}")
        return self._lookup[fname].get(folded)

    def sort_values(self, fname: str, values) -> tuple[str, ...]:
        """Stable vocabulary-listing order for multi-label sets."""
        order = {c: i for i, c in enumerate(self.values(fname))}
        unique = sorted(set(values), key=lambda v: (order.get(v, len(order)), v))
        return tuple(unique)


def _data_file(path: str | Path | None, packaged: str):
    """The file `path`, or the packaged data file `packaged` when `path` is None."""
    return resources.files("vismine").joinpath("data", packaged) if path is None else Path(path)


def _read_file(file, tp):
    """The `tp` in JSON file `file`; an error names the file."""
    try:
        raw = json.loads(file.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON or not UTF-8
        raise InputError(f"{file}: cannot read JSON: {exc}") from exc
    return read_object(tp, raw, f"{file}:")


def load_vocabulary(
    vocab_path: str | Path | None = None,
    alias_path: str | Path | None = None,
) -> LabelVocabulary:
    """Load vocabulary and alias files; packaged defaults fill in any gap.

    A vocabulary without a field, or an alias targeting no category of its
    field, is an `InputError` naming the file at fault.
    """
    vocab_file = _data_file(vocab_path, "vocabulary.json")
    alias_file = _data_file(alias_path, "aliases.json")
    categories = _read_file(vocab_file, Mapping[str, tuple[str, ...]])
    aliases = _read_file(alias_file, Mapping[str, Mapping[str, str]])
    try:
        return LabelVocabulary(categories=categories, aliases=aliases)
    except VocabularyError as exc:
        at_fault = vocab_file if not all(categories.get(f) for f in FIELDS) else alias_file
        raise InputError(f"{at_fault}: {exc}") from exc


@dataclass(frozen=True)
class FrameworkLabels:
    """Four-field annotation for one (base) figure."""

    paper_id: str
    base_figure_id: str
    listeners: tuple[str, ...]
    data_types: tuple[str, ...]
    vis_type: str
    vis_purpose: str
    confidences: Mapping[str, float] = field(default_factory=dict)
    evidence: Mapping[str, str] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    JSON_KEYS: ClassVar[dict[str, str | None]] = {
        "listeners": MODEL_LISTENER, "data_types": DATA_TYPE,
        "vis_type": VIS_TYPE, "vis_purpose": VIS_PURPOSE,
    }

    def field_values(self, fname: str) -> tuple[str, ...]:
        if fname == MODEL_LISTENER:
            return self.listeners
        if fname == DATA_TYPE:
            return self.data_types
        if fname == VIS_TYPE:
            return (self.vis_type,)
        if fname == VIS_PURPOSE:
            return (self.vis_purpose,)
        raise VocabularyError(f"unknown field {fname!r}")

    def to_dict(self) -> dict:
        return {
            "paper_id": self.paper_id,
            "base_figure_id": self.base_figure_id,
            MODEL_LISTENER: list(self.listeners),
            DATA_TYPE: list(self.data_types),
            VIS_TYPE: self.vis_type,
            VIS_PURPOSE: self.vis_purpose,
            "confidences": dict(self.confidences),
            "evidence": dict(self.evidence),
            "flags": list(self.flags),
        }

    def as_payload(self) -> dict:
        """Shape matching a raw extraction payload (for re-normalization)."""
        return {
            MODEL_LISTENER: list(self.listeners),
            DATA_TYPE: list(self.data_types),
            VIS_TYPE: self.vis_type,
            VIS_PURPOSE: self.vis_purpose,
            "confidences": dict(self.confidences),
            "evidence": dict(self.evidence),
        }


def labels_from_dict(raw: Mapping, key: str = "", **given) -> FrameworkLabels:
    """`given` fills in ids `raw` leaves out; an empty type or purpose is `other`."""
    labels = read_object(
        FrameworkLabels, raw, key or f"record {raw.get('paper_id')!r}:",
        **{"paper_id": "", "base_figure_id": "", "listeners": (), "data_types": (),
           "vis_type": "", "vis_purpose": "", **given})
    if labels.vis_type and labels.vis_purpose:
        return labels
    return replace(labels, vis_type=labels.vis_type or OTHER,
                   vis_purpose=labels.vis_purpose or OTHER)
