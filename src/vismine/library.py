"""Manually coded paper library: figure relevance flags and gold labels.

The library is the exemplar source for figure-level stages and the gold
reference for leave-one-out evaluation. A figure may carry a relevance flag,
four-field labels, both, or neither (unlabeled figures are never sampled as
exemplars).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping

from .corpus import PaperRecord, record_from_dict
from .errors import CorpusError
from .jsonl import read_object
from .vocab import FrameworkLabels, labels_from_dict


@dataclass(frozen=True)
class CodedFigure:
    figure_id: str
    relevant: bool | None = None
    labels: FrameworkLabels | None = None

    # Read by `coded_paper_from_dict`, which gives them the paper's and figure's ids.
    JSON_KEYS: ClassVar[dict[str, str | None]] = {"labels": None}


@dataclass(frozen=True)
class CodedPaper:
    record: PaperRecord
    figures: tuple[CodedFigure, ...] = ()

    @property
    def paper_id(self) -> str:
        return self.record.paper_id

    def labeled_figures(self) -> list[CodedFigure]:
        """Figures with an explicit relevance flag."""
        return [f for f in self.figures if f.relevant is not None]

    def coded_figures(self) -> list[CodedFigure]:
        """Figures carrying four-field labels."""
        return [f for f in self.figures if f.labels is not None]


def coded_paper_from_dict(raw: Mapping) -> CodedPaper:
    """A corpus record plus `figures`, each with a unique stripped id and labels."""
    record = record_from_dict(raw)
    where = f"record {record.paper_id!r}:"
    figures_raw = raw.get("figures")
    if figures_raw is not None:
        figures_raw = read_object(tuple[dict, ...], figures_raw, f"{where} figures")
    figures = []
    seen: set[str] = set()
    for number, figure_raw in enumerate(figures_raw or ()):
        key = f"{where} figures[{number}]"
        figure = read_object(CodedFigure, figure_raw, key, figure_id="")
        figure_id = figure.figure_id.strip()
        if not figure_id:
            raise CorpusError(f"library figure without figure_id in {record.paper_id!r}")
        if figure_id in seen:
            raise CorpusError(f"duplicate figure {figure_id!r} in {record.paper_id!r}")
        seen.add(figure_id)
        labels = figure_raw.get("labels")
        if labels is not None:
            labels = labels_from_dict(labels, f"{key}.labels", paper_id=record.paper_id,
                                      base_figure_id=figure_id)
        figures.append(CodedFigure(figure_id=figure_id, relevant=figure.relevant, labels=labels))
    return CodedPaper(record=record, figures=tuple(figures))


def load_library(raw_records: Iterable[Mapping]) -> list[CodedPaper]:
    """The coded papers of `raw_records`, in order; each is checked as it is read."""
    papers: dict[str, CodedPaper] = {}
    for raw in raw_records:
        paper = coded_paper_from_dict(raw)
        if paper.paper_id in papers:
            raise CorpusError(f"duplicate paper {paper.paper_id!r} in library")
        papers[paper.paper_id] = paper
    return list(papers.values())
