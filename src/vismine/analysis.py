"""Post-hoc corpus analytics: label paths, flows, trends, citation weights.

Figure annotations expand into 4-stage label chains (listener -> data type
-> visualization type -> purpose); chains feed Sankey-style exports and
per-category statistics. An edge-wise counting mode is provided alongside
the default full-chain expansion because flow totals differ between the
two readings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .corpus import PaperRecord
from .errors import AnalysisError
from .vocab import DATA_TYPE, FIELDS, FrameworkLabels, MODEL_LISTENER, VIS_PURPOSE, VIS_TYPE

STAGE_ORDER = FIELDS  # listener -> data type -> vis type -> purpose


@dataclass(frozen=True)
class PathRecord:
    listener: str
    data_type: str
    vis_type: str
    vis_purpose: str
    source: str  # "<paper_id>::<base_figure_id>"

    def stage_value(self, fname: str) -> str:
        return {
            MODEL_LISTENER: self.listener,
            DATA_TYPE: self.data_type,
            VIS_TYPE: self.vis_type,
            VIS_PURPOSE: self.vis_purpose,
        }[fname]

    def to_dict(self) -> dict:
        return {
            MODEL_LISTENER: self.listener,
            DATA_TYPE: self.data_type,
            VIS_TYPE: self.vis_type,
            VIS_PURPOSE: self.vis_purpose,
            "source": self.source,
        }


def expand_paths(labels: FrameworkLabels) -> list[PathRecord]:
    """Cartesian product across the four fields' value sets.

    Count equals |listeners| * |data_types| (single-label fields
    contribute one value each). An empty field is an error: flagged
    figures must be resolved or excluded upstream.
    """
    for fname in FIELDS:
        if not labels.field_values(fname) or not all(labels.field_values(fname)):
            raise AnalysisError(
                f"{labels.paper_id}/{labels.base_figure_id}: empty {fname}"
            )
    source = f"{labels.paper_id}::{labels.base_figure_id}"
    return [
        PathRecord(
            listener=listener,
            data_type=data_type,
            vis_type=labels.vis_type,
            vis_purpose=labels.vis_purpose,
            source=source,
        )
        for listener in labels.listeners
        for data_type in labels.data_types
    ]


def expand_all(labels_list: Iterable[FrameworkLabels]) -> list[PathRecord]:
    paths: list[PathRecord] = []
    for labels in labels_list:
        paths.extend(expand_paths(labels))
    return paths


def _link_rows(links: Counter) -> list[dict]:
    """`links`' (source stage, source, target stage, target) counts as rows, in stage order."""
    return [
        {
            "source_stage": src_field,
            "source": src,
            "target_stage": dst_field,
            "target": dst,
            "value": value,
        }
        for (src_field, src, dst_field, dst), value in sorted(
            links.items(), key=lambda kv: (STAGE_ORDER.index(kv[0][0]), kv[0][1], kv[0][3])
        )
    ]


def sankey_export(paths: Sequence[PathRecord]) -> dict:
    """Node totals per (stage, category) and link counts per adjacent pair.

    Each path contributes exactly one unit per stage, so per-stage node
    totals all sum to the path count.
    """
    if not paths:
        raise AnalysisError("no paths to export")
    nodes: Counter = Counter()
    links: Counter = Counter()
    for path in paths:
        for fname in STAGE_ORDER:
            nodes[(fname, path.stage_value(fname))] += 1
        for src_field, dst_field in zip(STAGE_ORDER, STAGE_ORDER[1:]):
            links[(src_field, path.stage_value(src_field), dst_field, path.stage_value(dst_field))] += 1
    return {
        "path_count": len(paths),
        "nodes": [
            {"stage": fname, "category": category, "total": total}
            for (fname, category), total in sorted(
                nodes.items(), key=lambda kv: (STAGE_ORDER.index(kv[0][0]), kv[0][1])
            )
        ],
        "links": _link_rows(links),
    }


def edge_flows(labels_list: Iterable[FrameworkLabels]) -> dict:
    """Edge-wise counting: per-figure pair-wise connections between
    adjacent stages, without multiplying through the whole chain."""
    links: Counter = Counter()
    total = 0
    for labels in labels_list:
        for src_field, dst_field in zip(STAGE_ORDER, STAGE_ORDER[1:]):
            for src in labels.field_values(src_field):
                for dst in labels.field_values(dst_field):
                    links[(src_field, src, dst_field, dst)] += 1
                    total += 1
    return {
        "edge_count": total,
        "links": _link_rows(links),
    }


@dataclass(frozen=True)
class PaperLabels:
    """Paper-level view: the union of the paper's figure labels per field."""

    paper_id: str
    year: int | None
    citation_count: int | None
    values: Mapping[str, tuple[str, ...]]

    def carries(self, fname: str, category: str) -> bool:
        return category in self.values.get(fname, ())


def paper_level_labels(
    figure_labels: Iterable[FrameworkLabels],
    papers: Mapping[str, PaperRecord],
) -> list[PaperLabels]:
    """Lift figure labels to papers by set union over each paper's figures."""
    grouped: dict[str, dict[str, set]] = {}
    for labels in figure_labels:
        per_field = grouped.setdefault(labels.paper_id, {fname: set() for fname in FIELDS})
        for fname in FIELDS:
            per_field[fname].update(labels.field_values(fname))
    result = []
    for paper_id in sorted(grouped):
        record = papers.get(paper_id)
        result.append(
            PaperLabels(
                paper_id=paper_id,
                year=record.year if record else None,
                citation_count=record.citation_count if record else None,
                values={fname: tuple(sorted(vals)) for fname, vals in grouped[paper_id].items()},
            )
        )
    return result


def yearly_proportions(
    paper_labels: Sequence[PaperLabels],
    fname: str,
) -> list[dict]:
    """Per-year fraction of papers carrying each category.

    Multi-label fields may sum above 1 within a year. Years with no dated
    papers are simply absent.
    """
    by_year: dict[int, list[PaperLabels]] = {}
    for paper in paper_labels:
        if paper.year is None:
            continue
        by_year.setdefault(paper.year, []).append(paper)
    rows = []
    for year in sorted(by_year):
        papers = by_year[year]
        categories = sorted({c for p in papers for c in p.values.get(fname, ())})
        for category in categories:
            carriers = sum(1 for p in papers if p.carries(fname, category))
            rows.append(
                {
                    "year": year,
                    "field": fname,
                    "category": category,
                    "papers": len(papers),
                    "carriers": carriers,
                    "proportion": carriers / len(papers),
                }
            )
    return rows


def citation_weight(citations: int, year: int, reference_year: int) -> float:
    """Annualized citation weight: citations / (reference_year - year + 1)."""
    if year > reference_year:
        raise AnalysisError(f"year {year} is after reference year {reference_year}")
    if citations < 0:
        raise AnalysisError("citations must be nonnegative")
    return citations / (reference_year - year + 1)


def weighted_coverage(
    paper_labels: Sequence[PaperLabels],
    fname: str,
    reference_year: int,
) -> list[dict]:
    """Unweighted prevalence vs citation-weighted share per category.

    Papers without a citation count stay in the prevalence denominator but
    are excluded from the weighted aggregate. A zero total weight flags the
    weighted side instead of dividing by zero.
    """
    if not paper_labels:
        raise AnalysisError("no papers in scope")
    categories = sorted({c for p in paper_labels for c in p.values.get(fname, ())})
    weights: dict[str, float] = {}
    for paper in paper_labels:
        if paper.citation_count is None or paper.year is None:
            continue
        weights[paper.paper_id] = citation_weight(
            paper.citation_count, paper.year, reference_year
        )
    total_weight = sum(weights.values())
    rows = []
    for category in categories:
        carriers = [p for p in paper_labels if p.carries(fname, category)]
        carrier_weight = sum(weights.get(p.paper_id, 0.0) for p in carriers)
        rows.append(
            {
                "field": fname,
                "category": category,
                "prevalence": len(carriers) / len(paper_labels),
                "weighted_share": (carrier_weight / total_weight) if total_weight > 0 else None,
                "weighted_flagged": total_weight <= 0,
            }
        )
    return rows
