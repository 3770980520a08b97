"""Seeded synthetic inputs for the vismine benchmark.

Writes a raw corpus, a labeled pool, a coded-paper library, converted
paper texts with a docs manifest, and a stub-backend config, all in the
record shapes of ``tests/fixtures/fixture12`` and driven by its keyword
stub rules.  The program is never told which papers should pass: a paper
is accepted by both stubs only because its title and abstract contain
both screening keywords, and a figure is relevant only because its
caption contains a figure keyword.

Every count is fixed by the shape (accepted papers, relevant figures per
paper, text lengths); the seed only chooses words, positions and order.
That keeps the work per run nearly identical across seeds, so the spread
of a metric over seeds measures the machine, not the input.  The same
seed and shape give byte-identical files.

Usage: python3 bench/gen.py --out DIR --seed N [--candidates N ...]
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# fixture12's stub rules: the primary backend accepts a paper whose
# target text contains "saliency" and the secondary one containing
# "model"; stage 1 accepts only when both do (strict consensus).
STUB_RULES = {
    "primary": {
        "screen_keywords": ["saliency"],
        "figure_keywords": ["accuracy", "saliency", "activation"],
        "role_rules": [["pipeline", "overview"], ["accuracy", "performance"],
                       ["activation", "mechanism"]],
        "listener_rules": [["accuracy", "output results"], ["activation", "transient state"],
                           ["saliency", "input data"], ["pipeline", "model structure"]],
        "data_type_rules": [["accuracy", "one-dimensional quantitative"],
                            ["heatmap", "multi-dimensional quantitative"],
                            ["atlas", "multi-dimensional quantitative"]],
        "vis_type_rules": [["trends", "scatter plot"], ["comparison", "statistical chart"],
                           ["pipeline", "node-link diagram"], ["heatmap", "heatmap"],
                           ["atlas", "scatter plot"], ["patterns", "heatmap"]],
        "purpose_rules": [["accuracy", "performance evaluation"],
                          ["pipeline", "I/O relationship"], ["overlays", "distribution"],
                          ["atlas", "dimensionality reduction"]],
    },
    "secondary": {"screen_keywords": ["model"]},
}

# Prefilter keywords besides "model", which the secondary stub screens on.
OTHER_PREFILTER_KEYWORDS = ("learning", "analytics", "analysis")
# Vocabulary defaults the primary stub falls back to (fixture12 leaves
# them implicit).
DATA_TYPE_DEFAULT = "nominal"
VIS_TYPE_DEFAULT = "other"
PURPOSE_DEFAULT = "other"
# The one rule value outside the controlled vocabulary, and the category
# vismine's alias table maps it to; gold codings use canonical values.
CANONICAL = {"scatter plot": "statistical chart"}

# Substrings no filler word may contain, so keywords appear only where the
# generator puts them.
_RESERVED = (
    "model", "learning", "analytic", "analysis", "saliency", "accuracy", "activation",
    "pipeline", "heatmap", "atlas", "trend", "comparison", "pattern", "overlay",
    "fig", "reference", "bibliography", "acknowledg",
)

# Keywords of relevant figure captions: each holds a figure keyword, and
# together they reach every role and labeling rule.
RELEVANT_CAPTIONS = (
    "saliency pipeline", "accuracy comparison", "accuracy trends", "activation heatmap",
    "activation atlas", "activation patterns", "saliency overlays", "saliency heatmap",
)
# Irrelevant captions may still carry label words, never figure keywords.
IRRELEVANT_CAPTIONS = ("", "trends", "comparison", "heatmap", "patterns", "overlays")

VENUES = ("VIS", "VAST", "EuroVis", "PacificVis")
VOCAB_SIZE = 3000
VOCAB_SEED = 20260317  # the vocabulary is the same for every run seed

TITLE_WORDS = 8
ABSTRACT_WORDS = 60
PARAGRAPH_WORDS = 24
CAPTION_WORDS = 9
RELEVANT_FIGURE_SHARE = 0.5
OFF_TOPIC_SHARE = 0.1
DUPLICATE_RECORDS = 3
STAGE2_MAX_FIGS = 3  # representatives stage 2 keeps per paper


@dataclass(frozen=True)
class Shape:
    """One workload's fixed input shape; the seed is separate."""

    candidates: int = 1000  # papers stage 1 screens (pool papers excluded)
    pool: int = 40  # manually labeled papers, half positive
    library: int = 12  # coded papers, drawn from the pool's positives
    figures: int = 8  # captioned figures per paper
    accepted_share: float = 0.1  # share of candidates carrying both screen keywords
    corpus_docs: bool = True  # False: texts for library papers only (LOO inputs)


def _vocabulary() -> list[str]:
    rng = random.Random(VOCAB_SEED)
    onsets = "b c d f g h j k l m n p r s t v w z br cr dr gr pr st tr ch sh th".split()
    vowels = "a e i o u ai ea io ou".split()
    words: set[str] = set()
    while len(words) < VOCAB_SIZE:
        word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(rng.randint(2, 4)))
        if rng.random() < 0.4:
            word += rng.choice("nrstl")
        if not any(bad in word for bad in _RESERVED):
            words.add(word)
    return sorted(words)


class _Words:
    """Zipf-weighted filler words from the fixed vocabulary."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vocab = _vocabulary()
        self.cum_weights = []
        total = 0.0
        for rank in range(1, len(self.vocab) + 1):
            total += 1.0 / rank
            self.cum_weights.append(total)

    def take(self, n: int) -> list[str]:
        return self.rng.choices(self.vocab, cum_weights=self.cum_weights, k=n)

    def text(self, n: int, inserts: tuple[str, ...] = ()) -> str:
        words = self.take(n)
        for word in inserts:
            words.insert(self.rng.randrange(len(words) + 1), word)
        return " ".join(words)


def _paper(words: _Words, paper_id: str, title_keys: tuple[str, ...],
           abstract_keys: tuple[str, ...]) -> dict:
    rng = words.rng
    title = words.text(TITLE_WORDS, title_keys)
    record = {
        "paper_id": paper_id,
        "title": title[0].upper() + title[1:],
        "abstract": words.text(ABSTRACT_WORDS, abstract_keys).capitalize() + ".",
        "author_keywords": words.take(3),
        "year": rng.randint(2012, 2025),
        "venue": rng.choice(VENUES),
    }
    if rng.random() < 0.9:
        record["citation_count"] = rng.randint(0, 400)
    return record


def _screen_keys(kind: str, rng: random.Random) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Title and abstract keywords for one screening outcome.

    accept: both stub keywords; model_only / saliency_only: one stub says
    yes; neither: only a prefilter keyword; off_topic: fails the prefilter.
    """
    other = rng.choice(OTHER_PREFILTER_KEYWORDS)
    if kind == "accept":
        return ("saliency", "model"), ("model", other)
    if kind == "model_only":
        return ("model",), (other,)
    if kind == "saliency_only":
        return ("saliency",), (other,)
    if kind == "neither":
        return (other,), (rng.choice(OTHER_PREFILTER_KEYWORDS),)
    return (), ()


def _rule_values(text: str, rules) -> list[str]:
    values: list[str] = []
    for keyword, value in rules:
        if keyword in text and value not in values:
            values.append(value)
    return values


def gold_labels(caption: str) -> dict:
    """Manual coding of a relevant figure: fixture12's rules on its caption."""
    rules = STUB_RULES["primary"]
    text = caption.lower()
    vis_type = (_rule_values(text, rules["vis_type_rules"]) or [VIS_TYPE_DEFAULT])[0]
    fields = {
        "model_listener": _rule_values(text, rules["listener_rules"]),
        "data_type": _rule_values(text, rules["data_type_rules"]) or [DATA_TYPE_DEFAULT],
        "visualization_type": CANONICAL.get(vis_type, vis_type),
        "visualization_purpose": (_rule_values(text, rules["purpose_rules"]) or [PURPOSE_DEFAULT])[0],
    }
    names = list(fields)
    return {
        **fields,
        "confidences": {name: 1.0 for name in names},
        "evidence": {name: "manual coding" for name in names},
    }


def _figures(words: _Words, count: int) -> list[tuple[str, bool]]:
    """(caption text after the "Figure N:" header, relevant) per figure."""
    rng = words.rng
    relevant_count = round(count * RELEVANT_FIGURE_SHARE)
    flags = [True] * relevant_count + [False] * (count - relevant_count)
    rng.shuffle(flags)
    figures = []
    for relevant in flags:
        keys = rng.choice(RELEVANT_CAPTIONS if relevant else IRRELEVANT_CAPTIONS)
        caption = words.text(CAPTION_WORDS, tuple(keys.split()))
        figures.append((caption[0].upper() + caption[1:] + ".", relevant))
    return figures


def _document(words: _Words, record: dict, figures: list[tuple[str, bool]]) -> str:
    """Converted plain text in fixture12's layout: caption, filler,
    in-text reference, filler per figure, then a references section."""
    para = lambda: words.text(PARAGRAPH_WORDS).capitalize() + "."  # noqa: E731
    parts = [record["title"].upper(), para()]
    for number, (caption, _) in enumerate(figures, 1):
        ref = words.text(PARAGRAPH_WORDS, (f"Figure {number}",)).capitalize() + "."
        parts += [f"Figure {number}: {caption}", para(), ref, para()]
    parts += ["REFERENCES", "[1] " + words.text(12).capitalize() + "."]
    return "\n\n".join(parts) + "\n"


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def stub_config() -> dict:
    return {
        "corpus": "corpus.jsonl",
        "pool": "pool.jsonl",
        "library": "library.jsonl",
        "docs_manifest": "docs_manifest.jsonl",
        "docs_dir": "docs",
        "out_dir": "out",
        "cache_dir": "out/cache",
        "reference_year": 2026,
        "stage1": {"k": 6, "min_pos": 2, "min_neg": 2, "backends": ["primary", "secondary"]},
        "stage2": {"k": 5, "max_figs": STAGE2_MAX_FIGS, "backend": "primary"},
        "stage3": {"k": 10, "per_paper_cap": 3, "backend": "primary"},
        "backends": {slot: {"kind": "stub", "stub_rules": rules}
                     for slot, rules in STUB_RULES.items()},
    }


def generate(out: str | Path, seed: int, shape: Shape) -> dict:
    """Write one input set into `out` and return its expected outcomes.

    The returned dict holds what a correct run must produce (the stage-1
    subset, stage-2 figure counts) and the shape, for the output checks.
    """
    if shape.library > shape.pool // 2:
        raise ValueError("the library is drawn from the pool's positives")
    if shape.pool < 4:
        raise ValueError("stage 1 needs at least two positive and two negative pool papers")
    out = Path(out)
    (out / "docs").mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    words = _Words(rng)

    accepted = round(shape.candidates * shape.accepted_share)
    rejected = shape.candidates - accepted
    kinds = (
        ["accept"] * accepted
        + ["model_only"] * (rejected * 2 // 5)
        + ["saliency_only"] * (rejected // 5)
    )
    kinds += ["neither"] * (shape.candidates - len(kinds))
    pool_pos = shape.pool // 2
    roles = (
        ["pool_pos"] * pool_pos
        + ["pool_neg"] * (shape.pool - pool_pos)
        + kinds
        + ["off_topic"] * round(shape.candidates * OFF_TOPIC_SHARE)
    )
    rng.shuffle(roles)

    records, pool_rows, library_rows, manifest = [], [], [], []
    expected_subset, expected_stage2_figures = [], 0
    library_left = shape.library
    for number, role in enumerate(roles, 1):
        paper_id = f"W{number:05d}"
        kind = {"pool_pos": "accept", "pool_neg": rng.choice(("model_only", "neither"))}.get(role, role)
        record = _paper(words, paper_id, *_screen_keys(kind, rng))
        records.append(record)
        if role == "off_topic":
            continue
        if role in ("pool_pos", "pool_neg"):
            pool_rows.append({"paper_id": paper_id,
                              "label": "positive" if role == "pool_pos" else "negative"})
        in_library = role == "pool_pos" and library_left > 0
        if kind == "accept":
            expected_subset.append(paper_id)
            if not in_library:
                expected_stage2_figures += shape.figures
        figures = _figures(words, shape.figures)
        if in_library:
            library_left -= 1
            coded = []
            for number_, (caption, relevant) in enumerate(figures, 1):
                figure = {"figure_id": f"Figure {number_}", "relevant": relevant}
                if relevant:
                    figure["labels"] = gold_labels(caption)
                coded.append(figure)
            library_rows.append({**record, "figures": coded})
        if shape.corpus_docs or in_library:
            (out / "docs" / f"{paper_id}.txt").write_text(
                _document(words, record, figures), encoding="utf-8")
            manifest.append({"paper_id": paper_id, "path": f"{paper_id}.txt",
                             "provenance": "synthetic"})

    pool_ids = {row["paper_id"] for row in pool_rows}
    unlabeled = [r for r in records if r["paper_id"] not in pool_ids]
    duplicates = [dict(r) for r in rng.sample(unlabeled, min(DUPLICATE_RECORDS, len(unlabeled)))]
    _write_jsonl(out / "corpus.jsonl", records + duplicates)
    _write_jsonl(out / "pool.jsonl", pool_rows)
    _write_jsonl(out / "library.jsonl", library_rows)
    _write_jsonl(out / "docs_manifest.jsonl", manifest)
    (out / "config.json").write_text(json.dumps(stub_config(), indent=2, sort_keys=True) + "\n",
                                     encoding="utf-8")
    relevant_per_paper = round(shape.figures * RELEVANT_FIGURE_SHARE)
    stage2_papers = expected_stage2_figures // shape.figures if shape.figures else 0
    return {
        "shape": asdict(shape),
        "seed": seed,
        "raw_records": len(records) + len(duplicates),
        "candidates_after_prefilter": shape.candidates + shape.pool,
        "stage1_subset": sorted(expected_subset),
        "stage2_figures": expected_stage2_figures,
        "stage3_figures": stage2_papers * min(STAGE2_MAX_FIGS, relevant_per_paper),
        "pool_papers": len(pool_rows),
        "library_papers": len(library_rows),
        "coded_figures": sum(1 for row in library_rows for f in row["figures"] if "labels" in f),
        "docs": len(manifest),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    defaults = Shape()
    for name, value in asdict(defaults).items():
        kind = (lambda s: s not in ("0", "false", "no")) if isinstance(value, bool) else type(value)
        parser.add_argument(f"--{name.replace('_', '-')}", type=kind, default=value)
    args = parser.parse_args(argv)
    shape = Shape(**{name: getattr(args, name) for name in asdict(defaults)})
    expected = generate(args.out, args.seed, shape)
    print(json.dumps({k: v for k, v in expected.items() if k != "stage1_subset"}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
