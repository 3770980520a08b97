"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside pytest's own verdicts.
"""

import itertools
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from vismine import analysis, bm25, evaluation, stage2, stage3
from vismine.config import build_gateway, load_config
from vismine.corpus import load_labeled_pool, record_from_dict
from vismine.evidence import (
    FigureEvidence,
    extract_all_evidence,
    extract_evidence,
    filter_nonbody,
    segment_paragraphs,
)
from vismine.gateway import ModelVerdict, consensus
from vismine.jsonl import read_jsonl
from vismine.library import load_library
from vismine.pipeline import run_pipeline, stage_outputs
from vismine.vocab import FIELDS, FrameworkLabels, load_vocabulary

from tests.conftest import FIXTURE_DIR, make_fixture_config

VOCAB = load_vocabulary()


def passed(number: int, summary: str) -> None:
    print(f"\n[acceptance {number:02d}] {summary}: PASS")


def counts(tp=0, fp=0, fn=0, tn=0):
    return evaluation.ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)


class TestCriterion01MetricArithmetic:
    # Reference score table: (tp, fp, tn, fn, metric, reported score).
    PRECISION_ROWS = [
        (31, 20, 13, 4, 0.608),
        (28, 2, 31, 7, 0.933),
        (32, 4, 29, 3, 0.889),
        (31, 2, 33, 2, 0.939),
    ]
    F1_ROWS = [(61, 3, 44, 0.722), (73, 5, 32, 0.798)]
    MICRO_ROWS = [
        (82, 19, 25, 0.788), (77, 21, 43, 0.706),
        (32, 29, 29, 0.525), (46, 15, 15, 0.754),
        (106, 16, 22, 0.848), (101, 27, 43, 0.743),
        (55, 18, 18, 0.753), (59, 14, 14, 0.808),
    ]

    def test_reference_scores_reproduced(self):
        started = time.perf_counter()
        for tp, fp, tn, fn, expected in self.PRECISION_ROWS:
            assert evaluation.precision(counts(tp=tp, fp=fp, fn=fn, tn=tn)) == pytest.approx(
                expected, abs=1e-3
            )
        # 0.889 appears twice among the reference scores; only one of the
        # two rows derives it from its own counts. The other row's counts
        # (31, 2, 31, 4) reproduce the consensus-row arithmetic instead:
        assert evaluation.precision(counts(tp=31, fp=2, fn=4, tn=31)) == pytest.approx(
            0.939, abs=1e-3
        )
        for tp, fp, fn, expected in self.F1_ROWS:
            assert evaluation.f1(counts(tp=tp, fp=fp, fn=fn, tn=None)) == pytest.approx(
                expected, abs=1e-3
            )
        for tp, fp, fn, expected in self.MICRO_ROWS:
            assert evaluation.micro_f1(
                [counts(tp=tp, fp=fp, fn=fn, tn=None)]
            ) == pytest.approx(expected, abs=1e-3)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"metric reproduction took {elapsed:.3f}s"
        passed(1, f"14 reference scores reproduced within ±0.001 in {elapsed * 1000:.1f}ms")


EXPECTED_SUBSET = ["P01", "P02", "P03", "P07", "P10", "P12"]

EXPECTED_SELECTED = {
    "P07": [("Figure 1", "overview"), ("Figure 2", "performance"), ("Figure 3", "mechanism")],
    "P10": [("Figure 1", "performance"), ("Figure 3", None)],
    "P12": [("Figure 1", "mechanism")],
}

EXPECTED_RELEVANT = {
    ("P07", "Figure 1"): True, ("P07", "Figure 2"): True,
    ("P07", "Figure 3"): True, ("P07", "Figure 4"): True,
    ("P10", "Figure 1"): True, ("P10", "Figure 2"): False,
    ("P10", "Figure 3"): True,
    ("P12", "Figure 1"): True, ("P12", "Figure 2"): False,
    ("P12", "Figure 3"): False,
}

EXPECTED_LABELS = {
    ("P07", "Figure 1"): (("input data", "model structure"), ("nominal",),
                          "node-link diagram", "I/O relationship"),
    ("P07", "Figure 2"): (("input data", "output results"),
                          ("one-dimensional quantitative",),
                          "statistical chart", "performance evaluation"),
    ("P07", "Figure 3"): (("transient state",), ("nominal",), "heatmap", "other"),
    ("P10", "Figure 1"): (("output results",), ("one-dimensional quantitative",),
                          "statistical chart", "performance evaluation"),
    ("P10", "Figure 3"): (("input data",), ("multi-dimensional quantitative",),
                          "heatmap", "distribution"),
    ("P12", "Figure 1"): (("transient state",), ("multi-dimensional quantitative",),
                          "statistical chart", "dimensionality reduction"),
}


def collect_outputs(out_dir: Path) -> dict[str, bytes]:
    result = {}
    for paths in stage_outputs(out_dir).values():
        for path in paths:
            if path.exists():
                result[str(path.relative_to(out_dir))] = path.read_bytes()
    return result


class TestCriterion02StubPipeline:
    def test_byte_identical_and_hand_traced(self, tmp_path):
        configs = [
            load_config(make_fixture_config(tmp_path, "acc_a", max_workers=1)),
            load_config(make_fixture_config(tmp_path, "acc_b", max_workers=1)),
            load_config(make_fixture_config(tmp_path, "acc_c", max_workers=4)),
        ]
        outputs = []
        for config in configs:
            run_pipeline(config)
            outputs.append(collect_outputs(Path(config.out_dir)))
        assert outputs[0] == outputs[1], "rerun with a fresh cache changed bytes"
        assert outputs[0] == outputs[2], "thread count changed bytes"

        out_dir = Path(configs[0].out_dir)
        subset = [r["paper_id"] for r in read_jsonl(out_dir / "stage1_subset.jsonl")]
        assert subset == EXPECTED_SUBSET

        verdicts = list(read_jsonl(out_dir / "stage2_verdicts.jsonl"))
        assert len(verdicts) == 10
        for v in verdicts:
            assert v["relevant"] == EXPECTED_RELEVANT[(v["paper_id"], v["figure_id"])]
        selected = {}
        for v in verdicts:
            if v["selected"]:
                selected.setdefault(v["paper_id"], []).append((v["figure_id"], v["role"]))
        assert selected == EXPECTED_SELECTED

        labels = list(read_jsonl(out_dir / "stage3_labels.jsonl"))
        assert len(labels) == len(EXPECTED_LABELS)
        for row in labels:
            expected = EXPECTED_LABELS[(row["paper_id"], row["base_figure_id"])]
            actual = (
                tuple(row["model_listener"]), tuple(row["data_type"]),
                row["visualization_type"], row["visualization_purpose"],
            )
            assert actual == expected, (row["paper_id"], row["base_figure_id"])
        passed(2, "stub pipeline byte-identical across runs/threads; "
                  "all fixture labels match the hand trace")


def fixture_loo_inputs():
    corpus_records = [record_from_dict(r) for r in read_jsonl(FIXTURE_DIR / "corpus.jsonl")]
    assignments = [
        (str(r["paper_id"]), str(r["label"])) for r in read_jsonl(FIXTURE_DIR / "pool.jsonl")
    ]
    pool = load_labeled_pool(corpus_records, assignments)
    coded = load_library(read_jsonl(FIXTURE_DIR / "library.jsonl"))
    table = {}
    for entry in read_jsonl(FIXTURE_DIR / "docs_manifest.jsonl"):
        text = (FIXTURE_DIR / "docs" / str(entry["path"])).read_text(encoding="utf-8")
        doc = filter_nonbody(segment_paragraphs(str(entry["paper_id"]), text))
        for ev in extract_all_evidence(doc):
            table[(ev.paper_id, ev.figure_id)] = ev
    return pool, coded, lambda pid, fid: table.get((pid, fid))


class TestCriterion03NoLeakage:
    def test_loo_logs_clean(self, tmp_path):
        pool, coded, lookup = fixture_loo_inputs()
        gateway = build_gateway(load_config(make_fixture_config(tmp_path, "acc_loo")))
        report = evaluation.run_loo(
            pool=pool,
            coded=coded,
            evidence_lookup=lookup,
            vocab=VOCAB,
            gateway=gateway,
            stage1_backends=("primary", "secondary"),
            figure_backend="primary",
            stages=(1, 2, 3),
            stage1_shots=(0, 6),
            stage2_shots=(0, 5),
            stage3_shots=(0, 10),
        )
        assert report.fold_counts == {"stage1": 6, "stage2": 3, "stage3": 3}
        assert len(report.folds) > 0
        violations = evaluation.find_leakage(report)
        assert violations == []
        passed(3, f"{len(report.folds)} fold logs inspected, zero leakage occurrences")


class TestCriterion04Bm25Oracle:
    def test_hundred_randomized_corpora(self):
        k1, b = 1.2, 0.75

        def oracle_top_k(token_docs, query, k, exclude):
            n = len(token_docs)
            avgdl = sum(len(t) for t in token_docs.values()) / n if n else 0.0
            ranked = []
            for doc_id, tokens in token_docs.items():
                if doc_id in exclude:
                    continue
                total = 0.0
                if avgdl:
                    for term in query:
                        tf = tokens.count(term)
                        if tf == 0:
                            continue
                        df = sum(1 for t in token_docs.values() if term in t)
                        idf = max(0.0, math.log((n - df + 0.5) / (df + 0.5) + 1.0))
                        total += idf * tf * (k1 + 1) / (
                            tf + k1 * (1 - b + b * len(tokens) / avgdl)
                        )
                if total > 0.0:
                    ranked.append((doc_id, total))
            ranked.sort(key=lambda pair: (-pair[1], pair[0]))
            return [doc_id for doc_id, _ in ranked[:k]]

        rng = random.Random(20260810)
        vocabulary = ["model", "loss", "chart", "saliency", "graph", "epoch",
                      "layer", "probe", "view", "trace", "panel", "metric"]
        for trial in range(100):
            docs = {
                f"d{i:02d}": [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
                for i in range(rng.randint(1, 10))
            }
            query = [rng.choice(vocabulary) for _ in range(rng.randint(1, 6))]
            k = rng.randint(1, 9)
            exclude = set(rng.sample(sorted(docs), rng.randint(0, min(2, len(docs)))))
            index = bm25.build_index(
                bm25.TokenizedDoc(doc_id=d, tokens=tuple(t)) for d, t in docs.items()
            )
            assert bm25.top_k(index, query, k, exclude=exclude) == oracle_top_k(
                docs, query, k, exclude
            ), f"trial {trial} diverged from the score-all oracle"
        passed(4, "100 randomized corpora match the brute-force oracle exactly")


class TestCriterion05ConsensusTruthTable:
    def test_all_four_combinations(self):
        for a, b in itertools.product([True, False], repeat=2):
            verdicts = [
                ModelVerdict("primary", a, 0.5, "x"),
                ModelVerdict("secondary", b, 0.5, "y"),
            ]
            assert consensus(verdicts) is (a and b)
        passed(5, "all four two-backend combinations equal the AND rule")


SYNTH_DOC = """\
SYNTHETIC HEADER LINE

Opening body paragraph that survives filtering with plenty of tokens included.

Figure 1: First caption paragraph with a comfortable number of tokens.

A reference to Figure 1 sits here in the very middle of the body text.

Quiet paragraph separating the first cluster from the second cluster entirely.

Figure 2: Second caption paragraph also holding enough descriptive tokens.

The first mention of Figure 2 appears within this particular body paragraph.

Another calm paragraph standing between the two separate reference clusters.

A second mention of Figure 2 shows up here to force window merging behavior.

Figure 3: Third caption paragraph that nothing in the body ever references.

REFERENCES

[9] A trailing entry that must vanish with the references cutoff applied.
"""

EARLY_DOC = """\
Figure 4 is referenced immediately in this very first body paragraph here.

A following paragraph continues the discussion with neutral filler content.

One more paragraph before the caption finally appears further down below.

Figure 4: Late caption paragraph for the figure referenced at the start.
"""


class TestCriterion06FigureEvidence:
    def test_bit_exact_evidence_blocks(self):
        doc = filter_nonbody(segment_paragraphs("synth", SYNTH_DOC))
        body = doc.paragraphs
        # Filtered body: 0 opening, 1 cap1, 2 ref1, 3 quiet, 4 cap2,
        # 5 ref2a, 6 calm, 7 ref2b, 8 cap3.
        # Figure 1: hit at 2, window {1,2,3} minus its own caption at 1.
        ev1 = extract_evidence(doc, "Figure 1")
        assert ev1.assembled_evidence == "\n\n".join([body[1], body[2], body[3]])
        ev2 = extract_evidence(doc, "Figure 2")
        assert ev2.assembled_evidence == "\n\n".join(
            [body[4], body[5], body[6], body[7], body[8]]
        )
        ev3 = extract_evidence(doc, "Figure 3")
        assert ev3.assembled_evidence == body[8]
        assert ev3.context == ()

        early = filter_nonbody(segment_paragraphs("early", EARLY_DOC))
        ev4 = extract_evidence(early, "Figure 4")
        assert ev4.assembled_evidence == "\n\n".join(
            [early.paragraphs[3], early.paragraphs[0], early.paragraphs[1]]
        )
        passed(6, "caption+window evidence bit-exact incl. clipping and merging")


class TestCriterion07NormalizationAggregation:
    def norm(self, raw):
        return stage3.normalize_labels(raw, VOCAB, "p", "Figure 1")

    def test_rule_suite(self):
        # Idempotence (3 cases).
        for raw in (
            {"model_listener": ["outputs"], "visualization_type": "scatter plot"},
            {"data_type": ["hologram"], "confidences": {"data_type": 3.0}},
            {},
        ):
            once = self.norm(raw)
            assert stage3.normalize_labels(once.as_payload(), VOCAB, "p", "Figure 1") == once

        # Invalid-value fallback to "other" (3 cases).
        assert self.norm({"visualization_type": "3D surface"}).vis_type == "other"
        assert self.norm({"visualization_purpose": "sculpture"}).vis_purpose == "other"
        assert self.norm({"data_type": ["plasma"]}).data_types == ("other",)

        # Confidence clipping (3 cases).
        assert self.norm({"confidences": {"data_type": 1.7}}).confidences["data_type"] == 1.0
        assert self.norm({"confidences": {"data_type": -0.2}}).confidences["data_type"] == 0.0
        assert self.norm({"confidences": {"data_type": "NaN"}}).confidences["data_type"] == 0.0

        def labels(listeners=("output results",), vis="heatmap", purpose="distribution"):
            return FrameworkLabels(
                paper_id="p", base_figure_id="Figure 1",
                listeners=tuple(listeners), data_types=("nominal",),
                vis_type=vis, vis_purpose=purpose, confidences={}, evidence={},
            )

        # Set-union merging (3 cases).
        union1 = stage3.aggregate_subfigures(
            [labels(("input data",)), labels(("output results",))], VOCAB)
        assert union1.listeners == ("input data", "output results")
        union2 = stage3.aggregate_subfigures(
            [labels(("input data",)), labels(("input data",))], VOCAB)
        assert union2.listeners == ("input data",)
        union3 = stage3.aggregate_subfigures(
            [labels(("transient state", "model structure")), labels(("input data",))], VOCAB)
        assert union3.listeners == ("input data", "model structure", "transient state")

        # Strict-majority voting (3 cases).
        assert stage3.aggregate_subfigures(
            [labels(vis="heatmap"), labels(vis="heatmap"), labels(vis="statistical chart")],
            VOCAB).vis_type == "heatmap"
        assert stage3.aggregate_subfigures([labels(vis="heatmap")], VOCAB).vis_type == "heatmap"
        assert stage3.aggregate_subfigures(
            [labels(purpose="distribution")] * 3, VOCAB).vis_purpose == "distribution"

        # Tie / no strict majority -> other (3 cases).
        assert stage3.aggregate_subfigures(
            [labels(vis="heatmap"), labels(vis="statistical chart")], VOCAB).vis_type == "other"
        assert stage3.aggregate_subfigures(
            [labels(purpose="distribution"), labels(purpose="I/O relationship"),
             labels(purpose="performance evaluation")], VOCAB).vis_purpose == "other"
        assert stage3.aggregate_subfigures(
            [labels(vis="heatmap"), labels(vis="heatmap"),
             labels(vis="statistical chart"), labels(vis="statistical chart")],
            VOCAB).vis_type == "other"
        passed(7, "normalization and aggregation rules verified, ≥3 cases each")


class TestCriterion08PathExpansion:
    def test_products_and_flow_conservation(self):
        rng = random.Random(808)
        listeners_all = list(VOCAB.values("model_listener"))
        data_all = list(VOCAB.values("data_type"))
        records = []
        for i in range(50):
            records.append(
                FrameworkLabels(
                    paper_id=f"p{i:02d}", base_figure_id="Figure 1",
                    listeners=tuple(rng.sample(listeners_all, rng.randint(1, 5))),
                    data_types=tuple(rng.sample(data_all, rng.randint(1, 4))),
                    vis_type=rng.choice(VOCAB.values("visualization_type")),
                    vis_purpose=rng.choice(VOCAB.values("visualization_purpose")),
                    confidences={}, evidence={},
                )
            )
        for record in records:
            expanded = analysis.expand_paths(record)
            oracle = list(
                itertools.product(record.listeners, record.data_types,
                                  [record.vis_type], [record.vis_purpose])
            )
            assert len(expanded) == len(oracle)

        paths = analysis.expand_all(records)
        export = analysis.sankey_export(paths)
        for fname in FIELDS:
            stage_total = sum(n["total"] for n in export["nodes"] if n["stage"] == fname)
            assert stage_total == len(paths)

        pairwise = analysis.expand_paths(
            FrameworkLabels(
                paper_id="px", base_figure_id="Figure 1",
                listeners=("input data", "output results"), data_types=("nominal",),
                vis_type="statistical chart", vis_purpose="performance evaluation",
                confidences={}, evidence={},
            )
        )
        assert len(pairwise) == 2
        passed(8, "50 random expansions match the product oracle; flows conserve")


class TestCriterion09CitationWeighting:
    def test_exact_weight_and_fixture_shares(self):
        assert analysis.citation_weight(70, 2020, 2026) == 10.0

        papers = [
            analysis.PaperLabels("a", 2020, 70, {"model_listener": ("output results",)}),
            analysis.PaperLabels("b", 2024, 30, {"model_listener": ("output results",)}),
            analysis.PaperLabels("c", 2022, 0, {"model_listener": ("input data",)}),
            analysis.PaperLabels("d", 2022, 25,
                                 {"model_listener": ("input data", "output results")}),
        ]
        rows = {r["category"]: r for r in analysis.weighted_coverage(
            papers, "model_listener", reference_year=2026)}
        # Hand computation: w = 10, 10, 0, 5; total 25.
        assert rows["output results"]["weighted_share"] == pytest.approx(1.0, abs=1e-9)
        assert rows["input data"]["weighted_share"] == pytest.approx(0.2, abs=1e-9)
        assert rows["output results"]["prevalence"] == pytest.approx(0.75, abs=1e-9)
        assert rows["input data"]["prevalence"] == pytest.approx(0.5, abs=1e-9)
        passed(9, "w(70,2020,2026)=10.0 exact; fixture shares match within 1e-9")

    def test_corpus_level_reference_values(self):
        # These corpus-level values depend on the original authors' label
        # file; supply it via VISMINE_AUTHOR_LABELS / VISMINE_AUTHOR_PAPERS
        # (JSONL) to activate the check.
        labels_path = os.environ.get("VISMINE_AUTHOR_LABELS")
        papers_path = os.environ.get("VISMINE_AUTHOR_PAPERS")
        if not labels_path or not papers_path:
            pytest.skip(
                "author label file not supplied; corpus-level reference values "
                "(prevalence 93.8%/78.9%/68.8%/69.5%, 1000 paths, node totals "
                "527/487/533) are documented as data-dependent"
            )
        from vismine.vocab import labels_from_dict

        label_rows = [labels_from_dict(r) for r in read_jsonl(labels_path)]
        papers = {r.paper_id: r for r in
                  (record_from_dict(x) for x in read_jsonl(papers_path))}
        paths = analysis.expand_all([l for l in label_rows if not l.flags])
        export = analysis.sankey_export(paths)
        totals = {
            (n["stage"], n["category"]): n["total"] for n in export["nodes"]
        }
        assert len(paths) == 1000
        assert totals[("model_listener", "output results")] == 527
        assert totals[("visualization_type", "statistical chart")] == 487
        assert totals[("visualization_purpose", "performance evaluation")] == 533
        lifted = analysis.paper_level_labels(label_rows, papers)
        coverage = {
            (row["field"], row["category"]): row["prevalence"]
            for fname in FIELDS
            for row in analysis.weighted_coverage(lifted, fname, 2026)
        }
        assert coverage[("model_listener", "output results")] == pytest.approx(0.938, abs=5e-3)
        assert coverage[("data_type", "nominal")] == pytest.approx(0.789, abs=5e-3)
        assert coverage[("visualization_type", "statistical chart")] == pytest.approx(0.688, abs=5e-3)
        assert coverage[("visualization_purpose", "performance evaluation")] == pytest.approx(0.695, abs=5e-3)


class TestCriterion10RepresentativePolicy:
    def test_randomized_caps_and_exclusion(self):
        rng = random.Random(1010)
        papers_with_zero_relevant = 0
        for trial in range(300):
            verdicts = [
                stage2.RelevanceVerdict(
                    paper_id="paper",
                    figure_id=f"Figure {i}",
                    relevant=rng.random() < 0.5,
                    confidence=round(rng.random(), 3),
                    evidence="e",
                    role=rng.choice([None, "overview", "performance", "mechanism"]),
                )
                for i in range(1, rng.randint(2, 14))
            ]
            selected = stage2.select_representatives(verdicts)
            assert len(selected) <= 3
            assert all(v.relevant for v in selected)
            if not any(v.relevant for v in verdicts):
                papers_with_zero_relevant += 1
                assert selected == []
        assert papers_with_zero_relevant > 0  # the exclusion branch was exercised
        passed(10, f"300 randomized papers: ≤3 representatives always; "
                   f"{papers_with_zero_relevant} zero-relevant papers excluded")
