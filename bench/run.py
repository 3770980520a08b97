"""vismine benchmark: one workload, one seed, one result line.

  python3 bench/run.py --workload funnel_cold --seed 1 --seconds 40 --trace 0
  python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the repository root.  The inputs are generated from the seed
(untimed), then worker processes (bench/worker.py) run the workload
through vismine's public entry points over and over for --seconds
seconds, each in a fresh interpreter.  Every iteration's outputs are
checked.  The last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
iterations); with --trace 1 each timed iteration is paired with a traced
one and the metrics are the per-layer ones (lower medians over the
traced iterations) plus trace.overhead_s.  The line before it holds the details:
iteration samples, measured input properties and the SHA-256 of every
output.  Scratch files live in .bench_work/ at the repository root.
`--workload all` runs every workload both ways and prints each metric
with its unit and the outcome of the checks.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKER_TIMEOUT_S = 120
MIN_ITERATIONS = 3


@dataclass(frozen=True)
class Workload:
    mode: str  # "funnel" (vismine run) or "loo" (vismine eval)
    shape: gen.Shape
    warm: bool = False


# Why each workload exists is recorded in BENCHMARK.json and README.md.
FUNNEL_SHAPE = gen.Shape(candidates=250, pool=30, library=12, figures=8, accepted_share=0.1)
WORKLOADS = {
    "funnel_cold": Workload("funnel", FUNNEL_SHAPE),
    "funnel_warm": Workload("funnel", FUNNEL_SHAPE, warm=True),
    "loo_eval": Workload("loo", gen.Shape(candidates=0, pool=64, library=13, figures=8,
                                          accepted_share=0.1, corpus_docs=False)),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_paper": "1/paper",
    "prompt_chars_per_paper": "chars/paper",
}

PROPERTIES = (
    "workload.input_papers", "workload.candidates", "workload.accepted_share",
    "workload.pool_papers", "workload.coded_figures", "workload.evidence_figures",
)


def per_layer_names() -> list[str]:
    """Every metric a --trace 1 run reports."""
    return tracer.metric_names() + ["trace.overhead_s"] + list(PROPERTIES)


class BenchError(Exception):
    """A worker failed or the inputs could not be prepared."""


def _worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _write_config(path: Path, inputs: Path, cache_dir: str) -> Path:
    """The generated stub config with absolute input paths, output in `path`'s dir."""
    raw = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
    for key in ("corpus", "pool", "library", "docs_manifest", "docs_dir"):
        raw[key] = str(inputs / raw[key])
    raw["out_dir"] = "out"
    raw["cache_dir"] = cache_dir
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _comparable(outputs: dict) -> dict:
    """Output hashes that must repeat byte for byte (the manifest holds times)."""
    return {name: digest for name, digest in outputs.items() if name != "manifest.json"}


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


class Runner:
    """One workload's inputs, iterations and output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.inputs = work / "inputs"
        self.failures: list[str] = []  # every failed check, reported at the end
        self.iteration = 0
        self.reference: dict | None = None  # outputs every iteration must reproduce
        self.primed: dict | None = None

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    # -- set-up (untimed) ---------------------------------------------------

    def prepare(self) -> None:
        self.expected = gen.generate(self.inputs, self.seed, self.spec.shape)
        if self.spec.mode == "loo":
            self.evidence = self.work / "evidence.jsonl"
            _worker("evidence", str(self.inputs / "docs_manifest.jsonl"),
                    str(self.inputs / "docs"), str(self.evidence))
        if self.spec.warm:
            prime_dir = self.work / "prime"
            config = _write_config(prime_dir / "config.json", self.inputs, "cache")
            self.primed = _worker("funnel", str(config))
            self.check_funnel(self.primed, prime_dir / "out", cold=True)
            self.cache_dir = prime_dir / "cache"
            self.reference = _comparable(self.primed["outputs"])

    # -- one iteration ------------------------------------------------------

    def run_once(self, traced: bool) -> dict:
        self.iteration += 1
        run_dir = self.work / f"iter{self.iteration}"
        spans = str(self.work / "spans.jsonl") if traced else ""
        trace_args = ["--trace", spans] if traced else []
        if self.spec.mode == "loo":
            config = _write_config(run_dir / "config.json", self.inputs, "cache")
            result = _worker("loo", str(config), str(self.evidence), str(run_dir / "out"),
                             *trace_args)
            self.check_loo(result)
        else:
            cache = str(self.cache_dir) if self.spec.warm else "out/cache"
            config = _write_config(run_dir / "config.json", self.inputs, cache)
            result = _worker("funnel", str(config), *trace_args)
            self.check_funnel(result, run_dir / "out", cold=not self.spec.warm)
        outputs = _comparable(result["outputs"])
        if self.reference is None:
            self.reference = outputs
        self.expect(outputs == self.reference,
                           f"iteration {self.iteration}: outputs differ from the first run"
                           + (" (the primed cold run)" if self.spec.warm else ""))
        shutil.rmtree(run_dir)
        return result

    def check_gateway(self, result: dict) -> None:
        expect, tag, stats = self.expect, f"iteration {self.iteration}", result["gateway"]
        expect(stats["failures"] == 0 and stats["retries"] == 0,
               f"{tag}: gateway failures/retries {stats['failures']}/{stats['retries']}")
        expect(stats["requests"] == stats["network_calls"] + stats["cache_hits"],
               f"{tag}: requests != network calls + cache hits: {stats}")
        expect(result["backend"]["calls"] == stats["network_calls"],
               f"{tag}: {result['backend']['calls']} backend calls, gateway counted "
               f"{stats['network_calls']}")

    def check_funnel(self, result: dict, out_dir: Path, cold: bool) -> None:
        self.check_gateway(result)
        expect, tag = self.expect, f"iteration {self.iteration}"
        stats, exp = result["gateway"], self.expected
        if cold:
            expect(stats["network_calls"] > 0 and stats["cache_hits"] == 0,
                   f"{tag}: a cold run must miss the cache on every request: {stats}")
        else:
            expect(stats["network_calls"] == 0, f"{tag}: warm run made network calls: {stats}")
            expect(stats["requests"] == self.primed["gateway"]["requests"],
                   f"{tag}: warm run made {stats['requests']} requests, the cold run "
                   f"{self.primed['gateway']['requests']}")
        expect(result["ingest"]["after_keyword_filter"] == exp["candidates_after_prefilter"],
               f"{tag}: prefilter kept {result['ingest']['after_keyword_filter']}, "
               f"expected {exp['candidates_after_prefilter']}")
        subset = [row["paper_id"] for row in _jsonl(out_dir / "stage1_subset.jsonl")]
        expect(subset == exp["stage1_subset"], f"{tag}: stage-1 subset differs from the "
               f"papers carrying both screening keywords")
        verdicts = _jsonl(out_dir / "stage2_verdicts.jsonl")
        expect(len(verdicts) == exp["stage2_figures"],
               f"{tag}: {len(verdicts)} stage-2 verdicts, expected {exp['stage2_figures']}")
        selected = sum(1 for v in verdicts if v["selected"])
        labels = _jsonl(out_dir / "stage3_labels.jsonl")
        expect(selected == len(labels) == exp["stage3_figures"],
               f"{tag}: {selected} selected / {len(labels)} labeled figures, "
               f"expected {exp['stage3_figures']}")
        expect(not any(row["flags"] for row in labels), f"{tag}: flagged stage-3 labels")

    def check_loo(self, result: dict) -> None:
        self.check_gateway(result)
        expect, tag = self.expect, f"iteration {self.iteration}"
        loo, stats, exp = result["loo"], result["gateway"], self.expected
        expect(not loo["leakage"], f"{tag}: leakage {loo['leakage'][:3]}")
        expect(not loo["errors"], f"{tag}: LOO errors {loo['errors'][:3]}")
        folds = {"stage1": exp["pool_papers"], "stage2": exp["library_papers"],
                 "stage3": exp["library_papers"]}
        expect(loo["fold_counts"] == folds, f"{tag}: folds {loo['fold_counts']} != {folds}")
        expect(stats["cache_hits"] == 0,
               f"{tag}: an empty-cache eval must send every request: {stats}")

    # -- aggregation ----------------------------------------------------------

    def input_papers(self) -> int:
        exp = self.expected
        if self.spec.mode == "loo":
            return exp["pool_papers"] + exp["library_papers"]
        return exp["raw_records"]

    def end_to_end(self, runs: list[dict]) -> dict[str, float]:
        papers = self.input_papers()
        # Warm runs answer every request from the cache; the prompts behind
        # them are the primed cold run's (same requests, all cache keys hit).
        traffic = self.primed if self.spec.warm else runs[0]
        return {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "requests_per_paper": runs[0]["gateway"]["requests"] / papers,
            "prompt_chars_per_paper": traffic["backend"]["prompt_chars"] / papers,
        }

    def properties(self, result: dict) -> dict:
        """Input properties as one iteration measured them."""
        exp = self.expected
        props = {
            "workload.input_papers": self.input_papers(),
            "workload.pool_papers": exp["pool_papers"],
            "workload.coded_figures": exp["coded_figures"],
            "workload.candidates": 0,
            "workload.accepted_share": 0.0,
        }
        if self.spec.mode == "loo":
            inputs = result["inputs"]
            props.update({f"workload.{key}": value for key, value in inputs.items()})
            return props
        records = result["records"]
        candidates = records["corpus.jsonl"]
        # Pool papers carry manual labels: they pass stage 1 unscreened.
        manual_positives = exp["pool_papers"] // 2
        props["workload.candidates"] = candidates
        props["workload.accepted_share"] = ((records["stage1_subset.jsonl"] - manual_positives)
                                            / (candidates - exp["pool_papers"]))
        props["workload.evidence_figures"] = records["evidence.jsonl"]
        return props


def _measure(runner: Runner, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
    """Iterate until `seconds` are used; never start one that would overrun."""
    plain: list[dict] = []
    traced_runs: list[dict] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(runner.run_once(traced=False))
        if traced:
            traced_runs.append(runner.run_once(traced=True))
        took = time.perf_counter() - began
        enough = traced or len(plain) >= MIN_ITERATIONS
        if enough and time.perf_counter() - start + took > seconds:
            break
    return plain, traced_runs


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(name, seed, work)
    runner.prepare()
    plain, traced = _measure(runner, seconds, trace)
    runs = plain + traced
    stats = [r["gateway"] for r in runs]
    failed = sum(s["failures"] for s in stats) + sum(len(r.get("loo", {}).get("errors", ()))
                                                      for r in runs)
    runner.expect(failed == 0, f"{failed} failed requests or LOO errors")
    props = runner.properties(runs[0])
    if trace:
        # median_low keeps counts whole: every value is one traced iteration's.
        metrics = {key: statistics.median_low(r["layers"][key] for r in traced)
                   for key in traced[0]["layers"]}
        # Each traced iteration runs right after its untraced twin, so their
        # difference cancels most of the machine's slow drifts.
        metrics["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        metrics.update(props)
        if sorted(metrics) != sorted(per_layer_names()):
            raise BenchError("traced metrics differ from per_layer_names()")
        units = {key: unit_of(key) for key in metrics}
    else:
        metrics = runner.end_to_end(plain)
        units = END_TO_END_UNITS
    details = {
        "workload": name,
        "seed": seed,
        "shape": runner.expected["shape"],
        "iterations": {"timed": len(plain), "traced": len(traced)},
        "samples": {key: [round(r[key], 6) for r in plain]
                    for key in ("wall_s", "setup_s", "peak_rss_mb")},
        "properties": props,
        "gateway": runs[0]["gateway"],
        "output_sha256": runs[0]["outputs"],
        "check_failures": runner.failures,
    }
    result = {
        "correct": not runner.failures,
        "attempted": sum(s["requests"] for s in stats),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"details": details, "result": result},
                                                 indent=2, sort_keys=True) + "\n")
    for sub in ("inputs", "prime", "evidence.jsonl"):
        path = work / sub
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
    return details, result


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_share") or metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("prompt_chars"):
        return "chars"
    return "count"


def report_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced: each metric with its unit, and the checks."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            details, result = run(name, seed, seconds, trace)
            for key, metric in sorted(result["metrics"].items()):
                print(f"{name:12s} {key:32s} {metric['value']:>16.6g} {metric['unit']}")
            verdict = "PASS" if result["correct"] else "FAIL"
            print(f"{name:12s} checks (trace {int(trace)}): {verdict}, "
                  f"{result['failed']}/{result['attempted']} requests failed")
            for failure in details["check_failures"]:
                print(f"{name:12s}   {failure}")
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vismine" / "__init__.py").is_file():
        print(f"error: no vismine sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return report_all(args.seed, args.seconds)
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
