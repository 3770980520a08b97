"""One benchmark iteration in a fresh interpreter.

Each iteration runs in its own process so that ``setup_s`` includes the
import of vismine and ``peak_rss_mb`` is that iteration's own peak.  The
process prints one JSON object on stdout; the orchestrator (run.py)
checks it and aggregates iterations.

  python3 bench/worker.py funnel CONFIG [--trace SPANS_FILE]
  python3 bench/worker.py loo CONFIG EVIDENCE OUT_DIR [--trace SPANS_FILE]
  python3 bench/worker.py evidence MANIFEST DOCS_DIR OUT_FILE

``funnel`` is ``vismine run`` through ``run_pipeline``; ``loo`` is
``vismine eval --stages 1,2,3`` with the default shots through
``run_loo``.  ``evidence`` is untimed input preparation for ``loo``.
Without ``--trace`` the only instrumentation is a counter on the stub
backends' ``complete``, which is where a live run pays for LLM traffic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Settings of `vismine eval` that the loo workload uses: its defaults.
LOO_STAGES = (1, 2, 3)
LOO_SHOTS = {"stage1_shots": (0, 6), "stage2_shots": (0, 5), "stage3_shots": (0, 10)}


def _outputs(root: Path, skip: str = "") -> tuple[dict[str, str], dict[str, int]]:
    """SHA-256 of every output file, and the record count of each JSONL one."""
    hashes, records = {}, {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and not (skip and rel.startswith(skip + "/")):
            data = path.read_bytes()
            hashes[rel] = hashlib.sha256(data).hexdigest()
            if rel.endswith(".jsonl"):
                records[rel] = data.count(b"\n")
    return hashes, records


class _BackendCounter:
    """Counts network calls and the prompt characters they carry."""

    def __init__(self, backend_class):
        self.calls = 0
        self.prompt_chars = 0
        original = backend_class.complete
        counter = self

        def complete(backend, prompt):
            counter.calls += 1
            counter.prompt_chars += len(prompt)
            return original(backend, prompt)

        backend_class.complete = complete


def _setup(config_path: str, trace: bool):
    """The program's set-up before its first stage; returns its objects."""
    import vismine

    if Path(vismine.__file__).resolve().parent != SRC / "vismine":
        raise SystemExit(f"vismine imported from {vismine.__file__}, not from {SRC}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    config = vismine.load_config(config_path)
    problems = vismine.validate_config(config)
    if problems:
        raise SystemExit("config invalid: " + "; ".join(problems))
    gateway = vismine.build_gateway(config)
    return vismine, config, gateway, tracer


def run_funnel(args) -> dict:
    t0 = time.perf_counter()
    vismine, config, _, tracer = _setup(args.config, bool(args.trace))
    counter = None if tracer else _BackendCounter(vismine.KeywordStubBackend)
    t1 = time.perf_counter()
    manifest = vismine.run_pipeline(config)
    t2 = time.perf_counter()
    out_dir = config.resolve(config.out_dir)
    cache_dir = config.resolve(config.cache_dir)
    skip = cache_dir.relative_to(out_dir).as_posix() if cache_dir.is_relative_to(out_dir) else ""
    report = json.loads((out_dir / "ingest_report.json").read_text(encoding="utf-8"))
    outputs, records = _outputs(out_dir, skip)
    return _result(t0, t1, t2, manifest.gateway, counter, tracer, args,
                   outputs=outputs, records=records,
                   ingest={"total": report["total"],
                           "after_keyword_filter": report["after_keyword_filter"]})


def run_loo(args) -> dict:
    t0 = time.perf_counter()
    vismine, config, gateway, tracer = _setup(args.config, bool(args.trace))
    from vismine.jsonl import read_jsonl, write_json
    from vismine.evidence import evidence_from_dict
    from vismine.library import load_library

    records, _ = vismine.ingest_metadata(read_jsonl(config.resolve(config.corpus_path)))
    assignments = [(str(row["paper_id"]), str(row["label"]))
                   for row in read_jsonl(config.resolve(config.pool_path))]
    pool = vismine.load_labeled_pool(records, assignments)
    coded = load_library(read_jsonl(config.resolve(config.library_path)))
    table = {}
    for raw in read_jsonl(args.evidence):
        evidence = evidence_from_dict(raw)
        table[(evidence.paper_id, evidence.figure_id)] = evidence
    vocab = vismine.load_vocabulary(config.resolve(config.vocab_path),
                                    config.resolve(config.alias_path))
    counter = None if tracer else _BackendCounter(vismine.KeywordStubBackend)
    t1 = time.perf_counter()
    report = vismine.run_loo(
        pool=pool, coded=coded, evidence_lookup=lambda p, f: table.get((p, f)), vocab=vocab,
        gateway=gateway, stage1_backends=config.stage1_backends,
        figure_backend=config.stage2_backend, stages=LOO_STAGES, **LOO_SHOTS,
    )
    out_dir = Path(args.out_dir)
    write_json(out_dir / "report.json", report.to_dict())
    t2 = time.perf_counter()
    outputs, _ = _outputs(out_dir)
    return _result(t0, t1, t2, gateway.stats.to_dict(), counter, tracer, args,
                   outputs=outputs,
                   inputs={"pool_papers": len(pool.records),
                           "coded_figures": sum(len(p.coded_figures()) for p in coded),
                           "evidence_figures": len(table)},
                   loo={"leakage": vismine.find_leakage(report), "errors": list(report.errors),
                        "fold_counts": dict(report.fold_counts)})


def _result(t0, t1, t2, gateway_stats, counter, tracer, args, **extra) -> dict:
    result = {
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gateway": gateway_stats,
        **extra,
    }
    if counter is not None:
        result["backend"] = {"calls": counter.calls, "prompt_chars": counter.prompt_chars}
    if tracer is not None:
        tracer.uninstall()
        loo = extra.get("loo")
        layers = tracer.metrics({
            "gateway.retries": gateway_stats["retries"],
            "gateway.failures": gateway_stats["failures"],
            "evaluation.folds": sum(loo["fold_counts"].values()) if loo else 0,
            "evaluation.errors": len(loo["errors"]) if loo else 0,
        })
        result["span_calls"] = dict(tracer.calls)
        result["backend"] = {"calls": layers["gateway.network_calls"],
                             "prompt_chars": layers["gateway.prompt_chars"]}
        result["layers"] = layers
        tracer.write_spans(args.trace)
    return result


def run_evidence(args) -> dict:
    from vismine import cli

    code = cli.main(["evidence", "--docs-manifest", args.manifest, "--docs-dir", args.docs_dir,
                     "--out", args.out])
    if code != 0:
        raise SystemExit(f"vismine evidence exited {code}")
    return {}


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(SRC))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("funnel")
    p.add_argument("config")
    p.add_argument("--trace", default="", help="write spans here and report per-layer metrics")
    p.set_defaults(func=run_funnel)
    p = sub.add_parser("loo")
    p.add_argument("config")
    p.add_argument("evidence")
    p.add_argument("out_dir")
    p.add_argument("--trace", default="")
    p.set_defaults(func=run_loo)
    p = sub.add_parser("evidence")
    p.add_argument("manifest")
    p.add_argument("docs_dir")
    p.add_argument("out")
    p.set_defaults(func=run_evidence)
    args = parser.parse_args(argv)
    print(json.dumps(args.func(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
