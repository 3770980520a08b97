"""Outside-in tracing of vismine's layers.

The tracer wraps the public functions of each layer from outside the
program: a module-level function is replaced in every ``vismine.*``
namespace that bound it, found by object identity, so names imported with
``from .gateway import parse_json_payload`` are wrapped too; methods are
replaced on their class.  Each call becomes a span (id, parent id, name,
start, end) kept in memory; self time comes from a stack of open spans,
and the spans are written out when the run ends.

Usage::

    tracer = Tracer()
    tracer.install()
    try:
        ...  # drive vismine
    finally:
        tracer.uninstall()
    metrics = tracer.metrics({"gateway.retries": 0, ...})
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _query_counts(args, kwargs, result):
    return {"bm25.query.tokens": len(_arg(args, kwargs, 1, "query_tokens")),
            "bm25.query.index_docs": _arg(args, kwargs, 0, "index").doc_count}


# (module, attribute path, span name, counter).  A counter maps a call's
# (args, kwargs, result) to {counter name: increment}.
TARGETS = (
    ("vismine.config", "load_config", "config.load", None),
    ("vismine.config", "validate_config", "config.validate", None),
    ("vismine.config", "build_gateway", "config.gateway", None),
    ("vismine.corpus", "ingest_metadata", "corpus.ingest",
     lambda args, kwargs, result: {"corpus.records": len(result[0])}),
    ("vismine.corpus", "LabeledPool.label_of", "corpus.label_of", None),
    ("vismine.corpus", "LabeledPool.by_id", "corpus.by_id", None),
    ("vismine.bm25", "tokenize", "bm25.tokenize", None),
    ("vismine.bm25", "build_index", "bm25.build",
     lambda args, kwargs, result: {"bm25.build.docs": result.doc_count}),
    ("vismine.bm25", "top_k", "bm25.query", _query_counts),
    ("vismine.bm25", "rank_all", "bm25.query", _query_counts),
    ("vismine.evidence", "segment_paragraphs", "evidence",
     lambda args, kwargs, result: {"evidence.docs": 1}),
    ("vismine.evidence", "filter_nonbody", "evidence", None),
    ("vismine.evidence", "extract_all_evidence", "evidence",
     lambda args, kwargs, result: {"evidence.figures": len(result)}),
    ("vismine.evidence", "extract_evidence", "evidence", None),
    ("vismine.gateway", "Gateway.complete", "gateway.complete",
     lambda args, kwargs, result: {"gateway.requests": 1}),
    ("vismine.gateway", "PromptRequest.render", "gateway.render", None),
    ("vismine.gateway", "prompt_hash", "gateway.hash", None),
    ("vismine.gateway", "PromptCache.get", "gateway.cache_get",
     lambda args, kwargs, result: {"gateway.cache_hits": int(result is not None)}),
    ("vismine.gateway", "PromptCache.put", "gateway.cache_put", None),
    ("vismine.gateway", "KeywordStubBackend.complete", "gateway.backend",
     lambda args, kwargs, result: {"gateway.network_calls": 1,
                                   "gateway.prompt_chars": len(_arg(args, kwargs, 1, "prompt"))}),
    ("vismine.gateway", "parse_json_payload", "gateway.parse", None),
    ("vismine.stage1", "build_fewshot_context", "stage1.context", None),
    ("vismine.stage1", "screen_paper", "stage1.screen", None),
    ("vismine.stage2", "retrieve_neighbor_papers", "stage2.neighbors", None),
    ("vismine.stage2", "sample_exemplars", "stage2.exemplars", None),
    ("vismine.stage2", "classify_figure", "stage2.classify", None),
    ("vismine.stage2", "select_representatives", "stage2.select", None),
    ("vismine.stage3", "build_figure_corpus", "stage3.corpus_build", None),
    ("vismine.stage3", "retrieve_similar_figures", "stage3.retrieve", None),
    ("vismine.stage3", "normalize_labels", "stage3.normalize", None),
    ("vismine.stage3", "aggregate_subfigures", "stage3.aggregate", None),
    ("vismine.evaluation", "run_stage1_loo", "evaluation.stage1_loo", None),
    ("vismine.evaluation", "run_stage2_loo", "evaluation.stage2_loo", None),
    ("vismine.evaluation", "run_stage3_loo", "evaluation.stage3_loo", None),
    ("vismine.analysis", "expand_all", "analysis",
     lambda args, kwargs, result: {"analysis.paths": len(result)}),
    ("vismine.analysis", "expand_paths", "analysis", None),
    ("vismine.analysis", "sankey_export", "analysis", None),
    ("vismine.analysis", "edge_flows", "analysis", None),
    ("vismine.analysis", "paper_level_labels", "analysis", None),
    ("vismine.analysis", "yearly_proportions", "analysis", None),
    ("vismine.analysis", "weighted_coverage", "analysis", None),
    ("vismine.analysis", "citation_weight", "analysis", None),
    ("vismine.jsonl", "read_jsonl", "jsonl.read", None),
    ("vismine.jsonl", "write_jsonl", "jsonl.write",
     lambda args, kwargs, result: {"jsonl.write.records": result}),
    ("vismine.jsonl", "file_sha256", "jsonl.sha256", None),
    ("vismine.library", "load_library", "library.load", None),
    ("vismine.vocab", "load_vocabulary", "vocab.load", None),
    ("vismine.pipeline", "run_ingest", "pipeline.ingest", None),
    ("vismine.pipeline", "run_stage1_step", "pipeline.stage1", None),
    ("vismine.pipeline", "run_evidence_step", "pipeline.evidence", None),
    ("vismine.pipeline", "run_stage2_step", "pipeline.stage2", None),
    ("vismine.pipeline", "run_stage3_step", "pipeline.stage3", None),
    ("vismine.pipeline", "run_analyze_step", "pipeline.analyze", None),
)

# Spans whose metric is their whole duration rather than their self time.
INCLUSIVE = frozenset(name for _, _, name, _ in TARGETS if name.startswith("pipeline."))

# Span names reported with a call count besides their time.
CALL_COUNTS = (
    "corpus.label_of", "corpus.by_id", "bm25.tokenize", "bm25.build", "bm25.query",
    "gateway.parse", "stage1.context", "stage1.screen", "stage2.classify",
    "stage3.retrieve", "stage3.normalize", "jsonl.sha256",
)

COUNTERS = (
    "corpus.records", "bm25.build.docs", "bm25.query.tokens", "bm25.query.index_docs",
    "evidence.docs", "evidence.figures", "gateway.requests", "gateway.network_calls",
    "gateway.cache_hits", "gateway.prompt_chars", "analysis.paths",
    "jsonl.read.records", "jsonl.write.records",
)

# Values the tracer cannot see from a call boundary; the caller reads them
# from the gateway's stats and the LOO report and passes them to metrics().
EXTERNAL = ("gateway.retries", "gateway.failures", "evaluation.folds", "evaluation.errors")

# The span that stands for each stage when requests are attributed to stages.
STAGE_SPANS = {
    "pipeline.stage1": "stage1", "pipeline.stage2": "stage2", "pipeline.stage3": "stage3",
    "evaluation.stage1_loo": "stage1", "evaluation.stage2_loo": "stage2",
    "evaluation.stage3_loo": "stage3",
}


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in report order."""
    span_names = sorted({name for _, _, name, _ in TARGETS})
    names = [f"{name}_s" for name in span_names]
    names += [f"{name}.calls" for name in CALL_COUNTS]
    names += list(COUNTERS)
    names += ["gateway.hit_ratio"]
    names += [f"gateway.requests.{stage}" for stage in ("stage1", "stage2", "stage3")]
    names += list(EXTERNAL)
    return names


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and per-name totals for every wrapped call."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame[1]
        parent = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((frame[0], parent, name, frame[1], end))
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - frame[2]

    def wrap(self, fn, name: str, counter=None):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator works while it is iterated: each resumption is a
            # span, and every item counts as one record.
            record_key = f"{name}.records"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._exit(frame, name)
                        return
                    except BaseException:
                        tracer._exit(frame, name)
                        raise
                    tracer._exit(frame, name)
                    tracer.counts[record_key] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, name)
            if counter is not None:
                tracer.counts.update(counter(args, kwargs, result))
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; vismine must already be imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        by_identity: dict[int, tuple[object, object]] = {}
        for module_name, path, name, counter in TARGETS:
            owner, attr = _resolve(sys.modules[module_name], path)
            original = inspect.getattr_static(owner, attr)
            if isinstance(owner, type):
                if isinstance(original, property):
                    wrapped = property(self.wrap(original.fget, name, counter))
                else:
                    wrapped = self.wrap(original, name, counter)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                by_identity[id(original)] = (original, self.wrap(original, name, counter))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "vismine" or module_name.startswith("vismine.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = by_identity.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def stage_requests(self) -> dict[str, int]:
        """Gateway requests attributed to the stage span enclosing them."""
        names = {span_id: name for span_id, _, name, _, _ in self.spans}
        parents = {span_id: parent for span_id, parent, _, _, _ in self.spans}
        result = Counter()
        for span_id, parent, name, _, _ in self.spans:
            if name != "gateway.complete":
                continue
            while parent and names.get(parent) not in STAGE_SPANS:
                parent = parents.get(parent, 0)
            if parent:
                result[STAGE_SPANS[names[parent]]] += 1
        return {stage: result[stage] for stage in ("stage1", "stage2", "stage3")}

    def metrics(self, external: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics; `external` holds a value for each EXTERNAL name."""
        out: dict[str, float] = {name: external[name] for name in EXTERNAL}
        for _, _, name, _ in TARGETS:
            source = self.total if name in INCLUSIVE else self.self_time
            out[f"{name}_s"] = source[name]
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = self.calls[name]
        for name in COUNTERS:
            out[name] = self.counts[name]
        requests = self.counts["gateway.requests"]
        out["gateway.hit_ratio"] = self.counts["gateway.cache_hits"] / requests if requests else 0.0
        for stage, count in self.stage_requests().items():
            out[f"gateway.requests.{stage}"] = count
        return {name: out[name] for name in metric_names()}

    def write_spans(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
