"""Run configuration: loading, batch validation, gateway construction.

The config is a single JSON file; credentials are referenced by env-var
name and never stored in it. Validation collects every violation before
reporting, so one pass fixes everything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import stage1 as stage1_mod
from . import stage2 as stage2_mod
from . import stage3 as stage3_mod
from .corpus import DEFAULT_KEYWORDS
from .errors import ConfigError
from .gateway import Gateway, HttpBackend, KeywordStubBackend, StubRules

@dataclass
class BackendConfig:
    slot: str
    kind: str = "http"  # "http" | "stub"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    temperature: float = 0.0
    timeout: float = 60.0
    stub_rules: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    base_dir: Path
    corpus_path: Path | None = None
    pool_path: Path | None = None
    docs_manifest_path: Path | None = None
    docs_dir: Path | None = None
    library_path: Path | None = None
    vocab_path: Path | None = None
    alias_path: Path | None = None
    out_dir: Path = Path("out")
    cache_dir: Path | None = None
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
    reference_year: int = 2026
    stage1_k: int = stage1_mod.DEFAULT_K
    stage1_min_pos: int = stage1_mod.DEFAULT_MIN_POS
    stage1_min_neg: int = stage1_mod.DEFAULT_MIN_NEG
    stage1_backends: tuple[str, ...] = ("primary", "secondary")
    stage2_k: int = stage2_mod.DEFAULT_K
    stage2_max_figs: int = stage2_mod.DEFAULT_MAX_FIGS
    stage2_backend: str = "primary"
    stage3_k: int = stage3_mod.DEFAULT_K
    stage3_per_paper_cap: int = stage3_mod.DEFAULT_PER_PAPER_CAP
    stage3_backend: str = "primary"
    max_workers: int = 1
    max_attempts: int = 3
    backoff_base: float = 0.5
    concurrency: int = 8
    backends: dict[str, BackendConfig] = field(default_factory=dict)

    def resolve(self, path: Path | None) -> Path | None:
        if path is None:
            return None
        return path if path.is_absolute() else self.base_dir / path


def _section(raw: dict, key: str, name: str) -> dict:
    """The object under `key`; a missing or null one is empty."""
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object, got {value!r}")
    return value


def _number(raw: dict, key: str, default, kind: type, name: str):
    value = raw.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected a number, got {value!r}") from None


def _strings(raw: dict, key: str, default: tuple[str, ...], name: str) -> tuple[str, ...]:
    """The list of strings under `key`; a missing or empty one gives `default`."""
    value = raw.get(key)
    if not value:
        return default
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name}: expected a list of strings, got {value!r}")
    return tuple(value)


def _path_or_none(raw: dict, key: str) -> Path | None:
    value = raw.get(key)
    if not value:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a path, got {value!r}")
    return Path(value)


def _max_corpus_year(path: Path) -> int | None:
    years = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                year = json.loads(line).get("year")
                if year is not None:
                    years.append(int(year))
    except (OSError, ValueError):
        return None  # malformed corpora are reported by ingest, not here
    return max(years) if years else None


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    backends = {}
    backend_specs = _section(raw, "backends", "backends")
    for slot in backend_specs:
        name = f"backends.{slot}"
        spec = _section(backend_specs, slot, name)
        default_backend = BackendConfig(slot=slot)
        backends[slot] = BackendConfig(
            slot=slot,
            kind=str(spec.get("kind", default_backend.kind)),
            endpoint=str(spec.get("endpoint", default_backend.endpoint)),
            model=str(spec.get("model", default_backend.model)),
            api_key_env=str(spec.get("api_key_env", default_backend.api_key_env)),
            temperature=_number(spec, "temperature", default_backend.temperature, float,
                                f"{name}.temperature"),
            timeout=_number(spec, "timeout", default_backend.timeout, float, f"{name}.timeout"),
            stub_rules=dict(_section(spec, "stub_rules", f"{name}.stub_rules")),
        )
    stage1 = _section(raw, "stage1", "stage1")
    stage2 = _section(raw, "stage2", "stage2")
    stage3 = _section(raw, "stage3", "stage3")
    default = RunConfig(base_dir=path.parent.resolve())
    return RunConfig(
        base_dir=default.base_dir,
        corpus_path=_path_or_none(raw, "corpus"),
        pool_path=_path_or_none(raw, "pool"),
        docs_manifest_path=_path_or_none(raw, "docs_manifest"),
        docs_dir=_path_or_none(raw, "docs_dir"),
        library_path=_path_or_none(raw, "library"),
        vocab_path=_path_or_none(raw, "vocabulary"),
        alias_path=_path_or_none(raw, "aliases"),
        out_dir=_path_or_none(raw, "out_dir") or default.out_dir,
        cache_dir=_path_or_none(raw, "cache_dir"),
        keywords=_strings(raw, "keywords", default.keywords, "keywords"),
        reference_year=_number(raw, "reference_year", default.reference_year, int,
                               "reference_year"),
        stage1_k=_number(stage1, "k", default.stage1_k, int, "stage1.k"),
        stage1_min_pos=_number(stage1, "min_pos", default.stage1_min_pos, int, "stage1.min_pos"),
        stage1_min_neg=_number(stage1, "min_neg", default.stage1_min_neg, int, "stage1.min_neg"),
        stage1_backends=_strings(stage1, "backends", default.stage1_backends, "stage1.backends"),
        stage2_k=_number(stage2, "k", default.stage2_k, int, "stage2.k"),
        stage2_max_figs=_number(stage2, "max_figs", default.stage2_max_figs, int,
                                "stage2.max_figs"),
        stage2_backend=str(stage2.get("backend", default.stage2_backend)),
        stage3_k=_number(stage3, "k", default.stage3_k, int, "stage3.k"),
        stage3_per_paper_cap=_number(stage3, "per_paper_cap", default.stage3_per_paper_cap, int,
                                     "stage3.per_paper_cap"),
        stage3_backend=str(stage3.get("backend", default.stage3_backend)),
        max_workers=_number(raw, "max_workers", default.max_workers, int, "max_workers"),
        max_attempts=_number(raw, "max_attempts", default.max_attempts, int, "max_attempts"),
        backoff_base=_number(raw, "backoff_base", default.backoff_base, float, "backoff_base"),
        concurrency=_number(raw, "concurrency", default.concurrency, int, "concurrency"),
        backends=backends,
    )


def validate_config(config: RunConfig) -> list[str]:
    """Every violation at once; an empty list means the config is usable.

    A path the config leaves out is not checked here; the step that needs
    it fails naming the missing key.
    """
    errors: list[str] = []

    for name, path in (
        ("corpus", config.corpus_path),
        ("pool", config.pool_path),
        ("docs_manifest", config.docs_manifest_path),
        ("library", config.library_path),
        ("vocabulary", config.vocab_path),
        ("aliases", config.alias_path),
    ):
        resolved = config.resolve(path)
        if resolved is not None and not resolved.exists():
            errors.append(f"{name}: file not found: {resolved}")
    if config.docs_dir is not None:
        docs_dir = config.resolve(config.docs_dir)
        if not docs_dir.is_dir():
            errors.append(f"docs_dir: directory not found: {docs_dir}")

    for name, k in (
        ("stage1.k", config.stage1_k),
        ("stage2.k", config.stage2_k),
        ("stage3.k", config.stage3_k),
    ):
        if k < 1:
            errors.append(f"{name}: k must be >= 1, got {k}")
    if config.stage1_min_pos < 0 or config.stage1_min_neg < 0:
        errors.append("stage1: min_pos/min_neg must be nonnegative")
    if config.stage1_min_pos + config.stage1_min_neg > config.stage1_k:
        errors.append(
            f"stage1: min_pos + min_neg exceeds k "
            f"({config.stage1_min_pos}+{config.stage1_min_neg} > {config.stage1_k})"
        )
    if config.stage2_max_figs < 1:
        errors.append(f"stage2: max_figs must be >= 1, got {config.stage2_max_figs}")
    if config.stage3_per_paper_cap < 1:
        errors.append(f"stage3: per_paper_cap must be >= 1, got {config.stage3_per_paper_cap}")
    if config.max_workers < 1:
        errors.append(f"max_workers must be >= 1, got {config.max_workers}")
    if config.max_attempts < 1:
        errors.append(f"max_attempts must be >= 1, got {config.max_attempts}")
    if config.concurrency < 1:
        errors.append(f"concurrency must be >= 1, got {config.concurrency}")
    if config.reference_year < 1990:
        errors.append(f"reference_year is implausible: {config.reference_year}")
    corpus_path = config.resolve(config.corpus_path)
    if corpus_path is not None and corpus_path.exists():
        max_year = _max_corpus_year(corpus_path)
        if max_year is not None and max_year > config.reference_year:
            errors.append(
                f"reference_year {config.reference_year} precedes the newest "
                f"corpus year {max_year}"
            )

    named = set(config.backends)
    used = set(config.stage1_backends) | {config.stage2_backend, config.stage3_backend}
    for backend_id in sorted(used - named):
        errors.append(f"backend {backend_id!r} referenced but not configured")
    for slot, backend in config.backends.items():
        if backend.kind not in ("http", "stub"):
            errors.append(f"backend {slot!r}: unknown kind {backend.kind!r}")
        if backend.kind == "http" and not backend.endpoint:
            errors.append(f"backend {slot!r}: http backend needs an endpoint")
        if backend.kind == "http" and not backend.api_key_env:
            errors.append(f"backend {slot!r}: http backend needs api_key_env")
        if backend.kind == "stub":
            try:
                StubRules.from_config(backend.stub_rules)
            except ConfigError as exc:
                errors.append(f"backends.{slot}.{exc}")
    return errors


def build_gateway(config: RunConfig) -> Gateway:
    backends = {}
    for slot, spec in config.backends.items():
        if spec.kind == "stub":
            backends[slot] = KeywordStubBackend(slot, StubRules.from_config(spec.stub_rules))
        elif spec.kind == "http":
            backends[slot] = HttpBackend(
                name=slot,
                endpoint=spec.endpoint,
                model=spec.model,
                api_key_env=spec.api_key_env,
                temperature=spec.temperature,
                timeout=spec.timeout,
            )
        else:
            raise ConfigError(f"backend {slot!r}: unknown kind {spec.kind!r}")
    cache_dir = config.resolve(config.cache_dir)
    return Gateway(
        backends,
        cache_dir=cache_dir,
        max_attempts=config.max_attempts,
        backoff_base=config.backoff_base,
        concurrency=config.concurrency,
    )
