"""Run configuration: loading, batch validation, gateway construction.

The config is a single JSON file; credentials are referenced by env-var
name and never stored in it. `jsonl.read_object` loads `RunConfig`, each
`BackendConfig` and its `StubRules`; a value of the wrong type is a
`ConfigError` naming its key. Validation collects every violation before
reporting, so one pass fixes everything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar
from urllib.parse import urlsplit

from . import stage1 as stage1_mod
from . import stage2 as stage2_mod
from . import stage3 as stage3_mod
from .corpus import DEFAULT_KEYWORDS
from .errors import ConfigError, InputError
from .gateway import Gateway, HttpBackend, KeywordStubBackend, StubRules
from .jsonl import read_object, unread_keys


@dataclass
class BackendConfig:
    kind: str = "http"  # "http" | "stub"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    temperature: float = 0.0
    timeout: float = 60.0
    stub_rules: StubRules = StubRules()


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
    backends: dict[str, BackendConfig] = field(default_factory=dict)

    # The JSON key of each field not read under its own name; `base_dir` is
    # the config file's directory, not a key.
    JSON_KEYS: ClassVar[dict[str, str | None]] = {
        "base_dir": None, "corpus_path": "corpus", "pool_path": "pool",
        "docs_manifest_path": "docs_manifest", "library_path": "library",
        "vocab_path": "vocabulary", "alias_path": "aliases",
        "stage1_k": "stage1.k", "stage1_min_pos": "stage1.min_pos",
        "stage1_min_neg": "stage1.min_neg", "stage1_backends": "stage1.backends",
        "stage2_k": "stage2.k", "stage2_max_figs": "stage2.max_figs",
        "stage2_backend": "stage2.backend",
        "stage3_k": "stage3.k", "stage3_per_paper_cap": "stage3.per_paper_cap",
        "stage3_backend": "stage3.backend"}

    def resolve(self, path: Path | None) -> Path | None:
        if path is None:
            return None
        return path if path.is_absolute() else self.base_dir / path


def _is_http_url(url: str) -> bool:
    """An `http://` or `https://` URL with a host and, if any, a port in 1-65535."""
    try:
        parts = urlsplit(url)
        port = parts.port  # a ValueError for a port that is no such number
    except ValueError:  # also an unclosed `[` of an IPv6 host
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname) and port != 0


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not JSON or not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    try:
        config = read_object(RunConfig, raw, base_dir=path.parent.resolve())
    except InputError as exc:
        raise ConfigError(str(exc)) from exc
    unread = unread_keys(RunConfig, raw)
    if unread:  # a misspelled key would otherwise leave its setting at the default
        raise ConfigError("; ".join(f"{key}: unknown key" for key in unread))
    return config


def validate_config(config: RunConfig) -> list[str]:
    """Every violation at once; an empty list means the config is usable.

    Every input path the config gives must exist; no data file is read.
    Whether a stage reads a path it leaves out, and whether `reference_year`
    covers the corpus, is checked where the stages run, in `pipeline`.
    """
    errors: list[str] = []

    for name in ("corpus_path", "pool_path", "docs_manifest_path", "library_path",
                 "vocab_path", "alias_path"):
        resolved = config.resolve(getattr(config, name))
        if resolved is not None and not resolved.exists():
            errors.append(f"{RunConfig.JSON_KEYS[name]}: file not found: {resolved}")
    if config.docs_dir is not None:
        docs_dir = config.resolve(config.docs_dir)
        if not docs_dir.is_dir():
            errors.append(f"docs_dir: directory not found: {docs_dir}")

    for name in ("stage1_k", "stage2_k", "stage3_k"):
        k = getattr(config, name)
        if k < 1:
            errors.append(f"{RunConfig.JSON_KEYS[name]}: k must be >= 1, got {k}")
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
    if not 0 <= config.backoff_base < math.inf:  # false for NaN too
        errors.append(f"backoff_base must be a finite number >= 0, got {config.backoff_base}")
    if config.reference_year < 1990:
        errors.append(f"reference_year is implausible: {config.reference_year}")

    named = set(config.backends)
    used = set(config.stage1_backends) | {config.stage2_backend, config.stage3_backend}
    for backend_id in sorted(used - named):
        errors.append(f"backend {backend_id!r} referenced but not configured")
    for slot, backend in config.backends.items():
        if backend.kind not in ("http", "stub"):
            errors.append(f"backend {slot!r}: unknown kind {backend.kind!r}")
        if backend.kind == "http" and not backend.endpoint:
            errors.append(f"backend {slot!r}: http backend needs an endpoint")
        elif backend.kind == "http" and not _is_http_url(backend.endpoint):
            errors.append(f"backend {slot!r}: endpoint must be an http:// or https:// URL "
                          f"with a host and a valid port, got {backend.endpoint!r}")
        if backend.kind == "http" and not backend.api_key_env:
            errors.append(f"backend {slot!r}: http backend needs api_key_env")
        if backend.kind == "http" and not 0 < backend.timeout < math.inf:
            errors.append(f"backend {slot!r}: timeout must be a finite number > 0, "
                          f"got {backend.timeout}")
        if backend.kind == "http" and not math.isfinite(backend.temperature):
            errors.append(f"backend {slot!r}: temperature must be a finite number, "
                          f"got {backend.temperature}")
    return errors


def build_gateway(config: RunConfig) -> Gateway:
    backends = {}
    for slot, spec in config.backends.items():
        if spec.kind == "stub":
            backends[slot] = KeywordStubBackend(slot, spec.stub_rules)
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
    )
