"""Backend-agnostic LLM access.

One Gateway fronts any number of named backends (HTTP chat-completion
endpoints or deterministic stubs), adds bounded-retry and a content-hash
response cache, and turns raw responses into verdicts with safe defaults:
anything malformed becomes a negative at confidence zero.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence

from . import __version__
from .errors import (
    AuthenticationError,
    BackendUnavailable,
    GatewayError,
    TransientBackendError,
)
from .jsonl import AppendLog

logger = logging.getLogger(__name__)

MALFORMED_EVIDENCE = "(malformed)"

# Completion-token limit of every HTTP request.
MAX_TOKENS = 1024


@dataclass(frozen=True)
class PromptRequest:
    """Everything needed to render one deterministic prompt."""

    system: str
    exemplars: tuple[tuple[str, str], ...]
    target: str
    schema_id: str

    def render(self) -> str:
        parts = [self.system, "", f"Schema: {self.schema_id}"]
        for i, (evidence, payload) in enumerate(self.exemplars, 1):
            parts += ["", f"### Example {i}", evidence, f"Labels: {payload}"]
        parts += ["", "### Target", self.target]
        return "\n".join(parts)


@dataclass(frozen=True)
class ModelVerdict:
    backend_id: str
    decision: bool
    confidence: float
    evidence: str

    def to_dict(self) -> dict:
        return asdict(self)


class Backend(Protocol):
    name: str

    def complete(self, prompt: str) -> str: ...


class StubBackend:
    """Deterministic offline backend driven by a response function."""

    def __init__(self, name: str, respond: Callable[[str], str]):
        self.name = name
        self._respond = respond
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        return self._respond(prompt)


class HttpBackend:
    """Chat-completion-style HTTP endpoint. The API key lives in an env var."""

    def __init__(
        self,
        name: str,
        endpoint: str,
        model: str,
        api_key_env: str,
        temperature: float = 0.0,
        timeout: float = 60.0,
    ):
        self.name = name
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.temperature = temperature
        self.timeout = timeout

    def complete(self, prompt: str) -> str:
        # Imported on call: `urllib.request` loads `ssl`, which no stub run needs.
        import http.client
        import urllib.error
        import urllib.request

        api_key = os.environ.get(self.api_key_env, "")
        if not api_key or not (api_key.isascii() and api_key.isprintable()):  # else ValueError
            raise AuthenticationError(f"backend {self.name!r}: env var {self.api_key_env!r} "
                                      f"is not set to a printable ASCII key")
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.temperature,
            "max_tokens": MAX_TOKENS,
        }
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json",
                   "User-Agent": f"vismine/{__version__}"}  # some gateways block `Python-urllib`
        request = urllib.request.Request(self.endpoint, json.dumps(body).encode("utf-8"), headers)
        # A redirect fails as its status: `urllib` would send the key to any host it names.
        no_redirect = urllib.request.HTTPRedirectHandler()
        no_redirect.redirect_request = lambda *args: None
        try:  # a new opener reads the proxy variables; `urlopen` keeps the first call's
            with urllib.request.build_opener(no_redirect).open(request, timeout=self.timeout) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            status, raw = exc.code, b""
        except (OSError, http.client.HTTPException) as exc:  # OSError: URLError, timeout, TLS
            raise TransientBackendError(f"backend {self.name!r}: {exc}") from exc
        if status in (401, 403):
            raise AuthenticationError(f"backend {self.name!r}: auth failed ({status})")
        if status == 429 or status >= 500:
            raise TransientBackendError(f"backend {self.name!r}: HTTP {status}")
        if status != 200:
            raise GatewayError(f"backend {self.name!r}: HTTP {status}")
        try:
            return json.loads(raw)["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise GatewayError(f"backend {self.name!r}: unexpected response shape") from exc


def prompt_hash(backend_id: str, prompt: str) -> str:
    digest = hashlib.sha256()
    # `surrogatepass` encodes a lone surrogate (a JSON `\ud800` escape
    # decodes to one) and gives every other string its usual UTF-8 bytes.
    digest.update(backend_id.encode("utf-8", "surrogatepass"))
    digest.update(b"\x00")
    digest.update(prompt.encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


class PromptCache(AppendLog):
    """Request hash -> response, kept in `cache_dir/responses.jsonl` for
    auditing, as `AppendLog` keeps it.  Keys are `prompt_hash` hex digests."""

    def __init__(self, cache_dir: str | Path):
        super().__init__(Path(cache_dir) / "responses.jsonl")


@dataclass
class GatewayStats:
    requests: int = 0
    cache_hits: int = 0
    network_calls: int = 0
    retries: int = 0
    failures: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class Gateway:
    """Routes prompt requests to named backends with retry and caching."""

    def __init__(
        self,
        backends: Mapping[str, Backend],
        cache_dir: str | Path | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
    ):
        if max_attempts < 1:
            raise GatewayError("max_attempts must be >= 1")
        self.backends = dict(backends)
        self.cache = PromptCache(cache_dir) if cache_dir is not None else None
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.stats = GatewayStats()
        self._stats_lock = threading.Lock()

    def backend(self, backend_id: str) -> Backend:
        if backend_id not in self.backends:
            raise GatewayError(f"unknown backend {backend_id!r}")
        return self.backends[backend_id]

    def complete(self, backend_id: str, request: PromptRequest) -> tuple[dict | None, str]:
        """(`parse_json_payload` of the response, its cache key): the one place
        a request is rendered, keyed by `prompt_hash` and parsed."""
        backend = self.backend(backend_id)
        prompt = request.render()
        key = prompt_hash(backend_id, prompt)
        with self._stats_lock:
            self.stats.requests += 1
        text = self.cache.get(key) if self.cache is not None else None
        if text is not None:
            with self._stats_lock:
                self.stats.cache_hits += 1
        else:
            text = self._complete_with_retry(backend, backend_id, prompt, key)
            if self.cache is not None:
                self.cache.put(key, text)
        return parse_json_payload(text), key

    def _complete_with_retry(
        self, backend: Backend, backend_id: str, prompt: str, key: str
    ) -> str:
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            try:
                with self._stats_lock:
                    self.stats.network_calls += 1
                return backend.complete(prompt)
            except TransientBackendError as exc:
                last_error = exc
                if attempt + 1 < self.max_attempts:
                    with self._stats_lock:
                        self.stats.retries += 1
                    delay = self.backoff_base * (2**attempt)
                    logger.warning(
                        "backend %s transient failure (attempt %d/%d), retrying in %.1fs: %s",
                        backend_id, attempt + 1, self.max_attempts, delay, exc,
                    )
                    if delay > 0:
                        time.sleep(delay)
        with self._stats_lock:
            self.stats.failures += 1
        raise BackendUnavailable(
            f"backend {backend_id!r} unavailable after {self.max_attempts} attempts: "
            f"{last_error}",
            request_id=key,
        )


def map_items(fn: Callable, items: Sequence, max_workers: int) -> list:
    """`fn` of each item, in item order, on `max_workers` threads.

    Each thread holds one item at a time, so `max_workers` bounds how many
    requests a backend has in flight.  Once an item raises, items not yet
    started are skipped, and the first error in item order is raised.
    With one worker every call runs in the caller's thread.
    """
    if max_workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor  # here, so one worker never loads it
    failed = threading.Event()

    def run(item):
        if failed.is_set():
            return None
        try:
            return fn(item)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=max_workers) as executor:
        futures = [executor.submit(run, item) for item in items]
    return [future.result() for future in futures]


# The most `{`/`[` a response may hold, so far under the recursion limit
# that the decoder's answer is the same at any caller's stack depth.
MAX_NESTING = 500
_DECODER = json.JSONDecoder()


def parse_json_payload(raw: str) -> dict | None:
    """The JSON object that starts at a response's first `{`, or None; never raises.

    A response with no `{`, or with more than MAX_NESTING `{`/`[` in all
    (nested or not, quoted or not), gives None before any decode; a first
    `{` that starts no object gives None too.  The prompts ask for no prose
    outside the JSON object, so only a preamble without `{` is allowed; any
    text after the object is ignored.
    """
    first = raw.find("{")
    if first == -1 or raw.count("{") + raw.count("[") > MAX_NESTING:
        return None
    try:
        return _DECODER.raw_decode(raw, first)[0]
    except ValueError:  # JSONDecodeError, or an over-long integer
        return None


def clip_confidence(value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        return 0.0
    if number != number:  # NaN
        return 0.0
    return min(1.0, max(0.0, number))


def _as_decision(value) -> bool | None:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)) and value in (0, 1):
        return bool(value)
    if isinstance(value, str):
        folded = value.strip().lower()
        if folded in ("true", "yes", "positive", "relevant", "1"):
            return True
        if folded in ("false", "no", "negative", "irrelevant", "0"):
            return False
    return None


def verdict_from_payload(payload: dict | None, backend_id: str) -> ModelVerdict:
    """Structured verdict from a response's `payload`, with safe defaults.

    A payload without a usable "relevant" value, or none at all, becomes
    (negative, 0.0, "(malformed)").
    """
    if payload is None:
        return ModelVerdict(backend_id, False, 0.0, MALFORMED_EVIDENCE)
    decision = _as_decision(payload.get("relevant", payload.get("decision")))
    if decision is None:
        return ModelVerdict(backend_id, False, 0.0, MALFORMED_EVIDENCE)
    confidence = clip_confidence(payload.get("confidence"))
    evidence = payload.get("evidence")
    evidence = str(evidence) if evidence is not None else ""
    return ModelVerdict(backend_id, decision, confidence, evidence)


def consensus(verdicts: Sequence[ModelVerdict]) -> bool:
    """Strict all-positive rule, generalized to any number of backends."""
    if not verdicts:
        raise GatewayError("consensus requires at least one verdict")
    return all(v.decision for v in verdicts)


# -- deterministic keyword stub ------------------------------------------

def _target_section(prompt: str) -> str:
    marker = "### Target"
    pos = prompt.rfind(marker)
    return prompt[pos + len(marker):] if pos != -1 else prompt


@dataclass(frozen=True)
class StubRules:
    """Keyword rules powering a fully deterministic offline backend.

    Decisions look only at the prompt's target section, so expectations
    can be traced by hand from the input text. `config.load_config` reads
    them from a stub backend's `stub_rules`.
    """

    screen_keywords: tuple[str, ...] = ()
    figure_keywords: tuple[str, ...] = ()
    role_rules: tuple[tuple[str, str], ...] = ()
    listener_rules: tuple[tuple[str, str], ...] = ()
    data_type_rules: tuple[tuple[str, str], ...] = ()
    vis_type_rules: tuple[tuple[str, str], ...] = ()
    purpose_rules: tuple[tuple[str, str], ...] = ()


# A stub's data type, type and purpose where no rule matches, and its confidences.
STUB_DATA_TYPE = "nominal"
STUB_VIS_TYPE = "other"
STUB_PURPOSE = "other"
STUB_POSITIVE_CONFIDENCE = 0.9
STUB_NEGATIVE_CONFIDENCE = 0.1


class KeywordStubBackend:
    """Stub backend answering each schema from keyword rules on the target."""

    def __init__(self, name: str, rules: StubRules):
        self.name = name
        self.rules = rules

    def complete(self, prompt: str) -> str:
        target = _target_section(prompt).lower()
        if "Schema: labels/" in prompt:
            return json.dumps(self._labels_payload(target), sort_keys=True)
        if "Schema: figure/" in prompt:
            return json.dumps(self._binary_payload(target, self.rules.figure_keywords, with_role=True), sort_keys=True)
        return json.dumps(self._binary_payload(target, self.rules.screen_keywords, with_role=False), sort_keys=True)

    def _binary_payload(self, target: str, keywords, with_role: bool) -> dict:
        matched = [kw for kw in keywords if kw.lower() in target]
        relevant = bool(matched)
        payload = {
            "relevant": relevant,
            "confidence": STUB_POSITIVE_CONFIDENCE if relevant else STUB_NEGATIVE_CONFIDENCE,
            "evidence": matched[0] if matched else "no keyword",
        }
        if with_role:
            role = None
            for keyword, value in self.rules.role_rules:
                if keyword.lower() in target:
                    role = value
                    break
            payload["role"] = role
        return payload

    def _labels_payload(self, target: str) -> dict:
        def multi(rule_pairs, default):
            values = []
            for keyword, value in rule_pairs:
                if keyword.lower() in target and value not in values:
                    values.append(value)
            return values or list(default)

        def single(rule_pairs, default):
            for keyword, value in rule_pairs:
                if keyword.lower() in target:
                    return value
            return default

        listeners = multi(self.rules.listener_rules, ())
        data_types = multi(self.rules.data_type_rules, (STUB_DATA_TYPE,))
        vis_type = single(self.rules.vis_type_rules, STUB_VIS_TYPE)
        purpose = single(self.rules.purpose_rules, STUB_PURPOSE)
        confidence = STUB_POSITIVE_CONFIDENCE
        return {
            "model_listener": listeners,
            "data_type": data_types,
            "visualization_type": vis_type,
            "visualization_purpose": purpose,
            "confidences": {
                "model_listener": confidence,
                "data_type": confidence,
                "visualization_type": confidence,
                "visualization_purpose": confidence,
            },
            "evidence": {
                "model_listener": "keyword rule",
                "data_type": "keyword rule",
                "visualization_type": "keyword rule",
                "visualization_purpose": "keyword rule",
            },
        }
