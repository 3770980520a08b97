import json
from pathlib import Path

import pytest

from vismine.errors import GatewayError, TransientBackendError

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "fixture12"


def make_fixture_config(tmp_path: Path, out_name: str = "out", **overrides) -> Path:
    """Materialize the shipped fixture config with absolute paths and a
    throwaway output directory."""
    raw = json.loads((FIXTURE_DIR / "config.json").read_text(encoding="utf-8"))
    for key in ("corpus", "pool", "library", "docs_manifest", "docs_dir"):
        raw[key] = str(FIXTURE_DIR / raw[key])
    raw["out_dir"] = str(tmp_path / out_name)
    raw["cache_dir"] = str(tmp_path / out_name / "cache")
    raw.update(overrides)
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.fixture
def fixture_config(tmp_path):
    def make(out_name="out", **overrides):
        return make_fixture_config(tmp_path, out_name, **overrides)

    return make


class RaisingBackend:
    """Answers through `inner`, but raises `error_type` for a prompt whose
    target section contains `marker` (every prompt when `marker` is empty)."""

    def __init__(self, inner, error_type: type[Exception], marker: str = ""):
        self.name = inner.name
        self.inner = inner
        self.error_type = error_type
        self.marker = marker

    def complete(self, prompt: str) -> str:
        if self.marker in prompt.rsplit("### Target", 1)[-1]:
            raise self.error_type("injected failure")
        return self.inner.complete(prompt)


# Backend failures that fail one item alone. With a gateway of
# `max_attempts=1` the first is retries exhausted (`BackendUnavailable`); the
# second stands for a non-retryable HTTP 400 or bad response shape.
ITEM_FAILURES = [TransientBackendError, GatewayError]
