"""Configuration loading, batch validation, gateway construction."""

import json
import re
import typing
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vismine import jsonl
from vismine.config import BackendConfig, RunConfig, build_gateway, load_config, validate_config
from vismine.errors import ConfigError
from vismine.gateway import KeywordStubBackend, StubRules


class TestLoadAndValidate:
    def test_fixture_config_is_valid(self, fixture_config):
        config = load_config(fixture_config())
        assert validate_config(config) == []

    def test_invalid_k_reported(self, fixture_config):
        path = fixture_config(stage1={"k": 0, "backends": ["primary", "secondary"]})
        errors = validate_config(load_config(path))
        assert any("k must be >= 1" in e for e in errors)

    def test_multiple_violations_reported_together(self, fixture_config):
        path = fixture_config(
            corpus="does-not-exist.jsonl",
            stage2={"k": 0, "backend": "primary"},
        )
        errors = validate_config(load_config(path))
        assert len(errors) >= 2
        assert any("corpus" in e for e in errors)
        assert any("stage2.k" in e for e in errors)

    def test_unconfigured_backend_reported(self, fixture_config):
        path = fixture_config(stage3={"backend": "tertiary"})
        errors = validate_config(load_config(path))
        assert any("tertiary" in e for e in errors)

    def test_http_backend_needs_endpoint_and_key(self, tmp_path, fixture_config):
        path = fixture_config(backends={"primary": {"kind": "http"},
                                        "secondary": {"kind": "stub", "stub_rules": {}}})
        errors = validate_config(load_config(path))
        assert any("endpoint" in e for e in errors)
        assert any("api_key_env" in e for e in errors)

    def test_unknown_backend_kind(self, fixture_config):
        path = fixture_config(backends={"primary": {"kind": "carrier-pigeon"},
                                        "secondary": {"kind": "stub"}})
        errors = validate_config(load_config(path))
        assert any("unknown kind" in e for e in errors)

    def test_minimums_exceeding_k(self, fixture_config):
        path = fixture_config(
            stage1={"k": 3, "min_pos": 2, "min_neg": 2, "backends": ["primary", "secondary"]}
        )
        errors = validate_config(load_config(path))
        assert any("exceeds k" in e for e in errors)

    def test_unreadable_config_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_config_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"model": "\xff"}')
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(path)

    @pytest.mark.parametrize("max_workers", [0, -2])
    def test_max_workers_below_one_reported(self, fixture_config, max_workers):
        errors = validate_config(load_config(fixture_config(max_workers=max_workers)))
        assert f"max_workers must be >= 1, got {max_workers}" in errors

    @pytest.mark.parametrize("backoff_base, valid", [
        (0, True), (0.5, True), (-0.5, False), (float("inf"), False), (float("nan"), False)])
    def test_backoff_base_must_be_finite_and_nonnegative(self, fixture_config, backoff_base,
                                                         valid):
        errors = validate_config(load_config(fixture_config(backoff_base=backoff_base)))
        assert errors == ([] if valid else
                          [f"backoff_base must be a finite number >= 0, got {float(backoff_base)}"])

    @pytest.mark.parametrize("timeout, valid", [
        (0.5, True), (60, True), (0, False), (-1, False), (float("inf"), False),
        (float("nan"), False)])
    def test_http_timeout_must_be_finite_and_positive(self, fixture_config, timeout, valid):
        backends = json.loads(fixture_config().read_text())["backends"]
        backends["remote"] = {"kind": "http", "endpoint": "http://127.0.0.1:9",
                              "api_key_env": "KEY", "timeout": timeout}
        errors = validate_config(load_config(fixture_config(backends=backends)))
        assert errors == ([] if valid else
                          [f"backend 'remote': timeout must be a finite number > 0, got {float(timeout)}"])

    @pytest.mark.parametrize("temperature, valid", [
        (0, True), (0.7, True), (float("inf"), False), (float("-inf"), False),
        (float("nan"), False)])
    def test_http_temperature_must_be_finite(self, fixture_config, temperature, valid):
        backends = json.loads(fixture_config().read_text())["backends"]
        backends["remote"] = {"kind": "http", "endpoint": "http://127.0.0.1:9",
                              "api_key_env": "KEY", "temperature": temperature}
        errors = validate_config(load_config(fixture_config(backends=backends)))
        assert errors == ([] if valid else [f"backend 'remote': temperature must be a "
                                            f"finite number, got {float(temperature)}"])

    @pytest.mark.parametrize("endpoint, valid", [
        ("http://127.0.0.1:9", True), ("https://api.example.com/v1/chat/completions", True),
        ("HTTPS://API.example.com", True), ("http://[::1]:8080/v1", True),
        ("http://h:65535", True), ("http://h:", True),
        ("api.example.com/v1/chat/completions", False), ("127.0.0.1:9/v1", False),
        ("ftp://h/v1", False), ("file:///v1", False), ("https//h/v1", False),
        ("http://", False), ("http:///v1", False), ("http://:80/v1", False),
        ("http://h:65536", False), ("http://h:-1", False), ("http://h:port", False),
        ("http://[::1/v1", False)])
    def test_http_endpoint_must_be_an_http_url(self, fixture_config, endpoint, valid):
        backends = json.loads(fixture_config().read_text())["backends"]
        backends["remote"] = {"kind": "http", "endpoint": endpoint, "api_key_env": "KEY"}
        errors = validate_config(load_config(fixture_config(backends=backends)))
        assert errors == ([] if valid else [
            f"backend 'remote': endpoint must be an http:// or https:// URL with a host "
            f"and a valid port, got {endpoint!r}"])

    def test_every_key_no_setting_reads_is_one_error(self, fixture_config):
        """A misspelled key is rejected at every level, not left at its default."""
        backends = json.loads(fixture_config().read_text())["backends"]
        backends["primary"]["modle"] = "m1"
        backends["secondary"]["stub_rules"]["screen_keyword"] = ["model"]
        # `concurrency` was a setting once; no setting reads it now.
        path = fixture_config(stage1={"K": 3, "k": 6}, stage2={"maxfigs": 2}, cache="c",
                              concurrency=4, base_dir="..", backends=backends)
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert str(excinfo.value) == (
            "cache: unknown key; concurrency: unknown key; base_dir: unknown key; "
            "stage1.K: unknown key; stage2.maxfigs: unknown key; "
            "backends.primary.modle: unknown key; "
            "backends.secondary.stub_rules.screen_keyword: unknown key")

    def test_reference_year_must_cover_corpus(self, fixture_config):
        path = fixture_config(reference_year=2020)  # fixture corpus reaches 2024
        errors = validate_config(load_config(path))
        assert any("newest corpus year" in e for e in errors)


class TestDefaults:
    """A key the config leaves out takes the dataclass field's default."""

    def load(self, tmp_path, raw: dict) -> RunConfig:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return load_config(path)

    def test_no_optional_key_loads_the_field_defaults(self, tmp_path):
        config = self.load(tmp_path, {"backends": {"primary": {}}})
        expected = RunConfig(base_dir=tmp_path.resolve(),
                             backends={"primary": BackendConfig()})
        for f in fields(RunConfig):
            assert getattr(config, f.name) == getattr(expected, f.name), f.name
        for f in fields(BackendConfig):
            assert getattr(config.backends["primary"], f.name) == \
                getattr(expected.backends["primary"], f.name), f.name

    def test_empty_lists_give_the_defaults(self, tmp_path):
        config = self.load(tmp_path, {"keywords": [], "stage1": {"backends": []}})
        defaults = RunConfig(base_dir=tmp_path)
        assert config.keywords == defaults.keywords
        assert config.stage1_backends == defaults.stage1_backends

    def test_zero_k_loads_as_zero(self, tmp_path):
        config = self.load(tmp_path, {"stage2": {"k": 0}})
        assert config.stage2_k == 0
        assert "stage2.k: k must be >= 1, got 0" in validate_config(config)


class TestBuildGateway:
    def test_stub_backends_constructed(self, fixture_config):
        config = load_config(fixture_config())
        gateway = build_gateway(config)
        assert isinstance(gateway.backends["primary"], KeywordStubBackend)
        assert set(gateway.backends) == {"primary", "secondary"}

    def test_http_backend_constructed(self, fixture_config):
        path = fixture_config(
            backends={
                "primary": {"kind": "http", "endpoint": "https://example.test/v1/chat",
                            "model": "some-model", "api_key_env": "EXAMPLE_KEY"},
                "secondary": {"kind": "stub", "stub_rules": {}},
            }
        )
        gateway = build_gateway(load_config(path))
        assert gateway.backends["primary"].endpoint == "https://example.test/v1/chat"
        assert gateway.backends["primary"].api_key_env == "EXAMPLE_KEY"


# -- the loader before one reader replaced it, kept as the oracle -----------

def _old_section(raw: dict, key: str, name: str) -> dict:
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object, got {value!r}")
    return value


def _old_number(raw: dict, key: str, default, kind: type, name: str):
    value = raw.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected a number, got {value!r}") from None


def _old_strings(raw: dict, key: str, default: tuple[str, ...], name: str) -> tuple[str, ...]:
    value = raw.get(key)
    if not value:
        return default
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{name}: expected a list of strings, got {value!r}")
    return tuple(value)


def _old_path_or_none(raw: dict, key: str) -> Path | None:
    value = raw.get(key)
    if not value:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a path, got {value!r}")
    return Path(value)


def _old_stub_rules(raw) -> StubRules:
    default = StubRules()

    def listed(key, items, item_ok):
        value = raw.get(key, getattr(default, key))
        if not isinstance(value, (list, tuple)) or not all(map(item_ok, value)):
            raise ConfigError(f"stub_rules.{key}: expected a list of {items}, got {value!r}")
        return value

    def strings(key):
        return tuple(listed(key, "strings", lambda item: isinstance(item, str)))

    def pairs(key):
        is_pair = lambda item: isinstance(item, (list, tuple)) and len(item) == 2
        return tuple((str(k), str(v)) for k, v in listed(key, "[keyword, value] pairs", is_pair))

    def number(key):
        value = raw.get(key, getattr(default, key))
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"stub_rules.{key}: expected a number, got {value!r}") from None

    return StubRules(
        screen_keywords=strings("screen_keywords"),
        figure_keywords=strings("figure_keywords"),
        role_rules=pairs("role_rules"),
        listener_rules=pairs("listener_rules"),
        data_type_rules=pairs("data_type_rules"),
        vis_type_rules=pairs("vis_type_rules"),
        purpose_rules=pairs("purpose_rules"),
        data_type_default=str(raw.get("data_type_default", default.data_type_default)),
        vis_type_default=str(raw.get("vis_type_default", default.vis_type_default)),
        purpose_default=str(raw.get("purpose_default", default.purpose_default)),
        positive_confidence=number("positive_confidence"),
        negative_confidence=number("negative_confidence"),
    )


def _old_load_config(path: Path) -> RunConfig:
    """The old `load_config`, with each backend's `stub_rules` read by the old
    `StubRules.from_config`."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    backends = {}
    backend_specs = _old_section(raw, "backends", "backends")
    for slot in backend_specs:
        name = f"backends.{slot}"
        spec = _old_section(backend_specs, slot, name)
        default_backend = BackendConfig()
        backends[slot] = BackendConfig(
            kind=str(spec.get("kind", default_backend.kind)),
            endpoint=str(spec.get("endpoint", default_backend.endpoint)),
            model=str(spec.get("model", default_backend.model)),
            api_key_env=str(spec.get("api_key_env", default_backend.api_key_env)),
            temperature=_old_number(spec, "temperature", default_backend.temperature, float,
                                    f"{name}.temperature"),
            timeout=_old_number(spec, "timeout", default_backend.timeout, float,
                                f"{name}.timeout"),
            stub_rules=_old_stub_rules(_old_section(spec, "stub_rules", f"{name}.stub_rules")),
        )
    stage1 = _old_section(raw, "stage1", "stage1")
    stage2 = _old_section(raw, "stage2", "stage2")
    stage3 = _old_section(raw, "stage3", "stage3")
    default = RunConfig(base_dir=path.parent.resolve())
    return RunConfig(
        base_dir=default.base_dir,
        corpus_path=_old_path_or_none(raw, "corpus"),
        pool_path=_old_path_or_none(raw, "pool"),
        docs_manifest_path=_old_path_or_none(raw, "docs_manifest"),
        docs_dir=_old_path_or_none(raw, "docs_dir"),
        library_path=_old_path_or_none(raw, "library"),
        vocab_path=_old_path_or_none(raw, "vocabulary"),
        alias_path=_old_path_or_none(raw, "aliases"),
        out_dir=_old_path_or_none(raw, "out_dir") or default.out_dir,
        cache_dir=_old_path_or_none(raw, "cache_dir"),
        keywords=_old_strings(raw, "keywords", default.keywords, "keywords"),
        reference_year=_old_number(raw, "reference_year", default.reference_year, int,
                                   "reference_year"),
        stage1_k=_old_number(stage1, "k", default.stage1_k, int, "stage1.k"),
        stage1_min_pos=_old_number(stage1, "min_pos", default.stage1_min_pos, int,
                                   "stage1.min_pos"),
        stage1_min_neg=_old_number(stage1, "min_neg", default.stage1_min_neg, int,
                                   "stage1.min_neg"),
        stage1_backends=_old_strings(stage1, "backends", default.stage1_backends,
                                     "stage1.backends"),
        stage2_k=_old_number(stage2, "k", default.stage2_k, int, "stage2.k"),
        stage2_max_figs=_old_number(stage2, "max_figs", default.stage2_max_figs, int,
                                    "stage2.max_figs"),
        stage2_backend=str(stage2.get("backend", default.stage2_backend)),
        stage3_k=_old_number(stage3, "k", default.stage3_k, int, "stage3.k"),
        stage3_per_paper_cap=_old_number(stage3, "per_paper_cap", default.stage3_per_paper_cap,
                                         int, "stage3.per_paper_cap"),
        stage3_backend=str(stage3.get("backend", default.stage3_backend)),
        max_workers=_old_number(raw, "max_workers", default.max_workers, int, "max_workers"),
        max_attempts=_old_number(raw, "max_attempts", default.max_attempts, int, "max_attempts"),
        backoff_base=_old_number(raw, "backoff_base", default.backoff_base, float,
                                 "backoff_base"),
        backends=backends,
    )


def _some(**keys):
    """Objects holding any subset of `keys`, each with a value from its strategy."""
    return st.fixed_dictionaries({}, optional=keys)


_text = st.text(max_size=6)
_integer = st.integers(-10**6, 10**6)
_number = _integer | st.floats(allow_nan=False)
_texts = st.lists(_text, max_size=3)
_pairs = st.lists(st.lists(_text, min_size=2, max_size=2), max_size=3)
_stub_rules = _some(
    screen_keywords=_texts, figure_keywords=_texts, role_rules=_pairs, listener_rules=_pairs,
    data_type_rules=_pairs, vis_type_rules=_pairs, purpose_rules=_pairs,
    data_type_default=_text, vis_type_default=_text, purpose_default=_text,
    positive_confidence=_number, negative_confidence=_number,
)
_backend = _some(kind=_text, endpoint=_text, model=_text, api_key_env=_text,
                 temperature=_number, timeout=_number, stub_rules=_stub_rules)
_valid_config = _some(
    **{key: _text for key in ("corpus", "pool", "docs_manifest", "docs_dir", "library",
                              "vocabulary", "aliases", "out_dir", "cache_dir")},
    keywords=_texts,
    **{key: _integer for key in ("reference_year", "max_workers", "max_attempts")},
    backoff_base=_number,
    stage1=_some(k=_integer, min_pos=_integer, min_neg=_integer, backends=_texts),
    stage2=_some(k=_integer, max_figs=_integer, backend=_text),
    stage3=_some(k=_integer, per_paper_cap=_integer, backend=_text),
    backends=st.dictionaries(_text, _backend, max_size=3),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_valid_config)
def test_valid_configs_load_as_the_old_loader_loaded_them(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert load_config(path) == _old_load_config(path)


# -- the README documents every key -----------------------------------------

def _reader_keys(cls=RunConfig, prefix=""):
    """Every key the reader reads under `prefix`; a backend slot is `<slot>`."""
    hints = typing.get_type_hints(cls)
    for name, _, _, json_key, *_ in jsonl._readers(cls):
        key = prefix + json_key
        if hints[name] == dict[str, BackendConfig]:
            yield from _reader_keys(BackendConfig, f"{key}.<slot>.")
        elif hints[name] is StubRules:
            yield from _reader_keys(StubRules, f"{key}.")
        else:
            yield key


def _readme_table_keys() -> set[str]:
    """The keys in the first column of README's configuration table; `.name`
    after `a.b` stands for `a.name`."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names = re.findall(r"`([^`]+)`", line.split(" | ")[0])
            parent = names[0].rsplit(".", 1)[0]
            keys.update(parent + name if name.startswith(".") else name for name in names)
    return keys


def test_readme_table_lists_every_key_the_reader_reads():
    keys = set(_reader_keys())
    assert {"corpus", "stage1.k", "backends.<slot>.timeout",
            "backends.<slot>.stub_rules.role_rules"} <= keys
    assert sorted(keys - _readme_table_keys()) == []
