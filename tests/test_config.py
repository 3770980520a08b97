"""Configuration loading, batch validation, gateway construction."""

import json
from dataclasses import fields

import pytest

from vismine.config import BackendConfig, RunConfig, build_gateway, load_config, validate_config
from vismine.errors import ConfigError
from vismine.gateway import KeywordStubBackend


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

    @pytest.mark.parametrize("concurrency", [0, -2])
    def test_concurrency_below_one_reported(self, fixture_config, concurrency):
        errors = validate_config(load_config(fixture_config(concurrency=concurrency)))
        assert f"concurrency must be >= 1, got {concurrency}" in errors

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
                             backends={"primary": BackendConfig(slot="primary")})
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
