"""Gateway behavior: stubs, caching, retries, parsing, consensus."""

import contextlib
import hashlib
import http.server
import itertools
import json
import socket
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from vismine import gateway as gw
from vismine.cli import main
from vismine.config import load_config
from vismine.errors import AuthenticationError, BackendUnavailable, GatewayError, TransientBackendError


class FlakyBackend:
    """Fails with a transient error a fixed number of times, then succeeds."""

    def __init__(self, name, failures, response='{"relevant": true, "confidence": 0.8, "evidence": "ok"}'):
        self.name = name
        self.failures = failures
        self.response = response
        self.calls = 0

    def complete(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientBackendError("simulated timeout")
        return self.response


class AuthFailingBackend:
    name = "locked"
    calls = 0

    def complete(self, prompt):
        self.calls += 1
        raise AuthenticationError("bad key")


def request(target="some evidence text", exemplars=()):
    return gw.PromptRequest(
        system="sys", exemplars=tuple(exemplars), target=target, schema_id="screen/v1"
    )


def saliency_stub(name="stub"):
    def respond(prompt):
        target = prompt.split("### Target", 1)[-1]
        relevant = "saliency" in target
        return json.dumps({"relevant": relevant, "confidence": 0.9, "evidence": "saliency"})

    return gw.StubBackend(name, respond)


class TestComplete:
    def test_stub_rule_deterministic(self):
        g = gw.Gateway({"stub": saliency_stub()})
        positive = request("a saliency map of the encoder")
        negative = request("a treemap of file sizes")
        assert gw.verdict_from_payload(g.complete("stub", positive)[0], "stub").decision is True
        assert gw.verdict_from_payload(g.complete("stub", negative)[0], "stub").decision is False
        assert g.complete("stub", positive) == g.complete("stub", positive)

    def test_cache_hit_serves_without_network(self, tmp_path):
        backend = saliency_stub()
        g = gw.Gateway({"stub": backend}, cache_dir=tmp_path / "cache")
        first = g.complete("stub", request())
        calls_after_first = backend.calls
        second = g.complete("stub", request())
        assert second == first
        assert backend.calls == calls_after_first  # zero extra calls
        assert g.stats.cache_hits == 1

    def test_cache_persists_across_gateways(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = gw.Gateway({"stub": saliency_stub()}, cache_dir=cache_dir)
        answer = first.complete("stub", request())
        fresh_backend = saliency_stub()
        second = gw.Gateway({"stub": fresh_backend}, cache_dir=cache_dir)
        assert second.complete("stub", request()) == answer
        assert fresh_backend.calls == 0
        assert second.stats.network_calls == 0

    def test_retry_then_success(self):
        backend = FlakyBackend("flaky", failures=2)
        g = gw.Gateway({"flaky": backend}, max_attempts=3, backoff_base=0.0)
        payload, _ = g.complete("flaky", request())
        assert payload["relevant"] is True
        assert backend.calls == 3
        assert g.stats.retries == 2

    def test_backoff_doubles_after_each_transient_failure(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(gw.time, "sleep", sleeps.append)
        backend = FlakyBackend("flaky", failures=2)
        g = gw.Gateway({"flaky": backend}, max_attempts=3, backoff_base=0.5)
        payload, _ = g.complete("flaky", request())
        assert payload["relevant"] is True
        assert sleeps == [0.5, 1.0]
        assert g.stats.retries == 2

    def test_exhausted_retries(self):
        backend = FlakyBackend("flaky", failures=10)
        g = gw.Gateway({"flaky": backend}, max_attempts=3, backoff_base=0.0)
        with pytest.raises(BackendUnavailable) as excinfo:
            g.complete("flaky", request())
        assert excinfo.value.request_id  # carries the request hash
        assert backend.calls == 3

    def test_auth_failure_immediate(self):
        backend = AuthFailingBackend()
        g = gw.Gateway({"locked": backend}, max_attempts=3, backoff_base=0.0)
        with pytest.raises(AuthenticationError):
            g.complete("locked", request())
        assert backend.calls == 1  # never retried

    def test_unknown_backend(self):
        g = gw.Gateway({"stub": saliency_stub()})
        with pytest.raises(GatewayError):
            g.complete("ghost", request())

    def test_distinct_prompts_distinct_cache_keys(self, tmp_path):
        g = gw.Gateway({"stub": saliency_stub()}, cache_dir=tmp_path)
        g.complete("stub", request("saliency here"))
        g.complete("stub", request("nothing here"))
        assert g.stats.cache_hits == 0
        assert g.stats.network_calls == 2


class FakeEndpoint(http.server.BaseHTTPRequestHandler):
    """Answers each POST to `/<status>` with that status and the server's
    `body`, after the server's `delay` in seconds."""

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.requests.append((self.headers["Authorization"], request))
        time.sleep(self.server.delay)
        body = self.server.body.encode("utf-8")
        self.send_response(int(self.path.strip("/")))
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback_env(monkeypatch):
    """An API key in the environment, and no proxy between a request and loopback."""
    for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.lower(), raising=False)
    monkeypatch.setenv("FAKE_ENDPOINT_KEY", "secret")


@contextlib.contextmanager
def loopback_server(handler: type[http.server.BaseHTTPRequestHandler]):
    """An `http.server` on a loopback port, answering with `handler` on its own thread."""
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,))
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=30)
        server.server_close()
    assert not thread.is_alive()


@pytest.fixture
def endpoint(loopback_env):
    """A fake chat-completion server on a loopback port."""
    with loopback_server(FakeEndpoint) as server:
        server.body, server.delay = "", 0.0
        server.handle_error = lambda *args: None  # a client that timed out has hung up
        yield server


def http_backend(url: str, timeout: float = 10.0) -> gw.HttpBackend:
    return gw.HttpBackend("remote", url, model="m1", api_key_env="FAKE_ENDPOINT_KEY",
                          temperature=0.2, timeout=timeout)


class TestHttpBackend:
    def url(self, server, status: int) -> str:
        return f"http://127.0.0.1:{server.server_address[1]}/{status}"

    def test_200_returns_the_message_content(self, endpoint):
        endpoint.body = json.dumps({"choices": [{"message": {"content": '{"relevant": true}'}}]})
        assert http_backend(self.url(endpoint, 200)).complete("the prompt") == '{"relevant": true}'
        assert endpoint.requests == [("Bearer secret", {
            "model": "m1", "messages": [{"role": "user", "content": "the prompt"}],
            "temperature": 0.2, "max_tokens": gw.MAX_TOKENS})]

    @pytest.mark.parametrize("status", [401, 403])
    def test_rejected_key_raises_authentication_error(self, endpoint, status):
        with pytest.raises(AuthenticationError, match=f"auth failed \\({status}\\)"):
            http_backend(self.url(endpoint, status)).complete("p")

    def test_missing_key_raises_authentication_error_before_any_request(self, endpoint,
                                                                        monkeypatch):
        monkeypatch.delenv("FAKE_ENDPOINT_KEY")
        with pytest.raises(AuthenticationError, match="'FAKE_ENDPOINT_KEY' is not set"):
            http_backend(self.url(endpoint, 200)).complete("p")
        assert endpoint.requests == []

    @pytest.mark.parametrize("status", [429, 500])
    def test_rate_limit_and_server_error_are_retried(self, endpoint, status):
        backend = http_backend(self.url(endpoint, status))
        with pytest.raises(TransientBackendError, match=f"HTTP {status}"):
            backend.complete("p")
        g = gw.Gateway({"remote": backend}, max_attempts=3, backoff_base=0.0)
        with pytest.raises(BackendUnavailable, match=f"HTTP {status}"):
            g.complete("remote", request())
        assert len(endpoint.requests) == 1 + 3
        assert g.stats.retries == 2 and g.stats.failures == 1

    @pytest.mark.parametrize("status, body", [
        (404, ""), (200, "not json"), (200, "{}"), (200, '{"choices": []}'),
        (200, '{"choices": [{"message": null}]}')])
    def test_other_status_or_shape_raises_gateway_error(self, endpoint, status, body):
        endpoint.body = body
        with pytest.raises(GatewayError) as excinfo:
            http_backend(self.url(endpoint, status)).complete("p")
        assert type(excinfo.value) is GatewayError

    def test_timeout_is_transient(self, endpoint):
        endpoint.delay = 0.5
        with pytest.raises(TransientBackendError):
            http_backend(self.url(endpoint, 200), timeout=0.05).complete("p")

    def test_closed_port_is_transient(self, loopback_env):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(TransientBackendError):
            http_backend(f"http://127.0.0.1:{port}/200").complete("p")


@pytest.mark.parametrize("key", ["abc\ndef", "abc\rdef", "abc\x7f", "k\u20ac"])
def test_key_no_header_carries_raises_authentication_error_before_any_request(endpoint,
                                                                              monkeypatch, key):
    monkeypatch.setenv("FAKE_ENDPOINT_KEY", key)
    with pytest.raises(AuthenticationError, match="is not set to a printable ASCII key"):
        http_backend(f"http://127.0.0.1:{endpoint.server_address[1]}/200").complete("p")
    assert endpoint.requests == []


class RedirectingEndpoint(http.server.BaseHTTPRequestHandler):
    """Answers each POST to `/<status>` with that status and the server's `location`."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(int(self.path.strip("/")))
        self.send_header("Location", self.server.location)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_redirect_is_not_followed_and_fails_as_its_status(endpoint, status):
    endpoint.body = json.dumps({"choices": [{"message": {"content": "followed"}}]})
    with loopback_server(RedirectingEndpoint) as redirector:
        redirector.location = f"http://127.0.0.1:{endpoint.server_address[1]}/200"
        with pytest.raises(GatewayError, match=f"HTTP {status}$") as excinfo:
            http_backend(f"http://127.0.0.1:{redirector.server_address[1]}/{status}").complete("p")
    assert type(excinfo.value) is GatewayError and endpoint.requests == []


class FakeProxy(http.server.BaseHTTPRequestHandler):
    """Answers each POST itself, recording its request target: a proxy is sent the
    absolute URI."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append(self.path)
        body = json.dumps({"choices": [{"message": {"content": "proxied"}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestProxyFromEnvironment:
    @pytest.mark.parametrize("no_proxy, proxied", [("", True), ("127.0.0.1", False)])
    def test_http_proxy_is_used_unless_no_proxy_names_the_host(self, endpoint, monkeypatch,
                                                                no_proxy, proxied):
        endpoint.body = json.dumps({"choices": [{"message": {"content": "direct"}}]})
        url = f"http://127.0.0.1:{endpoint.server_address[1]}/200"
        for name in ("no_proxy", "REQUEST_METHOD"):  # a CGI `REQUEST_METHOD` hides HTTP_PROXY
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("NO_PROXY", no_proxy)
        with loopback_server(FakeProxy) as proxy:
            monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{proxy.server_address[1]}")
            reply = http_backend(url).complete("p")
        assert (reply, proxy.requests, len(endpoint.requests)) == (
            ("proxied", [url], 0) if proxied else ("direct", [], 1))


class StubRulesEndpoint(http.server.BaseHTTPRequestHandler):
    """Answers each POST to `/<slot>` with the server's `stubs[slot]` reply to its prompt."""

    disable_nagle_algorithm = True  # else each keep-alive reply waits on delayed ACKs

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        slot = self.path.strip("/")
        self.server.requests.append(slot)
        reply = self.server.stubs[slot].complete(request["messages"][0]["content"])
        body = json.dumps({"choices": [{"message": {"content": reply}}]}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class TestLiveRun:
    def test_fixture_run_over_http_writes_the_stub_runs_outputs(self, loopback_env,
                                                                 fixture_config, tmp_path):
        stub_config = fixture_config("stub")
        stubs = {slot: gw.KeywordStubBackend(slot, spec.stub_rules)
                 for slot, spec in load_config(stub_config).backends.items()}
        with loopback_server(StubRulesEndpoint) as server:
            server.stubs = stubs
            port = server.server_address[1]
            backends = {slot: {"kind": "http", "endpoint": f"http://127.0.0.1:{port}/{slot}",
                               "model": "m1", "api_key_env": "FAKE_ENDPOINT_KEY"}
                        for slot in stubs}
            assert main(["run", "--config", str(fixture_config("http", backends=backends))]) == 0
        assert sorted(stubs) == ["primary", "secondary"]
        assert len(server.requests) == 28
        assert main(["run", "--config", str(stub_config)]) == 0

        def outputs(out_dir: Path) -> dict[str, bytes]:
            return {str(p.relative_to(out_dir)): p.read_bytes() for p in out_dir.rglob("*")
                    if p.is_file() and p.name != "manifest.json"}

        live, stub = outputs(tmp_path / "http"), outputs(tmp_path / "stub")
        assert "stage3_labels.jsonl" in live and live == stub


prompt_requests = st.builds(
    gw.PromptRequest,
    system=st.text(max_size=20),
    exemplars=st.lists(st.tuples(st.text(max_size=20), st.text(max_size=20)),
                       max_size=3).map(tuple),
    target=st.text(max_size=40),
    schema_id=st.sampled_from(["screen/v1", "figure/v1", "labels/v1"]),
)


class TestCompleteReturnsPayloadAndKey:
    @settings(max_examples=100, deadline=None)
    @given(req=prompt_requests, backend_id=st.text(min_size=1, max_size=8),
           reply=st.one_of(st.text(max_size=40), st.dictionaries(
               st.text(max_size=8), st.booleans() | st.integers() | st.text(max_size=8),
               max_size=4).map(json.dumps)))
    def test_key_payload_and_cache_hit(self, tmp_path_factory, req, backend_id, reply):
        backend = gw.StubBackend(backend_id, lambda prompt: reply)
        g = gw.Gateway({backend_id: backend}, cache_dir=tmp_path_factory.mktemp("cache"))
        answer = g.complete(backend_id, req)
        assert answer == (gw.parse_json_payload(reply), gw.prompt_hash(backend_id, req.render()))
        assert g.complete(backend_id, req) == answer
        assert backend.calls == 1
        assert g.stats.cache_hits == 1


def key(n):
    return gw.prompt_hash("stub", f"prompt {n}")


class TestPromptCacheLog:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.text(st.one_of(st.sampled_from("\n\r\x00\u2028\U0001f600\"\\"),
                             st.characters())))
    @example("\ud800")
    def test_any_text_round_trips(self, tmp_path, text):
        cache = gw.PromptCache(tmp_path)
        k = gw.prompt_hash("stub", text)
        cache.put(k, text)
        assert cache.get(k) == text
        assert gw.PromptCache(tmp_path).get(k) == text

    def test_puts_create_one_file(self, tmp_path):
        cache = gw.PromptCache(tmp_path / "cache")
        for n in range(20):
            cache.put(key(n), f"response {n}\nsecond line")
        files = [p for p in (tmp_path / "cache").rglob("*")]
        assert [p.name for p in files] == ["responses.jsonl"]
        assert files[0].read_text(encoding="ascii").count("\n") == 20

    def test_torn_last_line_is_a_miss(self, tmp_path):
        gw.PromptCache(tmp_path).put(key(1), "kept")
        gw.PromptCache(tmp_path).put(key(2), "torn by a crash")
        log = tmp_path / "responses.jsonl"
        log.write_bytes(log.read_bytes()[:-5])
        cache = gw.PromptCache(tmp_path)
        assert cache.get(key(2)) is None
        assert cache.get(key(1)) == "kept"
        cache.put(key(3), "after the crash")
        assert cache.get(key(3)) == "after the crash"
        fresh = gw.PromptCache(tmp_path)
        assert fresh.get(key(3)) == "after the crash"
        assert fresh.get(key(2)) is None
        assert fresh.get(key(1)) == "kept"

    def test_last_line_wins(self, tmp_path):
        cache = gw.PromptCache(tmp_path)
        cache.put(key(1), "old")
        cache.put(key(1), "new")
        assert cache.get(key(1)) == "new"
        assert gw.PromptCache(tmp_path).get(key(1)) == "new"

    def test_second_cache_sees_later_puts(self, tmp_path):
        first = gw.PromptCache(tmp_path)
        first.put(key(1), "before")
        second = gw.PromptCache(tmp_path)
        assert second.get(key(1)) == "before"
        first.put(key(2), "after")
        assert second.get(key(2)) == "after"
        second.put(key(3), "from the second")
        assert first.get(key(3)) == "from the second"

    def test_unknown_key_is_none(self, tmp_path):
        cache = gw.PromptCache(tmp_path)
        assert cache.get(key(1)) is None
        cache.put(key(1), "present")
        assert cache.get(key(2)) is None
        assert gw.PromptCache(tmp_path).get(key(2)) is None

    def test_concurrent_puts_all_kept(self, tmp_path):
        cache = gw.PromptCache(tmp_path)
        reader = gw.PromptCache(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda t=t: [
                    cache.put(key(f"{t}/{n}"), f"{t}/{n}") for n in range(50)
                ])
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        names = [f"{t}/{n}" for t in range(8) for n in range(50)]
        assert all(cache.get(key(name)) == name for name in names)
        assert all(reader.get(key(name)) == name for name in names)
        assert (tmp_path / "responses.jsonl").read_bytes().count(b"\n") == len(names)


class TestPromptCacheScan:
    """A cache indexes the log in blocks: flat memory, the same answers as a whole read."""

    def test_memory_stays_flat_on_a_multi_mb_log(self, tmp_path):
        writer = gw.PromptCache(tmp_path)
        for n in range(128):
            writer.put(key(n), f"{n} " + "x" * 65536)
        assert (tmp_path / "responses.jsonl").stat().st_size > 8 * 2**20
        cache = gw.PromptCache(tmp_path)
        tracemalloc.start()
        try:
            assert cache.get(key("absent")) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * gw.PromptCache.SCAN_BLOCK, peak
        assert cache.get(key(127)) == "127 " + "x" * 65536

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.one_of(st.tuples(st.integers(0, 5), st.text(max_size=40)),
                           st.sampled_from([b"", b"[", b'["', b'["x', b"not a pair"])),
                 max_size=12),
        st.integers(0, 12),
        st.integers(1, 48),
    )
    def test_small_blocks_answer_as_one_whole_read(self, lines, torn, block):
        log = b"".join(
            (item if isinstance(item, bytes) else json.dumps([key(item[0]), item[1]]).encode())
            + b"\n" for item in lines)
        log = log[:len(log) - torn] if torn < len(log) else b""
        with tempfile.TemporaryDirectory() as work:
            (Path(work) / "responses.jsonl").write_bytes(log)
            small, whole = gw.PromptCache(work), gw.PromptCache(work)
            small.SCAN_BLOCK, whole.SCAN_BLOCK = block, 2**30
            keys = [key(n) for n in range(7)]
            assert [small.get(k) for k in keys] == [whole.get(k) for k in keys]
            if not torn:
                last = {key(item[0]): item[1] for item in lines if not isinstance(item, bytes)}
                assert [small.get(k) for k in keys] == [last.get(k) for k in keys]
            small.put(key(6), "appended")
            assert gw.PromptCache(work).get(key(6)) == small.get(key(6)) == "appended"


def parse_verdict(raw: str, backend_id: str = "") -> gw.ModelVerdict:
    """The verdict the gateway's callers build from a raw response."""
    return gw.verdict_from_payload(gw.parse_json_payload(raw), backend_id)


class TestParseVerdict:
    def test_valid_payload(self):
        raw = '{"relevant": true, "confidence": 0.9, "evidence": "loss curves"}'
        verdict = parse_verdict(raw, "b1")
        assert verdict == gw.ModelVerdict("b1", True, 0.9, "loss curves")

    def test_non_json_safe_default(self):
        verdict = parse_verdict("maybe?", "b1")
        assert verdict == gw.ModelVerdict("b1", False, 0.0, "(malformed)")

    def test_confidence_clipped_high(self):
        raw = '{"relevant": true, "confidence": 1.7}'
        assert parse_verdict(raw).confidence == 1.0

    def test_confidence_clipped_low(self):
        raw = '{"relevant": false, "confidence": -0.2}'
        assert parse_verdict(raw).confidence == 0.0

    def test_json_embedded_in_prose(self):
        raw = 'Sure! Here you go:\n{"relevant": false, "confidence": 0.4, "evidence": "n/a"}\nDone.'
        verdict = parse_verdict(raw)
        assert verdict.decision is False
        assert verdict.confidence == 0.4

    def test_missing_decision_is_malformed(self):
        assert parse_verdict('{"confidence": 0.9}').evidence == "(malformed)"

    def test_never_raises_on_garbage(self):
        for raw in ("", "{", '{"relevant": "perhaps"}', "[1, 2, 3]", '{"a": {"b": }}'):
            verdict = parse_verdict(raw)
            assert verdict.decision is False
            assert 0.0 <= verdict.confidence <= 1.0

    def test_string_decisions_accepted(self):
        assert parse_verdict('{"relevant": "yes"}').decision is True
        assert parse_verdict('{"relevant": "no"}').decision is False


def nested(depth: int) -> str:
    return '{"a":' * depth + "1" + "}" * depth


# Plain text, JSON punctuation, and objects at the decoder's limits: nesting
# deeper than its recursion limit and integers longer than int() converts.
payload_text = st.lists(
    st.one_of(
        st.text(max_size=20),
        st.sampled_from(["{", "}", '"', "\\", ":", "[", "]", '{"a": 1}', '{"a": [}']),
        st.integers(min_value=0, max_value=3000).map(nested),
        st.integers(min_value=1, max_value=6000).map(lambda n: '{"n": ' + "7" * n + "}"),
    ),
    max_size=6,
).map("".join)


# Dense JSON punctuation and objects whose strings hold escapes, so that the
# first `{` falls in prose, in a string, in a broken object or in a whole one.
punctuation_text = st.lists(
    st.sampled_from(["{", "}", '"', "\\", '\\"', ":", ",", " ", "\n", "1", "a", "[", "]",
                     '"a"', "{}", '{"a": 1}', '{"b": "x{"}', '"}"', "true",
                     '{"a\\"b": 1}', '{"c": "\\u00e9"}', '{"d": "\\\\"}', '"\\n{"',
                     '{ "e": [1]}', '{\n"f": "a\\tb"}']),
    max_size=40,
).map("".join)


# Prose that holds no `{`, and JSON objects of every value type.
brace_free_text = st.text(st.characters(blacklist_characters="{"), max_size=30)
json_objects = st.dictionaries(st.text(max_size=8), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=12), max_size=4)


class TestParseJsonPayload:
    @settings(max_examples=200, deadline=None)
    @given(payload_text)
    def test_never_raises(self, raw):
        payload = gw.parse_json_payload(raw)
        assert payload is None or isinstance(payload, dict)

    def test_nesting_deeper_than_the_decoder_is_none(self):
        assert gw.parse_json_payload(nested(5000)) is None
        assert parse_verdict(nested(5000), "b1") == gw.ModelVerdict("b1", False, 0.0, "(malformed)")

    @settings(max_examples=500, deadline=None)
    @given(brace_free_text, json_objects, st.sampled_from([None, 2]),
           st.one_of(payload_text, punctuation_text, st.text()))
    def test_the_object_after_brace_free_prose_is_the_payload(self, prose, obj, indent, suffix):
        raw = prose + json.dumps(obj, indent=indent) + suffix
        expected = obj if raw.count("{") + raw.count("[") <= gw.MAX_NESTING else None
        assert gw.parse_json_payload(raw) == expected

    @settings(max_examples=200, deadline=None)
    @given(brace_free_text,
           st.from_regex(r"\{[a-zA-Z0-9'][a-zA-Z0-9,' ]*\}", fullmatch=True),
           json_objects, st.one_of(payload_text, punctuation_text))
    def test_a_first_brace_that_starts_no_object_gives_none(self, prose, head, obj, suffix):
        raw = prose + head + " " + json.dumps(obj) + suffix
        assert gw.parse_json_payload(raw) is None

    def test_a_response_is_decoded_once(self, monkeypatch):
        decodes = []
        raw_decode, loads = gw._DECODER.raw_decode, json.loads
        monkeypatch.setattr(gw._DECODER, "raw_decode",
                            lambda *args: decodes.append(args) or raw_decode(*args))
        monkeypatch.setattr(json, "loads", lambda *args: decodes.append(args) or loads(*args))
        raw = 'Answer: {"relevant": true, "confidence": 0.9} as asked {"other": 1}'
        assert gw.parse_json_payload(raw) == {"relevant": True, "confidence": 0.9}
        assert len(decodes) == 1

    def test_unclosed_braces_take_linear_time(self):
        start = time.perf_counter()
        assert gw.parse_json_payload("{" * 100_000) is None
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("depth", [gw.MAX_NESTING - 1, gw.MAX_NESTING, gw.MAX_NESTING + 1,
                                       900, 990])
    def test_same_answer_at_any_stack_depth_and_on_any_thread(self, depth):
        raw = nested(depth)

        def deeper(frames: int):
            return gw.parse_json_payload(raw) if frames == 0 else deeper(frames - 1)

        in_thread = []
        thread = threading.Thread(target=lambda: in_thread.append(gw.parse_json_payload(raw)))
        thread.start()
        thread.join()
        answer = gw.parse_json_payload(raw)
        assert (answer is not None) == (depth <= gw.MAX_NESTING)
        assert deeper(300) == answer and in_thread == [answer]

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(payload_text, punctuation_text),
           st.integers(min_value=0, max_value=4) | st.just(gw.MAX_NESTING), st.data())
    def test_any_reply_over_the_cap_gives_none(self, raw, cap, data):
        missing = cap + 1 - raw.count("{") - raw.count("[")
        if missing > 0:
            at = data.draw(st.integers(min_value=0, max_value=len(raw)))
            opens = data.draw(st.text("{[", min_size=missing, max_size=missing))
            raw = raw[:at] + opens + raw[at:]
        with mock.patch.object(gw, "MAX_NESTING", cap):
            assert gw.parse_json_payload(raw) is None

    CAP = gw.MAX_NESTING

    @pytest.mark.parametrize("raw, decodes", [
        (nested(CAP), True), (nested(CAP + 1), False),
        # The cap counts every `{` and `[` of a reply: in strings or not,
        # nested or side by side, before the object or after it.
        ('{"a": ' + '["]", ' * (CAP - 1) + "1" + "]" * (CAP - 1) + "}", True),
        ('{"a": ' + '["]", ' * CAP + "1" + "]" * CAP + "}", False),
        ('{"a": "' + "[" * (CAP - 1) + '"}', True),
        ('{"a": "' + "[" * CAP + '"}', False),
        ('{"a": "\\"' + "[" * CAP + '"}', False),
        ('{"a": "' + "{" * CAP + '"}', False),
        ('{"a": 1} ' * CAP, True),
        ('{"a": 1} ' * (CAP + 1), False),
        ('{"a": 1} ' + nested(CAP), False),
        ("[" * (CAP + 1) + '{"a": 1}' + "]" * (CAP + 1), False),
    ], ids=["cap", "over_cap", "string_brackets", "string_brackets_over_cap", "quoted",
            "quoted_over_cap", "escaped_quote", "quoted_braces", "shallow_cap", "many_shallow",
            "deep_later", "deep_arrays_first"])
    def test_responses_around_the_cap(self, raw, decodes):
        payload = gw.parse_json_payload(raw)
        assert (payload is not None) == decodes
        if decodes:  # the object the reply starts with
            assert payload == json.JSONDecoder().raw_decode(raw)[0]

    @pytest.mark.parametrize("raw, payload", [
        ('{"a": 1}', {"a": 1}),
        ('Verdict:\n{"a": 1}\nThat is all. {"b": 2}', {"a": 1}),
        ('[1, {"a": [2]}, 3]', {"a": [2]}),
        ('"[quoted]" {"a": "}"} }', {"a": "}"}),
        ('{"a": {}} {', {"a": {}}),
        # A first `{` that starts no object hides any object after it.
        ('{a, b} {"a": 1}', None),
        ('Use "{" to open. {"a": 1}', None),
        ('{"a": [} {"a": 1}', None),
        ('{"a": 1 {"b": 2}}', None),
        ('{"n": ' + "7" * 6000 + '} {"a": 1}', None),
        ("}{", None),
        ("no braces at all [1]", None),
    ], ids=["whole", "prose_around", "in_array", "quoted_brackets", "unclosed_after",
            "prose_braces", "quoted_brace", "broken_object", "unclosed_object",
            "over_long_integer", "closing_first", "no_brace"])
    def test_the_payload_is_the_object_at_the_first_brace(self, raw, payload):
        assert gw.parse_json_payload(raw) == payload


class TestPromptHash:
    @given(st.text(st.characters(exclude_categories=("Cs",))),
           st.text(st.characters(exclude_categories=("Cs",))))
    def test_key_is_sha256_of_utf8_for_text_without_surrogates(self, backend_id, prompt):
        expected = hashlib.sha256(
            backend_id.encode("utf-8") + b"\x00" + prompt.encode("utf-8")
        ).hexdigest()
        assert gw.prompt_hash(backend_id, prompt) == expected

    def test_lone_surrogate_has_a_key(self):
        assert gw.prompt_hash("stub", "\ud800") != gw.prompt_hash("stub", "\udc00")


class TestConsensus:
    def verdict(self, decision, backend="b"):
        return gw.ModelVerdict(backend, decision, 0.5, "e")

    def test_truth_table(self):
        for a, b in itertools.product([True, False], repeat=2):
            verdicts = [self.verdict(a, "b1"), self.verdict(b, "b2")]
            assert gw.consensus(verdicts) is (a and b)

    def test_empty_rejected(self):
        with pytest.raises(GatewayError):
            gw.consensus([])

    def test_commutative(self):
        verdicts = [self.verdict(True, "b1"), self.verdict(False, "b2")]
        assert gw.consensus(verdicts) == gw.consensus(list(reversed(verdicts)))

    def test_monotone(self):
        # Flipping any verdict positive -> negative never flips the
        # consensus negative -> positive.
        for size in (1, 2, 3):
            for bits in itertools.product([True, False], repeat=size):
                before = gw.consensus([self.verdict(b) for b in bits])
                for i, bit in enumerate(bits):
                    if not bit:
                        continue
                    flipped = list(bits)
                    flipped[i] = False
                    after = gw.consensus([self.verdict(b) for b in flipped])
                    assert not (before is False and after is True)

    def test_generalizes_to_n_backends(self):
        assert gw.consensus([self.verdict(True)] * 5) is True
        assert gw.consensus([self.verdict(True)] * 4 + [self.verdict(False)]) is False


class TestMapItems:
    def test_one_worker_runs_in_the_callers_thread(self):
        assert gw.map_items(lambda _: threading.get_ident(), range(3), 1) == \
            [threading.get_ident()] * 3

    def test_workers_keep_item_order(self):
        assert gw.map_items(lambda n: n * n, range(50), 4) == [n * n for n in range(50)]

    def test_no_item_starts_after_one_raises(self):
        # Each worker's first item raises before the worker takes another,
        # so only the items the four workers took first reach the backend.
        backend = AuthFailingBackend()
        g = gw.Gateway({"locked": backend})
        with pytest.raises(AuthenticationError):
            gw.map_items(lambda n: g.complete("locked", request(f"item {n}")), range(40), 4)
        assert backend.calls <= 4


class TestKeywordStub:
    def rules(self):
        return gw.StubRules(
            screen_keywords=("saliency",),
            figure_keywords=("accuracy",),
            role_rules=(("accuracy", "performance"), ("pipeline", "overview")),
            listener_rules=(("accuracy", "output results"),),
            vis_type_rules=(("chart", "statistical chart"),),
            purpose_rules=(("accuracy", "performance evaluation"),),
        )

    def test_screen_schema(self):
        backend = gw.KeywordStubBackend("s", self.rules())
        req = gw.PromptRequest("sys", (), "uses saliency maps", "screen/v1")
        payload = json.loads(backend.complete(req.render()))
        assert payload["relevant"] is True

    def test_figure_schema_role(self):
        backend = gw.KeywordStubBackend("s", self.rules())
        req = gw.PromptRequest("sys", (), "accuracy over epochs", "figure/v1")
        payload = json.loads(backend.complete(req.render()))
        assert payload["relevant"] is True
        assert payload["role"] == "performance"

    def test_labels_schema(self):
        backend = gw.KeywordStubBackend("s", self.rules())
        req = gw.PromptRequest("sys", (), "accuracy chart by class", "labels/v1")
        payload = json.loads(backend.complete(req.render()))
        assert payload["model_listener"] == ["output results"]
        assert payload["visualization_type"] == "statistical chart"
        assert payload["visualization_purpose"] == "performance evaluation"

    def test_keywords_only_match_target_section(self):
        backend = gw.KeywordStubBackend("s", self.rules())
        req = gw.PromptRequest(
            "sys", (("an exemplar about saliency", '{"relevant": true}'),),
            "a treemap of directories", "screen/v1",
        )
        payload = json.loads(backend.complete(req.render()))
        assert payload["relevant"] is False

    def loaded_rules(self, tmp_path, stub_rules: dict) -> gw.StubRules:
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"backends": {"stub": {"kind": "stub",
                                                          "stub_rules": stub_rules}}}))
        return load_config(path).backends["stub"].stub_rules

    def test_rules_from_empty_config_are_the_defaults(self, tmp_path):
        assert self.loaded_rules(tmp_path, {}) == gw.StubRules()

    def test_rules_from_partial_config_keep_other_defaults(self, tmp_path):
        rules = self.loaded_rules(tmp_path, {
            "screen_keywords": ["saliency"],
            "role_rules": [["accuracy", "performance"]],
            "vis_type_rules": [["chart", "heatmap"]],
        })
        assert rules == gw.StubRules(
            screen_keywords=("saliency",),
            role_rules=(("accuracy", "performance"),),
            vis_type_rules=(("chart", "heatmap"),),
        )
