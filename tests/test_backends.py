"""Backends: scripted replay, the HTTP client (against a local stub server),
and the recording wrapper."""

from __future__ import annotations

import json
import logging
import random
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from flairr import backends
from flairr.backends import (
    DEFAULT_TEMPERATURES,
    TAGS,
    Backend,
    CompletionReply,
    CompletionRequest,
    HttpBackend,
    RecordingBackend,
    ScriptedBackend,
    ScriptEntry,
    load_script,
)
from flairr.errors import BackendError, ConfigError


class _JitterCeiling:
    """A random source whose every draw is the top of its range."""

    @staticmethod
    def uniform(low, high):
        return high


@pytest.fixture(autouse=True)
def _backoff_at_its_ceiling(monkeypatch):
    # The retry tests pin exact waits. At the top of its range the jittered
    # backoff is the fixed 1 s / 2 s schedule; the jitter has its own test.
    monkeypatch.setattr(backends, "random", _JitterCeiling)


def req(prompt="hello", tag="forecaster", **kw):
    return CompletionRequest(prompt=prompt, tag=tag, **kw)


def chat_body(text, tokens=(12, 7)):
    body = {"choices": [{"message": {"content": text}}]}
    if tokens is not None:
        body["usage"] = {"prompt_tokens": tokens[0], "completion_tokens": tokens[1]}
    return body


# --- request/reply types ----------------------------------------------------


def test_completion_request_validation():
    with pytest.raises(ValueError, match="prompt"):
        CompletionRequest(prompt="", tag="forecaster")
    with pytest.raises(ValueError, match="tag"):
        CompletionRequest(prompt="x", tag="oracle")
    with pytest.raises(ValueError, match="attempt"):
        CompletionRequest(prompt="x", tag="refiner", attempt=-1)


def test_default_temperatures_cover_every_tag():
    assert set(DEFAULT_TEMPERATURES) == set(TAGS)
    assert DEFAULT_TEMPERATURES["forecaster"] < DEFAULT_TEMPERATURES["refiner"]


def test_reply_is_frozen():
    reply = CompletionReply(text="x")
    with pytest.raises(AttributeError):
        reply.text = "y"


# --- scripted backend -------------------------------------------------------


def test_ordinal_script_plays_in_order_then_exhausts():
    backend = ScriptedBackend([ScriptEntry(reply="one"), ScriptEntry(reply="two")])
    assert backend.remaining == 2
    assert backend.complete(req("a")).text == "one"
    assert backend.complete(req("b", tag="refiner")).text == "two"
    assert backend.remaining == 0
    with pytest.raises(BackendError, match="script exhausted after 2 replies"):
        backend.complete(req("c"))


def test_script_mode_mixing_rejected():
    with pytest.raises(ValueError, match="mixes"):
        ScriptedBackend([ScriptEntry(reply="a"), ScriptEntry(reply="b", tag="refiner")])
    with pytest.raises(ValueError, match="at least one"):
        ScriptedBackend([])


def test_pattern_script_routes_by_tag():
    backend = ScriptedBackend(
        [
            ScriptEntry(reply="F", tag="forecaster"),
            ScriptEntry(reply="R", tag="refiner"),
        ]
    )
    assert backend.complete(req(tag="forecaster")).text == "F"
    assert backend.complete(req(tag="refiner")).text == "R"
    assert backend.complete(req(tag="refiner")).text == "R"  # reusable
    with pytest.raises(BackendError, match="no script entry matches"):
        backend.complete(req(tag="synthesis"))


def test_pattern_script_exact_prompt_and_contains():
    backend = ScriptedBackend(
        [
            ScriptEntry(reply="exact", prompt="the full prompt"),
            ScriptEntry(reply="fuzzy", contains="needle"),
        ]
    )
    assert backend.complete(req("the full prompt")).text == "exact"
    assert backend.complete(req("hay needle stack")).text == "fuzzy"


def test_pattern_script_ambiguity_is_an_error():
    backend = ScriptedBackend(
        [
            ScriptEntry(reply="A", contains="x"),
            ScriptEntry(reply="B", tag="forecaster"),
        ]
    )
    with pytest.raises(BackendError, match="ambiguous script"):
        backend.complete(req("x marks the spot", tag="forecaster"))
    # one reply text under two token counts is two distinct replies
    backend = ScriptedBackend(
        [
            ScriptEntry(reply="A", contains="x", token_counts=(1, 1)),
            ScriptEntry(reply="A", tag="forecaster", token_counts=(1, 2)),
        ]
    )
    with pytest.raises(BackendError, match="2 distinct replies"):
        backend.complete(req("x marks the spot", tag="forecaster"))


def test_pattern_script_duplicate_same_reply_is_fine():
    backend = ScriptedBackend(
        [
            ScriptEntry(reply="same", contains="x"),
            ScriptEntry(reply="same", tag="forecaster"),
        ]
    )
    assert backend.complete(req("x", tag="forecaster")).text == "same"


# --- script files -----------------------------------------------------------


def test_load_script_ordinal_shapes(tmp_path):
    p = tmp_path / "script.jsonl"
    p.write_text(
        '{"reply": "one"}\n'
        '\n'
        '{"match": "ordinal", "reply": "two"}\n'
        '{"match": {"ordinal": true}, "reply": "three"}\n'
    )
    backend = load_script(p)
    assert [backend.complete(req(str(i))).text for i in range(3)] == [
        "one",
        "two",
        "three",
    ]


def test_load_script_pattern_and_recording_shapes(tmp_path):
    p = tmp_path / "script.jsonl"
    p.write_text(
        '{"match": {"tag": "refiner"}, "reply": "R"}\n'
        '{"match": {"contains": "zzz"}, "reply": "C"}\n'
        '{"hash": "abcd", "tag": "forecaster", "prompt": "recorded prompt", "reply": "P"}\n'
    )
    backend = load_script(p)
    assert backend.complete(req(tag="refiner")).text == "R"
    assert backend.complete(req("zzz please")).text == "C"
    assert backend.complete(req("recorded prompt")).text == "P"
    # a line without an attempt matches every attempt
    assert backend.complete(req("recorded prompt", attempt=2)).text == "P"


def test_load_script_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read script"):
        load_script(tmp_path / "missing.jsonl")
    p = tmp_path / "bad.jsonl"
    p.write_text("{broken\n")
    with pytest.raises(ConfigError, match="malformed JSON"):
        load_script(p)
    p.write_text('{"match": "ordinal"}\n')
    with pytest.raises(ConfigError, match="missing 'reply'"):
        load_script(p)
    for line in ("5", '"x"', "[1]", "null"):
        p.write_text(line + "\n")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            load_script(p)
    for reply in ("5", "null", '["x"]', '{"text": "x"}'):
        p.write_text(f'{{"reply": {reply}}}\n')
        with pytest.raises(ConfigError, match="'reply' must be a string"):
            load_script(p)
    p.write_text('{"tag": "refiner", "prompt": "a", "reply": 5}\n')
    with pytest.raises(ConfigError, match="'reply' must be a string"):
        load_script(p)
    p.write_text("\n\n")
    with pytest.raises(ConfigError, match="no entries"):
        load_script(p)
    p.write_text('{"match": {"tag": "oracle"}, "reply": "x"}\n')
    with pytest.raises(ConfigError, match="unknown tag"):
        load_script(p)
    p.write_text('{"match": {"prompt": "a", "tag": "refiner"}, "reply": "x"}\n')
    with pytest.raises(ConfigError, match="must be one of"):
        load_script(p)
    p.write_text('{"match": {"regex": "a"}, "reply": "x"}\n')
    with pytest.raises(ConfigError, match=":1: unknown match key 'regex'"):
        load_script(p)
    p.write_text('{"tag": "refiner", "seed": "3", "prompt": "a", "reply": "x"}\n')
    with pytest.raises(ConfigError, match="seed must be an integer"):
        load_script(p)
    for attempt in ("true", "-1", "1.0", '"1"'):
        p.write_text(f'{{"tag": "refiner", "attempt": {attempt}, "prompt": "a", "reply": "x"}}\n')
        with pytest.raises(ConfigError, match="attempt must be a non-negative integer"):
            load_script(p)
    for tokens in ("[1]", "[1, 2, 3]", "[1, -2]", "[true, 2]", "[1.0, 2]", '"1,2"', "{}"):
        p.write_text(f'{{"tag": "refiner", "tokens": {tokens}, "prompt": "a", "reply": "x"}}\n')
        with pytest.raises(ConfigError, match="tokens must be"):
            load_script(p)
    # JSON types are not coerced: each error names the line
    for key, value in (("contains", "null"), ("prompt", "5"), ("tag", '["refiner"]')):
        p.write_text(f'{{"match": {{"{key}": {value}}}, "reply": "x"}}\n')
        with pytest.raises(ConfigError, match=f":1: match '{key}' must be a string"):
            load_script(p)
    for value in ("false", "0", "1", '"true"'):
        p.write_text(f'{{"match": {{"ordinal": {value}}}, "reply": "x"}}\n')
        with pytest.raises(ConfigError, match=":1: match 'ordinal' must be true"):
            load_script(p)
    for prompt in ("5", "null"):
        p.write_text(f'{{"tag": "refiner", "prompt": {prompt}, "reply": "x"}}\n')
        with pytest.raises(ConfigError, match=":1: recording 'prompt' must be a string"):
            load_script(p)


# --- HTTP backend -----------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.seen.append(
            {"path": self.path, "headers": dict(self.headers), "body": body}
        )
        # a script entry is (status, payload) or (status, payload, headers)
        entry = self.server.script.pop(0) if self.server.script else (200, chat_body("fallback"))
        status, payload, headers = (*entry, {})[:3]
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _serving(server):
    """Serve ``server`` on a daemon thread, yield (URL, server), then close it."""
    server.seen = []
    server.script = []
    # a short poll interval keeps shutdown() from waiting half a second
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    try:
        yield url, server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def stub_server():
    yield from _serving(ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler))


def test_http_backend_round_trip(stub_server):
    url, server = stub_server
    server.script = [(200, chat_body("the reply"))]
    backend = HttpBackend(url, "test-model", api_key="sk-secret")
    reply = backend.complete(req("ping", tag="refiner", seed=42))
    assert reply.text == "the reply"
    assert reply.token_counts == (12, 7)
    assert reply.latency_ms >= 0.0
    sent = server.seen[0]
    assert sent["body"] == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "ping"}],
        "temperature": 0.7,
        "max_tokens": 4096,
        "seed": 42,
    }
    assert sent["headers"]["Authorization"] == "Bearer sk-secret"


@pytest.mark.parametrize("tag", TAGS)
def test_http_backend_takes_the_sampling_settings_from_the_tag(tag, stub_server):
    url, server = stub_server
    HttpBackend(url, "m").complete(req("ping", tag=tag))
    body = server.seen[0]["body"]
    assert (body["temperature"], body["max_tokens"]) == (DEFAULT_TEMPERATURES[tag], 4096)


def test_http_backend_omits_seed_and_reads_key_from_env(stub_server, monkeypatch):
    url, server = stub_server
    monkeypatch.setenv("FLAIRR_API_KEY", "from-env")
    backend = HttpBackend(url, "m")
    backend.complete(req("ping"))
    sent = server.seen[0]
    assert "seed" not in sent["body"]
    assert sent["headers"]["Authorization"] == "Bearer from-env"


def test_http_backend_no_key_no_auth_header(stub_server, monkeypatch):
    url, server = stub_server
    monkeypatch.delenv("FLAIRR_API_KEY", raising=False)
    HttpBackend(url, "m").complete(req("ping"))
    assert "Authorization" not in server.seen[0]["headers"]


def test_http_backend_missing_usage_yields_no_token_counts(stub_server):
    url, server = stub_server
    server.script = [(200, chat_body("ok", tokens=None))]
    reply = HttpBackend(url, "m").complete(req())
    assert reply.token_counts is None


def test_http_backend_retries_server_errors_with_backoff(stub_server):
    url, server = stub_server
    server.script = [(500, {"err": 1}), (429, {"err": 2}), (200, chat_body("third"))]
    sleeps = []
    backend = HttpBackend(url, "m", sleeper=sleeps.append)
    assert backend.complete(req()).text == "third"
    assert sleeps == [1.0, 2.0]
    assert len(server.seen) == 3


@pytest.mark.parametrize(
    "status, retry_after, first_sleep",
    [
        (429, "7", 7.0),
        (503, " 30 ", 30.0),
        (503, "0", 1.0),  # never shorter than the fixed backoff
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 1.0),  # HTTP date: fixed backoff
        (429, "soon", 1.0),
        (429, "-5", 1.0),
        (500, "7", 1.0),  # only 429 and 503 carry it
    ],
)
def test_http_backend_honours_numeric_retry_after(
    status, retry_after, first_sleep, stub_server
):
    url, server = stub_server
    server.script = [
        (status, {"err": 1}, {"Retry-After": retry_after}),
        (503, {"err": 2}),  # no header: back to the fixed 2 s
        (200, chat_body("third")),
    ]
    sleeps = []
    backend = HttpBackend(url, "m", sleeper=sleeps.append, api_key="")
    assert backend.complete(req()).text == "third"
    assert sleeps == [first_sleep, 2.0]


def test_http_backend_jitters_its_backoff(monkeypatch, stub_server):
    """Equal jitter (Brooker 2015): each wait is uniform in [b/2, b] for the
    fixed backoff b, drawn from the module's random source; a numeric
    Retry-After still sets the floor."""
    url, server = stub_server
    monkeypatch.setattr(backends, "random", random.Random(2015))
    expected = random.Random(2015)
    sleeps = []
    backend = HttpBackend(url, "m", sleeper=sleeps.append, api_key="")
    for retry_after in ["0"] * 40 + ["2"]:
        server.script = [
            (503, {"err": 1}),
            (429, {"err": 2}, {"Retry-After": retry_after}),
            (200, chat_body("third")),
        ]
        assert backend.complete(req()).text == "third"
    draws = [expected.uniform(b / 2, b) for _ in range(41) for b in (1.0, 2.0)]
    assert sleeps == draws[:-1] + [2.0]  # the last 429 asked for 2 s
    firsts, seconds = sleeps[0:80:2], sleeps[1:80:2]
    assert 0.5 <= min(firsts) < 0.6 and 0.9 < max(firsts) < 1.0
    assert 1.0 <= min(seconds) < 1.2 and 1.8 < max(seconds) < 2.0


def test_http_backend_gives_up_after_three_attempts(stub_server):
    url, server = stub_server
    server.script = [(503, {}), (503, {}), (503, {})]
    sleeps = []
    backend = HttpBackend(url, "m", sleeper=sleeps.append)
    with pytest.raises(BackendError, match="giving up .* after 3 attempts"):
        backend.complete(req())
    assert sleeps == [1.0, 2.0]
    assert len(server.seen) == 3


def test_http_backend_client_error_fails_immediately(stub_server):
    url, server = stub_server
    server.script = [(404, {"detail": "no such model"})]
    with pytest.raises(BackendError, match="HTTP 404"):
        HttpBackend(url, "m", sleeper=lambda s: None).complete(req())
    assert len(server.seen) == 1  # no retries on a 4xx other than 429


def test_http_backend_transport_failure_is_retried():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()  # nothing listens here now
    sleeps = []
    backend = HttpBackend(
        f"http://127.0.0.1:{dead_port}/v1", "m", timeout_s=1.0, sleeper=sleeps.append
    )
    with pytest.raises(BackendError, match="transport failure"):
        backend.complete(req())
    assert sleeps == [1.0, 2.0]


def test_http_backend_malformed_body(stub_server):
    url, server = stub_server
    server.script = [(200, {"unexpected": "shape"})]
    with pytest.raises(BackendError, match="malformed completion body"):
        HttpBackend(url, "m").complete(req())
    for content in (None, ["x"], 5):
        server.script = [(200, {"choices": [{"message": {"content": content}}]})]
        with pytest.raises(BackendError, match="malformed completion body.*not text"):
            HttpBackend(url, "m").complete(req())


class _KeepAliveHandler(_StubHandler):
    """The stub over persistent HTTP/1.1 connections, counting them; each
    reply waits a little so concurrent callers overlap."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        time.sleep(0.02)
        super().do_POST()


class _WideBacklogServer(ThreadingHTTPServer):
    request_queue_size = 64  # the default 5 delays a burst of connects by 1 s


@pytest.fixture
def keepalive_server():
    server = _WideBacklogServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.lock, server.connections = threading.Lock(), 0
    yield from _serving(server)


def test_http_backend_threads_do_not_overflow_the_connection_pool(keepalive_server, caplog):
    url, server = keepalive_server
    backend = HttpBackend(url, "m", api_key="")
    threads, calls = 16, 4
    start = threading.Barrier(threads)
    replies = []

    def worker():
        start.wait()
        for _ in range(calls):
            replies.append(backend.complete(req()).text)

    with caplog.at_level(logging.WARNING, logger="urllib3"):
        workers = [threading.Thread(target=worker) for _ in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
    assert replies == ["fallback"] * threads * calls
    assert server.connections <= threads
    assert not [r for r in caplog.records if "pool is full" in r.getMessage()]


def test_http_backend_config_validation():
    with pytest.raises(ConfigError):
        HttpBackend("", "m")
    with pytest.raises(ConfigError):
        HttpBackend("http://x", "")


# --- recording wrapper ------------------------------------------------------


def test_recording_backend_round_trip(tmp_path):
    sink = tmp_path / "transcript.jsonl"
    inner = ScriptedBackend(
        [
            ScriptEntry(reply="F-reply", tag="forecaster"),
            ScriptEntry(reply="R-reply", tag="refiner", token_counts=(5, 2)),
        ]
    )
    recorder = RecordingBackend(inner, sink)
    assert recorder.complete(req("p1", tag="forecaster")).text == "F-reply"
    assert recorder.complete(req("p2", tag="refiner", seed=4)).text == "R-reply"
    assert recorder.complete(req("p3", tag="forecaster", attempt=1)).text == "F-reply"

    lines = [json.loads(line) for line in sink.read_text().splitlines()]
    assert len(lines) == 3
    assert [r["seed"] for r in lines] == [None, 4, None]
    assert [r["attempt"] for r in lines] == [0, 0, 1]
    assert [r["tokens"] for r in lines] == [None, [5, 2], None]
    for record in lines:
        assert set(record) == {"hash", "tag", "seed", "attempt", "prompt", "reply", "tokens"}
        assert len(record["hash"]) == 16
        assert all(c in "0123456789abcdef" for c in record["hash"])
    assert [r["prompt"] for r in lines] == ["p1", "p2", "p3"]

    # replaying the transcript reproduces the replies for the same prompts
    replay = load_script(sink)
    first = replay.complete(req("p1", tag="forecaster"))
    assert (first.text, first.token_counts) == ("F-reply", None)
    second = replay.complete(req("p2", tag="refiner", seed=4))
    assert (second.text, second.token_counts) == ("R-reply", (5, 2))
    with pytest.raises(BackendError, match="no script entry matches"):
        replay.complete(req("p3", tag="forecaster"))  # recorded as attempt 1 only


def test_recording_replays_each_seed_its_own_reply(tmp_path):
    class EchoSeed(Backend):
        def complete(self, request):
            return CompletionReply(text=f"seed {request.seed}")

    sink = tmp_path / "transcript.jsonl"
    recorder = RecordingBackend(EchoSeed(), sink)
    for seed in (0, 1):
        recorder.complete(req("same prompt", seed=seed))
    replay = load_script(sink)
    assert replay.complete(req("same prompt", seed=1)).text == "seed 1"
    assert replay.complete(req("same prompt", seed=0)).text == "seed 0"
    with pytest.raises(BackendError, match="no script entry matches"):
        replay.complete(req("same prompt", seed=2))

