"""Completion backends: a live HTTP chat-completion client, a deterministic
scripted backend for offline runs, and a record/replay bridge between them.

Every backend implements :meth:`Backend.complete`; the orchestrator never
depends on anything else, so scripted and live backends are interchangeable.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import BackendError, ConfigError

__all__ = [
    "TAGS",
    "DEFAULT_TEMPERATURES",
    "DEFAULT_MAX_TOKENS",
    "DEFAULT_TIMEOUT_S",
    "API_KEY_ENV",
    "CompletionRequest",
    "CompletionReply",
    "Backend",
    "CallMeter",
    "ScriptEntry",
    "ScriptedBackend",
    "load_script",
    "HttpBackend",
    "RecordingBackend",
]

TAGS = ("forecaster", "refiner", "synthesis")

# Forecasting wants stable numbers; critique and synthesis benefit from a
# more exploratory temperature.
DEFAULT_TEMPERATURES = {"forecaster": 0.2, "refiner": 0.7, "synthesis": 0.7}
DEFAULT_MAX_TOKENS = 4096
DEFAULT_TIMEOUT_S = 120.0

API_KEY_ENV = "FLAIRR_API_KEY"

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = (1.0, 2.0)


@dataclass(frozen=True)
class CompletionRequest:
    """One completion call: the prompt, the agent tag, a seed and the try.

    The tag fixes the sampling settings: a backend that sends them uses
    ``DEFAULT_TEMPERATURES[tag]`` and ``DEFAULT_MAX_TOKENS``. ``attempt``
    numbers the tries of one parse-retry loop from 0, so a re-ask is a
    different request from the try before it even when its prompt is the
    same.
    """

    prompt: str
    tag: str
    seed: int | None = None
    attempt: int = 0

    def __post_init__(self):
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.tag not in TAGS:
            raise ValueError(f"tag must be one of {TAGS}, got {self.tag!r}")
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")


@dataclass(frozen=True)
class CompletionReply:
    """The raw reply text plus transport metadata."""

    text: str
    latency_ms: float = 0.0
    token_counts: tuple[int, int] | None = None


class Backend:
    """Interface every completion source implements."""

    backend_id = "backend"

    def complete(self, request: CompletionRequest) -> CompletionReply:
        raise NotImplementedError


class CallMeter(Backend):
    """Counts calls per tag, re-asks and token usage on the way through; the
    one place that sums :attr:`CompletionReply.token_counts`. A re-ask is a
    call with ``attempt > 0``, sent only after the reply before failed to parse.
    """

    def __init__(self, inner: Backend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = dict.fromkeys(TAGS, 0)
        self.reasks = 0
        self.tokens_in = 0
        self.tokens_out = 0
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionReply:
        reply = self.inner.complete(request)
        with self._lock:
            self.calls[request.tag] += 1
            self.reasks += request.attempt > 0
            if reply.token_counts is not None:
                self.tokens_in += reply.token_counts[0]
                self.tokens_out += reply.token_counts[1]
        return reply


@dataclass(frozen=True)
class ScriptEntry:
    """One scripted reply. Exactly one of ``prompt``, ``contains``, ``tag``
    is set in pattern mode; all three are None for ordinal entries. A
    ``seed`` or an ``attempt`` narrows an exact-prompt entry to requests
    with that value. ``token_counts`` is handed back with the reply."""

    reply: str
    prompt: str | None = None
    contains: str | None = None
    tag: str | None = None
    seed: int | None = None
    attempt: int | None = None
    token_counts: tuple[int, int] | None = None

    @property
    def is_ordinal(self) -> bool:
        return self.prompt is None and self.contains is None and self.tag is None

    def matches(self, request: CompletionRequest) -> bool:
        if self.prompt is not None:
            return (
                request.prompt == self.prompt
                and self.seed in (None, request.seed)
                and self.attempt in (None, request.attempt)
            )
        if self.contains is not None:
            return self.contains in request.prompt
        return request.tag == self.tag


class ScriptedBackend(Backend):
    """Deterministic backend replaying fixture entries.

    Ordinal mode (no match fields anywhere) hands entries out in order and
    errors when exhausted. Pattern mode resolves each request to exactly one
    distinct reply text — zero matches or conflicting matches are errors, so
    a fixture can never silently answer the wrong question.
    """

    backend_id = "scripted"

    def __init__(self, entries: list[ScriptEntry]):
        if not entries:
            raise ValueError("script must contain at least one entry")
        ordinal_flags = {entry.is_ordinal for entry in entries}
        if len(ordinal_flags) != 1:
            raise ValueError("script mixes ordinal and pattern entries")
        self.ordinal = ordinal_flags.pop()
        self._entries = list(entries)
        self._cursor = 0
        self._lock = threading.Lock()

    @property
    def remaining(self) -> int:
        with self._lock:
            return len(self._entries) - self._cursor if self.ordinal else len(self._entries)

    def complete(self, request: CompletionRequest) -> CompletionReply:
        if self.ordinal:
            with self._lock:
                if self._cursor >= len(self._entries):
                    raise BackendError(
                        f"script exhausted after {len(self._entries)} replies "
                        f"(next request tag: {request.tag})"
                    )
                entry = self._entries[self._cursor]
                self._cursor += 1
            return CompletionReply(text=entry.reply)

        matches = [e for e in self._entries if e.matches(request)]
        replies = {(e.reply, e.token_counts) for e in matches}
        if not matches:
            raise BackendError(
                f"no script entry matches request (tag {request.tag}, "
                f"prompt starts {request.prompt[:60]!r})"
            )
        if len(replies) > 1:
            raise BackendError(
                f"ambiguous script: {len(matches)} entries with {len(replies)} distinct "
                f"replies match request (tag {request.tag})"
            )
        entry = matches[0]
        return CompletionReply(text=entry.reply, token_counts=entry.token_counts)


def _entry_from_json(obj, where: str) -> ScriptEntry:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: script entry must be a JSON object")
    if "reply" not in obj:
        raise ConfigError(f"{where}: script entry missing 'reply'")
    reply = obj["reply"]
    if not isinstance(reply, str):
        raise ConfigError(f"{where}: script entry 'reply' must be a string")
    match = obj.get("match")
    if match is None and "prompt" in obj:
        # recording shape: {"hash", "tag", "seed", "attempt", "prompt",
        # "reply", "tokens"} replays as an exact-prompt pattern entry for
        # that seed and attempt (full prompt stored, hashes are advisory); a
        # line without a seed or an attempt matches any
        prompt = obj["prompt"]
        if not isinstance(prompt, str):
            raise ConfigError(f"{where}: recording 'prompt' must be a string")
        seed = obj.get("seed")
        if seed is not None and not _is_int(seed):
            raise ConfigError(f"{where}: recording seed must be an integer or null")
        attempt = obj.get("attempt")
        if attempt is not None and not (_is_int(attempt) and attempt >= 0):
            raise ConfigError(
                f"{where}: recording attempt must be a non-negative integer or null"
            )
        tokens = obj.get("tokens")
        if tokens is not None and not (
            isinstance(tokens, list)
            and len(tokens) == 2
            and all(_is_int(t) and t >= 0 for t in tokens)
        ):
            raise ConfigError(
                f"{where}: recording tokens must be [in, out] non-negative integers or null"
            )
        return ScriptEntry(
            reply=reply,
            prompt=prompt,
            seed=seed,
            attempt=attempt,
            token_counts=None if tokens is None else tuple(tokens),
        )
    if match is None or match == "ordinal":
        return ScriptEntry(reply=reply)
    if not isinstance(match, dict) or len(match) != 1:
        raise ConfigError(f"{where}: 'match' must be one of ordinal/prompt/contains/tag")
    key, value = next(iter(match.items()))
    if key == "ordinal":
        if value is not True:
            raise ConfigError(f"{where}: match 'ordinal' must be true")
        return ScriptEntry(reply=reply)
    if key not in ("prompt", "contains", "tag"):
        raise ConfigError(f"{where}: unknown match key {key!r}")
    if not isinstance(value, str):
        raise ConfigError(f"{where}: match {key!r} must be a string")
    if key == "tag" and value not in TAGS:
        raise ConfigError(f"{where}: unknown tag {value!r}; expected one of {TAGS}")
    return ScriptEntry(reply=reply, **{key: value})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_script(path) -> ScriptedBackend:
    """Load a JSON-lines script (or a recording file) into a backend."""
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read script {p}: {exc}") from exc
    entries: list[ScriptEntry] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}:{lineno}: malformed JSON: {exc}") from exc
        entries.append(_entry_from_json(obj, f"{p}:{lineno}"))
    if not entries:
        raise ConfigError(f"{p}: script has no entries")
    return ScriptedBackend(entries)


class HttpBackend(Backend):
    """Chat-completion client over HTTP.

    Sends the widely deployed JSON shape (model, messages, temperature,
    max_tokens), the last two from the request's tag, with a Bearer
    credential taken from the ``FLAIRR_API_KEY`` environment variable.
    Transport failures, 5xx, and 429 are retried up to three attempts. The
    waits between them are drawn uniformly from [b/2, b] for the backoffs
    b = 1 s and then 2 s ("equal jitter"), so
    clients that failed together do not retry together; a 429 or 503 reply
    with a numeric ``Retry-After`` waits at least that long (an HTTP date
    or an unparsable value keeps the jittered wait). Anything else surfaces
    immediately as a :class:`BackendError` carrying a body excerpt.

    Each calling thread posts through its own ``requests.Session``, so a
    grid of ``--jobs`` threads keeps one pooled connection per thread and
    never overflows a pool shared by all of them. ``requests`` is imported
    when the first instance is built, not with this module, so runs on the
    offline backends load no HTTP code.
    """

    backend_id = "http"

    def __init__(
        self,
        endpoint_url: str,
        model_name: str,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        sleeper=time.sleep,
        api_key: str | None = None,
    ):
        if not endpoint_url:
            raise ConfigError("endpoint_url must be set for the HTTP backend")
        if not model_name:
            raise ConfigError("model_name must be set for the HTTP backend")
        import requests  # noqa: F401  the first instance loads it, not the module

        self.endpoint_url = endpoint_url
        self.model_name = model_name
        self.timeout_s = timeout_s
        self._per_thread = threading.local()
        self._sleep = sleeper
        key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self._headers = {"Content-Type": "application/json"}
        if key:
            self._headers["Authorization"] = f"Bearer {key}"

    def complete(self, request: CompletionRequest) -> CompletionReply:
        import requests  # loaded by __init__; this only binds the name

        payload: dict = {
            "model": self.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": DEFAULT_TEMPERATURES[request.tag],
            "max_tokens": DEFAULT_MAX_TOKENS,
        }
        if request.seed is not None:
            payload["seed"] = request.seed

        last_error = ""
        retry_after_s = 0.0
        for attempt in range(RETRY_ATTEMPTS):
            if attempt:
                backoff_s = RETRY_BACKOFF_S[attempt - 1]
                jittered_s = random.uniform(backoff_s / 2, backoff_s)
                self._sleep(max(jittered_s, retry_after_s))
                retry_after_s = 0.0
            start = time.monotonic()
            try:
                response = self._thread_session().post(
                    self.endpoint_url,
                    json=payload,
                    headers=self._headers,
                    timeout=self.timeout_s,
                )
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc}"
                continue
            latency_ms = (time.monotonic() - start) * 1000.0
            if response.status_code >= 500 or response.status_code == 429:
                last_error = (
                    f"HTTP {response.status_code}: {response.text[:200]}"
                )
                if response.status_code in (429, 503):
                    retry_after_s = _retry_after_s(response.headers.get("Retry-After"))
                continue
            if response.status_code != 200:
                raise BackendError(
                    f"HTTP {response.status_code} from {self.endpoint_url}: "
                    f"{response.text[:200]}"
                )
            try:
                body = response.json()
                text = body["choices"][0]["message"]["content"]
                if not isinstance(text, str):
                    raise TypeError(f"message content is {type(text).__name__}, not text")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(
                    f"malformed completion body from {self.endpoint_url}: {exc}; "
                    f"excerpt: {response.text[:200]}"
                ) from exc
            tokens = None
            usage = body.get("usage") if isinstance(body, dict) else None
            if isinstance(usage, dict):
                tin = usage.get("prompt_tokens")
                tout = usage.get("completion_tokens")
                if isinstance(tin, int) and isinstance(tout, int):
                    tokens = (tin, tout)
            return CompletionReply(
                text=text,
                latency_ms=latency_ms,
                token_counts=tokens,
            )
        raise BackendError(
            f"giving up on {self.endpoint_url} after {RETRY_ATTEMPTS} attempts; "
            f"last error: {last_error}"
        )

    def _thread_session(self):
        """The calling thread's own session."""
        local = self._per_thread
        if not hasattr(local, "session"):
            import requests  # loaded by __init__; this only binds the name

            local.session = requests.Session()
        return local.session


def _retry_after_s(value: str | None) -> float:
    """The delay-seconds form of a ``Retry-After`` header, else 0."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class RecordingBackend(Backend):
    """Wraps any backend and appends one JSON line per request/reply pair.

    The full prompt, the request seed and attempt, and the reply's token
    counts are stored alongside a short content hash, so replaying the sink
    as a pattern script reproduces identical replies, token counts included,
    for identical (prompt, seed, attempt) requests; hash collisions cannot
    lose data.
    """

    backend_id = "recording"

    def __init__(self, inner: Backend, sink):
        self.inner = inner
        self.sink = Path(sink)
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionReply:
        reply = self.inner.complete(request)
        record = {
            "hash": hashlib.sha256(request.prompt.encode("utf-8")).hexdigest()[:16],
            "tag": request.tag,
            "seed": request.seed,
            "attempt": request.attempt,
            "prompt": request.prompt,
            "reply": reply.text,
            "tokens": None if reply.token_counts is None else list(reply.token_counts),
        }
        line = json.dumps(record, ensure_ascii=False)
        try:
            with self._lock, open(self.sink, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
        except OSError as exc:
            raise BackendError(f"cannot append to recording {self.sink}: {exc}") from exc
        return reply
