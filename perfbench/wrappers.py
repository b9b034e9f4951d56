"""Backend wrappers owned by the benchmark.

Both wrap a :class:`flairr.testing.SyntheticOracleBackend` (directly or
through each other) and do no other work: one counts what the program asks
of the model, the other makes each call cost what a live endpoint would.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

from flairr.backends import TAGS, Backend, CompletionReply, CompletionRequest
from flairr.session import FORMAT_RETRY_SUFFIX


class CountingBackend(Backend):
    """Counts calls, prompt and reply characters per tag, and re-asks, and
    keeps the last prompt of each tag for the benchmark's checks.

    A re-ask is a call whose prompt carries the session's corrective
    format-retry suffix. The oracle reports no token counts, so prompt
    characters are the stand-in for input tokens.
    """

    def __init__(self, inner: Backend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = Counter({tag: 0 for tag in TAGS})
        self.prompt_chars = Counter({tag: 0 for tag in TAGS})
        self.reply_chars = Counter({tag: 0 for tag in TAGS})
        self.retries = 0
        self.last_prompt: dict[str, str] = {}

    def complete(self, request: CompletionRequest) -> CompletionReply:
        reply = self.inner.complete(request)
        self.calls[request.tag] += 1
        self.prompt_chars[request.tag] += len(request.prompt)
        self.reply_chars[request.tag] += len(reply.text)
        self.last_prompt[request.tag] = request.prompt
        if request.prompt.endswith(FORMAT_RETRY_SUFFIX):
            self.retries += 1
        return reply


@dataclass(frozen=True)
class LatencyModel:
    """Deterministic cost of one live call: a fixed delay plus a charge per
    thousand characters of prompt and of reply."""

    fixed_ms: float
    prompt_ms_per_kchar: float
    reply_ms_per_kchar: float

    def delay_s(self, prompt_chars: int, reply_chars: int) -> float:
        ms = (
            self.fixed_ms
            + self.prompt_ms_per_kchar * prompt_chars / 1000.0
            + self.reply_ms_per_kchar * reply_chars / 1000.0
        )
        return ms / 1000.0


class LatencyBackend(Backend):
    """Answers through ``inner``, then waits as long as ``model`` says the
    call would take against a live endpoint. No randomness: the same prompt
    always waits the same time."""

    def __init__(self, inner: Backend, model: LatencyModel, sleep=time.sleep):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.model = model
        self.sleep = sleep

    def complete(self, request: CompletionRequest) -> CompletionReply:
        reply = self.inner.complete(request)
        self.sleep(self.model.delay_s(len(request.prompt), len(reply.text)))
        return reply
