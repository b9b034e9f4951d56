"""Deterministic fixtures for offline runs: synthetic series generation, a
self-contained oracle backend that plays all three agent roles, and helpers
that build grammar-true reply strings.

The oracle forecaster reads the history straight out of the rendered prompt,
extrapolates it linearly, and adds seeded Gaussian noise; the noise scale is
halved whenever the prompt carries the oracle's marker token, which its
refiner starts recommending from the second iteration. That gives refinement
a real, measurable payoff without any network or model.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

from .backends import Backend, CompletionReply, CompletionRequest
from .errors import BackendError
from .prompts import format_numbers

__all__ = [
    "MARKER_TOKEN",
    "seasonal_series",
    "SyntheticOracleBackend",
    "forecast_reply",
    "refiner_reply",
    "instructions_reply",
]

MARKER_TOKEN = "NOISE-DAMPER"

_HISTORY_RE = re.compile(r"Historical Data: ([^\n]+)")
_HORIZON_RE = re.compile(r"next (\d+) steps")
_ITERATION_RE = re.compile(r"for this Iteration (\d+)")


def seasonal_series(
    n: int,
    period: int = 24,
    trend: float = 0.0,
    amplitude: float = 1.0,
    noise: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Trend + sinusoid + optional Gaussian jitter, seeded."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    values = trend * t + amplitude * np.sin(2.0 * np.pi * t / period)
    if noise:
        values = values + noise * rng.standard_normal(n)
    return values


def forecast_reply(
    values,
    reasoning: str = "synthetic forecast",
    certainty: float | None = 80.0,
    precision: int = 6,
) -> str:
    """A reply string that satisfies the forecaster output grammar."""
    lines = [f"Predicted Values: [{format_numbers(values, precision)}]"]
    lines.append(f"Reasoning: {reasoning}")
    if certainty is not None:
        lines.append(f"Certainty Estimate: {certainty:g}%")
        lines.append("Certainty Reasoning: fixture-generated reply")
    return "\n".join(lines)


def refiner_reply(
    learnings: str,
    done: bool,
    confidence: str = "Medium",
    rationale: str = "fixture rationale",
) -> str:
    """A reply string that satisfies the refiner output grammar."""
    return (
        f"Learnings: {learnings}\n\n"
        f"Done: {'True' if done else 'False'}\n\n"
        f"Confidence in output: {confidence} - {rationale}"
    )


def instructions_reply(items) -> str:
    """A reply string for the synthesis step: bullet items under the cue."""
    bullets = "\n".join(f"- {item}" for item in items)
    return f"Refined Prompt Forecasting Instructions:\n{bullets}"


class SyntheticOracleBackend(Backend):
    """Plays forecaster, refiner, and synthesis deterministically.

    Forecaster: linear least-squares extrapolation of the history embedded
    in the prompt, plus Gaussian noise keyed on (backend seed, request seed,
    prompt) so identical requests always get identical replies; the noise
    scale halves when the prompt contains :data:`MARKER_TOKEN`.

    Refiner: never answers Done; from the second displayed iteration onward
    its learnings recommend the marker protocol.

    Synthesis: echoes marker instructions whenever the learnings mention the
    marker, otherwise emits a generic trend instruction.
    """

    backend_id = "synthetic-oracle"

    def __init__(self, seed: int = 0, noise_scale: float = 0.4):
        self.seed = seed
        self.noise_scale = noise_scale

    def _rng(self, request: CompletionRequest) -> np.random.Generator:
        key_material = f"{self.seed}|{request.seed}|{request.prompt}".encode("utf-8")
        key = int.from_bytes(hashlib.sha256(key_material).digest()[:8], "big")
        return np.random.default_rng(key)

    def _forecast(self, request: CompletionRequest) -> str:
        hist_match = _HISTORY_RE.search(request.prompt)
        horizon_match = _HORIZON_RE.search(request.prompt)
        if not hist_match or not horizon_match:
            raise BackendError(
                "oracle forecaster could not find history or horizon in prompt"
            )
        history = np.array(
            [float(tok) for tok in hist_match.group(1).split(",")], dtype=np.float64
        )
        horizon = int(horizon_match.group(1))
        x = np.arange(history.size, dtype=np.float64)
        slope, intercept = np.polyfit(x, history, 1)
        future_x = np.arange(history.size, history.size + horizon, dtype=np.float64)
        base = slope * future_x + intercept
        scale = self.noise_scale
        if MARKER_TOKEN in request.prompt:
            scale *= 0.5
        values = base + scale * self._rng(request).standard_normal(horizon)
        return forecast_reply(
            values,
            reasoning="linear extrapolation of the provided history",
            certainty=80.0,
        )

    def _refine(self, request: CompletionRequest) -> str:
        match = _ITERATION_RE.search(request.prompt)
        if not match:
            raise BackendError("oracle refiner could not find the iteration number")
        if int(match.group(1)) < 2:
            learnings = (
                "Predictions wobble around the underlying trend; steady them "
                "against recent values."
            )
        else:
            learnings = (
                f"Predictions remain noisy; apply the {MARKER_TOKEN} protocol "
                "to stabilize the estimate around the trend line."
            )
        return refiner_reply(learnings, done=False)

    def _synthesize(self, request: CompletionRequest) -> str:
        if MARKER_TOKEN in request.prompt:
            items = [
                f"Steady the estimate using the {MARKER_TOKEN} protocol.",
                "Keep predictions close to the recent trend.",
            ]
        else:
            items = ["Keep predictions close to the recent trend."]
        return instructions_reply(items)

    def complete(self, request: CompletionRequest) -> CompletionReply:
        if request.tag == "forecaster":
            text = self._forecast(request)
        elif request.tag == "refiner":
            text = self._refine(request)
        elif request.tag == "synthesis":
            text = self._synthesize(request)
        else:  # pragma: no cover - CompletionRequest already validates tags
            raise BackendError(f"oracle cannot serve tag {request.tag!r}")
        return CompletionReply(text=text)
