"""Analog retrieval: find historical windows whose shape correlates with the
current context and surface their observed continuations.

The database indexes every stride-1 window of the history. Similarity is
Pearson correlation between the query context and each candidate window;
flat (zero-variance) vectors have no defined correlation and are excluded
rather than scored.

A query is scored against every window in one vectorized matrix-vector pass.
Only the windows whose approximate score lies inside a proven rounding-error
band of the k-th best (plus any the bound does not cover) are rescored with
the per-window arithmetic of :func:`pearson`, so the returned ``(start,
score)`` pairs are bit-identical to an exhaustive per-window scan.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .prompts import format_numbers

__all__ = [
    "AnalogSegment",
    "HistDB",
    "build_hist_db",
    "pearson",
    "retrieve",
    "format_analogs",
]

log = logging.getLogger(__name__)


def pearson(a, b) -> float | None:
    """Pearson correlation of two equal-length vectors, or None when either
    side has zero variance (the statistic is undefined there).

    The result is clipped to [-1, 1] so downstream ordering never sees a
    rounding excursion past the mathematical range.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.ndim != 1 or x.size < 2:
        raise ValueError("pearson needs 1-D vectors of length >= 2")
    cx = x - x.mean()
    cy = y - y.mean()
    ssx = float(np.dot(cx, cx))
    ssy = float(np.dot(cy, cy))
    if ssx == 0.0 or ssy == 0.0 or np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return None
    return _correlation(float(np.dot(cx, cy)), ssx, ssy)


def _correlation(num: float, ss_a: float, ss_b: float) -> float:
    """``num / sqrt(ss_a * ss_b)`` clipped to [-1, 1], for non-zero sums of
    squares. Where the product underflows to 0 the root is taken factor by
    factor instead; every other score keeps the plain formula's bits."""
    product = ss_a * ss_b
    if product == 0.0:
        r = num / (math.sqrt(ss_a) * math.sqrt(ss_b))
    else:
        r = num / math.sqrt(product)
    return min(1.0, max(-1.0, r))


@dataclass(frozen=True)
class AnalogSegment:
    """One retrieved match: where it started, its window, what followed it,
    and its similarity to the query."""

    start: int
    context: np.ndarray
    outcome: np.ndarray
    score: float


class HistDB:
    """Sliding-window index over a history vector.

    Window i covers ``history[i : i+L]`` and its outcome is the next H
    points, so the last indexable window starts at ``len(history) - L - H``.
    Centered contexts and their summed squares are precomputed once. The
    sums of squares are vectorized, so they serve only the approximate pass
    of :func:`retrieve` and the flat-window mask; the mask is still exact,
    because a sum of non-negative terms is zero in any order exactly when
    every term is.
    """

    def __init__(self, history, context_length: int, horizon: int):
        arr = np.asarray(history, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("history must be one-dimensional")
        if context_length < 2:
            raise ValueError(f"context_length must be >= 2, got {context_length}")
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        self._history = arr.copy()
        self._history.flags.writeable = False
        self.context_length = context_length
        self.horizon = horizon
        count = max(0, arr.size - context_length - horizon + 1)
        self._count = count
        if count:
            ctxs = sliding_window_view(self._history, context_length)[:count]
            means = ctxs.mean(axis=1)
            self._centered = ctxs - means[:, None]
            self._ssd = np.einsum("ij,ij->i", self._centered, self._centered)
            flat = np.ptp(ctxs, axis=1) == 0.0
            self._degenerate = flat | (self._ssd == 0.0)
        else:
            self._centered = np.empty((0, context_length))
            self._ssd = np.empty(0)
            self._degenerate = np.empty(0, dtype=bool)

    def __len__(self) -> int:
        return self._count

    @property
    def source_length(self) -> int:
        return int(self._history.size)

    def window(self, i: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(start, context, outcome) for window i; arrays are read-only views."""
        if not 0 <= i < self._count:
            raise IndexError(f"window index {i} out of range [0, {self._count})")
        L, H = self.context_length, self.horizon
        return i, self._history[i : i + L], self._history[i + L : i + L + H]

    def windows(self):
        for i in range(self._count):
            yield self.window(i)


def build_hist_db(history, context_length: int, horizon: int) -> HistDB:
    """Index every stride-1 window of ``history`` for retrieval."""
    return HistDB(history, context_length, horizon)


# Error band of the approximate pass. Both passes reduce the same stored
# centered row c and centered query q, in different orders. Any order of an
# L-term dot product, fused or not, lies within gamma_L * sum|c_j q_j| <=
# gamma_L * |c| |q| of the real value (Cauchy-Schwarz), where gamma_L =
# L*u / (1 - L*u) and u is the unit roundoff; a sum of squares lies within a
# relative gamma_L. With one more rounding each for the product, the square
# root and the division, either pass's score lies within 5 * gamma_L of the
# real correlation rho = c.q / (|c| |q|), and clipping to [-1, 1] only moves
# it closer, since |rho| <= 1. The approximate and the exact score of a
# window therefore differ by at most 10 * gamma_L, whatever the scale or the
# offset of the series. The bound assumes no overflow and negligible
# underflow: sums of squares inside [_SS_LO, _SS_HI] guarantee both (the
# underflow error is below 2**-600 relative, and every approximate score is
# finite), and the band takes 16 * gamma_L to cover that with room to spare.
# Windows outside the range are rescored.
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
_SS_LO, _SS_HI = 2.0**-400, 2.0**400


def _score_band(length: int) -> float:
    """Bound on |approximate score - exact score| for windows of ``length``."""
    lu = length * _UNIT_ROUNDOFF
    return 16.0 * lu / (1.0 - lu)


def retrieve(db: HistDB, context, count: int) -> list[AnalogSegment]:
    """The ``count`` most-correlated windows, best first; ties on score break
    toward the earlier start index. A flat query matches nothing (correlation
    is undefined against every candidate) and returns an empty list.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    query = np.asarray(context, dtype=np.float64)
    if query.shape != (db.context_length,):
        raise ValueError(
            f"query length {query.size} != database window length {db.context_length}"
        )
    if count == 0 or len(db) == 0:
        return []
    cq = query - query.mean()
    ssq = float(np.dot(cq, cq))
    if ssq == 0.0 or np.ptp(query) == 0.0:
        log.warning("flat query context: correlation undefined, returning no analogs")
        return []

    usable = ~db._degenerate
    # einsum, not `@`: a BLAS matrix-vector product this size runs on several
    # threads, and on a busy 2-CPU host it was seen to wait ~8 ms for a core
    # against a steady ~1.3 ms single-threaded.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        approx = np.einsum("ij,j->i", db._centered, cq) / np.sqrt(db._ssd * ssq)
    trusted = usable & (db._ssd >= _SS_LO) & (db._ssd <= _SS_HI)
    if not _SS_LO <= ssq <= _SS_HI:
        trusted[:] = False
    trusted_scores = approx[trusted]
    if count < trusted_scores.size:
        # The `count` trusted windows at or above the k-th approximate score
        # all score exactly >= kth - band, so a trusted window below
        # kth - 2 * band cannot reach the top `count`.
        pos = trusted_scores.size - count
        kth = np.partition(trusted_scores, pos)[pos]
        cutoff = kth - 2.0 * _score_band(db.context_length)
        candidates = np.flatnonzero(usable & (~trusted | (approx >= cutoff)))
    else:
        candidates = np.flatnonzero(usable)

    scored: list[tuple[float, int]] = []
    for i in candidates.tolist():
        row = db._centered[i]
        score = _correlation(float(np.dot(row, cq)), float(np.dot(row, row)), ssq)
        scored.append((score, i))

    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    out = []
    L, H = db.context_length, db.horizon
    for score, i in scored[:count]:
        out.append(
            AnalogSegment(
                start=i,
                context=db._history[i : i + L],
                outcome=db._history[i + L : i + L + H],
                score=score,
            )
        )
    return out


def format_analogs(segments: list[AnalogSegment], precision: int = 4) -> str:
    """Render retrieved segments as a prompt block; empty input yields ''."""
    if not segments:
        return ""
    blocks = []
    for rank, seg in enumerate(segments, start=1):
        score = format_numbers([seg.score], precision)
        blocks.append(
            f"Segment {rank} (similarity {score}):\n"
            f"context: {format_numbers(seg.context, precision)}\n"
            f"outcome: {format_numbers(seg.outcome, precision)}"
        )
    return "\n\n".join(blocks)
