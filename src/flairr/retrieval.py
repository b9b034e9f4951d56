"""Analog retrieval: find historical windows whose shape correlates with the
current context and surface their observed continuations.

The database indexes every stride-1 window of the history. Similarity is
Pearson correlation between the query context and each candidate window;
flat (zero-variance) vectors have no defined correlation and are excluded
rather than scored.

The index never copies the windows: it keeps the history, a once-shifted copy
of it and a few numbers per window, so its memory is O(n) whatever the
context length. It takes each window's sum and sum of squares from running
sums that restart every L points, so building it is O(n) time too, and each
sum's rounding error is bounded by the two blocks of L points the window
touches rather than by the whole history. A query is scored against every
window in one sliding-dot-product pass over a strided view of the shifted
history (the formulation of MASS and the Matrix Profile). Only the windows
whose approximate score lies inside a proven per-window rounding-error band
of the k-th best (plus any the bound does not cover) are rescored with the
arithmetic of :func:`pearson`, so the returned ``(start, score)`` pairs are
bit-identical to an exhaustive per-window scan.

Scores stay defined at any magnitude whose window sums are finite: where a
sum of squares, or the product of two, underflows or overflows, the
correlation is taken without forming it, and every score of a series in the
ordinary range keeps its bits.
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
    cx, ssx = _center(x)
    cy, ssy = _center(y)
    if ssx == 0.0 or ssy == 0.0 or _flat(x) or _flat(y):
        return None
    return _correlation(float(np.dot(cx, cy)), ssx, ssy)


def _flat(v: np.ndarray) -> bool:
    """``np.ptp(v) == 0`` at a third of its cost: every element equals the
    first, and that one is finite (an infinite or NaN range is not zero)."""
    return not (v != v[0]).any() and math.isfinite(v[0])


def _center(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``v`` minus its mean, and that vector's sum of squares. Where the sum
    of squares overflows, the centered vector is scaled by a power of two
    first, which leaves every correlation it enters unchanged."""
    c = v - v.mean()
    # np.vdot gives np.dot's bits here (the same BLAS ddot) but does not warn
    # about the overflow handled below, and costs far less than np.errstate.
    ss = float(np.vdot(c, c))
    if ss == math.inf:
        c = np.ldexp(c, -math.frexp(float(np.max(np.abs(c))))[1])
        ss = float(np.vdot(c, c))
    return c, ss


def _correlation(num: float, ss_a: float, ss_b: float) -> float:
    """``num / sqrt(ss_a * ss_b)`` clipped to [-1, 1], for non-zero sums of
    squares. Where the product underflows to 0 or overflows, the root is
    taken factor by factor instead; every other score keeps the plain
    formula's bits."""
    product = ss_a * ss_b
    if product == 0.0 or product == math.inf:
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
    points, so the last indexable window starts at ``len(history) - L - H``;
    ``len(db)`` counts the windows, and :func:`retrieve` is the only reader.
    Nothing of size windows x L is stored. The index keeps the read-only
    history, the history shifted once by its mean, and per window: the mean
    and the sum of squared deviations of the shifted window (from blocked
    running sums, see :func:`_window_sums`), whether the error bound of
    :func:`retrieve`'s approximate pass holds for it, its error band, and
    whether it is flat. The flat mask is exact: it counts the changes
    between neighbouring values, so it equals ``np.ptp(window) == 0``.
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
        self.context_length = L = context_length
        self.horizon = horizon
        count = max(0, arr.size - context_length - horizon + 1)
        self._count = count
        changes = np.concatenate(([0], np.cumsum(np.diff(self._history) != 0)))
        self._flat = changes[L - 1 : L - 1 + count] == changes[:count]
        g = _gamma(L)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shift = float(arr.mean()) if arr.size else 0.0
            self._shifted = arr - shift
            self._shifted.flags.writeable = False
            sums, sumsq, energy = _window_sums(self._shifted, L, count)
            self._means = sums / L
            self._ssd = sumsq - sums * self._means
            spread = energy / self._ssd
            spread_x = spread + L * (shift * shift) / self._ssd
            self._trusted = (
                ~self._flat
                & (energy <= _SS_HI)
                & (self._ssd >= _SS_LO)
                & (spread_x <= 2.0**-16 / g)
            )
            self._band = 32.0 * g * spread
            self._band_beta = 32.0 * g * np.sqrt(spread_x)

    def __len__(self) -> int:
        return self._count


def build_hist_db(history, context_length: int, horizon: int) -> HistDB:
    """Index every stride-1 window of ``history`` for retrieval."""
    return HistDB(history, context_length, horizon)


def _window_sums(y: np.ndarray, length: int, count: int):
    """Per window ``y[i : i+length]``, ``i < count``: its sum, its sum of
    squares, and the sum of squares of the two blocks it touches.

    Block a is ``y[a*length : (a+1)*length]``, zero-padded at the end. The
    running sums of ``y`` and of its squares restart at every block, so
    window ``i = a*length + r`` is ``(total[a] - prefix[a, r]) + prefix[a+1,
    r]``: three slices of the running sums, whose rounding error depends on
    those two blocks alone. O(n) time, whatever ``length``.
    """
    blocks = (count - 1) // length + 2
    padded = np.zeros(blocks * length)
    m = min(y.size, padded.size)
    padded[:m] = y[:m]
    padded = padded.reshape(blocks, length)
    prefix = np.zeros((2, blocks, length + 1))  # of y and of y*y, zero-led
    np.cumsum(padded, axis=1, out=prefix[0, :, 1:])
    np.cumsum(padded * padded, axis=1, out=prefix[1, :, 1:])
    total, head, tail = prefix[:, :-1, length:], prefix[:, :-1, :length], prefix[:, 1:, :length]
    sums, sumsq = ((total - head) + tail).reshape(2, -1)[:, :count]
    block_energy = prefix[1, :, length]
    energy = np.repeat(block_energy[:-1] + block_energy[1:], length)[:count]
    return sums, sumsq, energy


# Error band of the approximate pass.
#
# Notation, for one window of length L: x is its slice of the history, c =
# x - mean(x) in real arithmetic and C = |c|^2; y is its slice of the shifted
# history, y_j = fl(x_j - shift); q is the centered query as computed (both
# passes share its bits, and those of ssq = fl(q.q)) and sigma = sum(q);
# u is the unit roundoff and g = L*u / (1 - L*u), which bounds the relative
# error of an L-term sum or dot product in any order, fused or not. Both
# scores are compared with rho = c.q / (|c| |q|).
#
# Exact pass (pearson's arithmetic). The computed mean of x is off by dm,
# |dm| <= g |x|_1 / L, so the computed centered row is c + dm*1 + e with
# |e_j| <= u |c_j + dm|. As c is orthogonal to 1, its dot product with q is
# c.q + dm*sigma + e.q, and its squared norm (C + L dm^2)(1 +- u)^2. With
# kappa = L dm^2 / C <= (g |x| / |c|)^2 and beta = |sigma| / (sqrt(L) |q|)
# <= 1, the dot product, the sums of squares and the roundings of the
# product, the root and the quotient put the score within
# 4.7 g + 1.03 beta sqrt(kappa) + 0.53 kappa of rho.
#
# Approximate pass. y = x - shift + w with |w| <= u |y| / (1 - u), so the
# real centered y differs from c by at most |w|. The index takes the sum and
# the sum of squares of y from running sums that restart every L points
# (_window_sums): window i = a*L + r is (total[a] - prefix[a, r]) +
# prefix[a+1, r]. Every partial sum there runs over at most L terms of block
# a or of block a+1, so with A the L1 norm of y over those two blocks and W
# the computed sum of squares of the shifted values in them (W >= |y|^2 (1 -
# 1.5 g), and A <= sqrt(2 L W) (1 + g)), the window's computed sum lies
# within 2.01 g A of sum(y), and its computed sum of squares within 2.6 g W
# of |y|^2 (2.01 g for the sums, u for the squaring). Its numerator y.q -
# mean(y) sigma then lies within 6.9 g sqrt(W) |q| of c.q, and its sum of
# squares sum(y^2) - sum(y) mean(y) within 11 g W of C. With R^2 = W / C
# (R^2 >= 1 - 3 g) and the same roundings, its score lies within 14.2 g R^2
# of rho: cancellation in the sum of squares costs a factor R^2. A running
# sum over the whole history would tie the error to the history's norm
# instead, and a quiet window far from the start would lose its trust.
#
# Trust. Let t = W / ssd and t_x = t + L shift^2 / ssd, computed from the
# window's sums (ssd its computed sum of squares). A window is trusted when
# g t_x <= 2**-16. Then R^2 < 1.0002 t, |x|^2 / C < 2.001 t_x, and kappa, a
# product of two roundings, is below 2**-15 g. The two scores of a trusted
# window therefore differ by at most g (19 t + 1.5 beta sqrt(t_x)); the band
# takes 32 g (t + beta sqrt(t_x)), whose margin also covers the roundings of
# beta and of the band itself.
# Clipping to [-1, 1] only moves a score toward rho, as |rho| <= 1. The
# bound assumes no overflow and negligible underflow: W <= _SS_HI, ssd >=
# _SS_LO and ssq inside [_SS_LO, _SS_HI] guarantee both (the underflow
# error is below 2**-600 relative, and every intermediate stays finite).
# Windows outside that range, or with g t_x > 2**-16, are rescored.
_UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0
_SS_LO, _SS_HI = 2.0**-400, 2.0**400


def _gamma(length: int) -> float:
    """Relative error bound of a ``length``-term sum or dot product."""
    lu = length * _UNIT_ROUNDOFF
    return lu / (1.0 - lu)


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
    cq, ssq = _center(query)
    if ssq == 0.0 or _flat(query):
        log.warning("flat query context: correlation undefined, returning no analogs")
        return []

    L, H = db.context_length, db.horizon
    usable = ~db._flat
    trusted = db._trusted
    if _SS_LO <= ssq <= _SS_HI and count < np.count_nonzero(trusted):
        # einsum, not `@`: a BLAS matrix-vector product would first copy the
        # overlapping strided view into a dense windows x L matrix.
        view = sliding_window_view(db._shifted, L)[: len(db)]
        sigma = float(cq.sum())
        beta = (abs(sigma) + _gamma(L) * float(np.abs(cq).sum())) / math.sqrt(L * ssq)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            approx = (np.einsum("ij,j->i", view, cq) - db._means * sigma) / np.sqrt(
                db._ssd * ssq
            )
            band = db._band + beta * db._band_beta
            # At least `count` trusted windows score exactly >= the `count`-th
            # largest lower bound, so a trusted window whose upper bound is
            # below it cannot reach the top `count`.
            lows = (approx - band)[trusted]
            pos = lows.size - count
            floor = np.partition(lows, pos)[pos]
            candidates = np.flatnonzero(usable & (~trusted | (approx + band >= floor)))
    else:
        candidates = np.flatnonzero(usable)

    scored: list[tuple[float, int]] = []
    for i in candidates.tolist():
        row, ss = _center(db._history[i : i + L])
        if ss == 0.0:  # every deviation squares to 0: pearson() is undefined
            continue
        scored.append((_correlation(float(np.dot(row, cq)), ss, ssq), i))

    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [
        AnalogSegment(
            start=i,
            context=db._history[i : i + L],
            outcome=db._history[i + L : i + L + H],
            score=score,
        )
        for score, i in scored[:count]
    ]


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
