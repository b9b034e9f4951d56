"""Analog retrieval: correlation scoring, the window database, and ranking."""

from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flairr.retrieval import (
    AnalogSegment,
    _flat,
    _gamma,
    _window_sums,
    build_hist_db,
    format_analogs,
    pearson,
    retrieve,
)
from flairr.testing import seasonal_series


def test_pearson_agrees_with_corrcoef():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 64))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        want = float(np.corrcoef(a, b)[0, 1])
        got = pearson(a, b)
        assert got is not None
        assert abs(got - want) <= 1e-12


def test_pearson_exact_on_dyadic_affine_pairs():
    # Integer data, power-of-two length and slopes: every intermediate value
    # is exactly representable, so the correlation is exactly +/-1.0.
    rng = np.random.default_rng(11)
    a = rng.integers(-100, 100, size=16).astype(np.float64)
    a[0] += 1 if a[0] == a[1] else 0  # keep it non-constant
    assert pearson(a, 2.0 * a + 3.0) == 1.0
    assert pearson(a, -0.5 * a + 1.0) == -1.0


def test_pearson_is_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        assert pearson(a, b) == pearson(b, a)


def test_pearson_undefined_for_flat_input():
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert pearson([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) is None
    assert pearson([2.0, 2.0], [2.0, 2.0]) is None


def test_pearson_input_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="length >= 2"):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson(np.ones((2, 2)), np.ones((2, 2)))


def test_pearson_clipped_to_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.normal(size=8) * rng.uniform(0.001, 1000)
        r = pearson(a, a * rng.uniform(0.5, 2.0))
        assert r is not None and -1.0 <= r <= 1.0


def test_histdb_window_count():
    assert len(build_hist_db(np.arange(10.0), 4, 2)) == 5  # 10 - 4 - 2 + 1
    assert len(build_hist_db(np.arange(6.0), 4, 2)) == 1
    assert len(build_hist_db(np.arange(5.0), 4, 2)) == 0


def history_windows(history, L, H):
    """(start, context, outcome) of every window an index over ``history``
    holds, cut from the history itself."""
    history = np.asarray(history, dtype=np.float64)
    return [
        (i, history[i : i + L], history[i + L : i + L + H])
        for i in range(history.size - L - H + 1)
    ]


def test_histdb_window_contents_and_bounds():
    # the index holds exactly the windows of its history, read via retrieve
    history = np.random.default_rng(7).normal(size=10).cumsum()
    db = build_hist_db(history, 4, 2)
    segs = sorted(retrieve(db, history[-4:], 100), key=lambda s: s.start)
    want = history_windows(history, 4, 2)
    assert [s.start for s in segs] == [start for start, _, _ in want] == [0, 1, 2, 3, 4]
    for seg, (_, ctx, out) in zip(segs, want):
        assert seg.context.tolist() == ctx.tolist()
        assert seg.outcome.tolist() == out.tolist()


def test_histdb_windows_are_read_only():
    db = build_hist_db(np.arange(10.0) ** 1.5, 4, 2)
    seg = retrieve(db, np.arange(4.0), 1)[0]
    with pytest.raises(ValueError):
        seg.context[0] = 99.0
    with pytest.raises(ValueError):
        seg.outcome[0] = 99.0


def test_histdb_validation():
    with pytest.raises(ValueError):
        build_hist_db(np.ones((3, 3)), 2, 1)
    with pytest.raises(ValueError):
        build_hist_db(np.arange(10.0), 1, 1)
    with pytest.raises(ValueError):
        build_hist_db(np.arange(10.0), 2, 0)


def brute_force(history, L, H, query, count):
    scored = []
    for start, ctx, _ in history_windows(history, L, H):
        r = pearson(ctx, query)
        if r is None:
            continue
        scored.append((start, r))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:count]


def test_retrieve_matches_brute_force_scan():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(40, 300))
        L = int(rng.integers(2, 16))
        H = int(rng.integers(1, 8))
        history = rng.normal(size=n).cumsum()
        db = build_hist_db(history, L, H)
        query = rng.normal(size=L).cumsum()
        for count in (1, 3, 7):
            got = [(s.start, s.score) for s in retrieve(db, query, count)]
            assert got == brute_force(history, L, H, query, count)


@pytest.mark.parametrize(
    "n, L, H, kind",
    [(2_000, 7, 3, "walk"), (3_000, 24, 8, "seasonal"), (4_000, 96, 24, "walk")],
)
def test_retrieve_matches_brute_force_on_long_histories(n, L, H, kind):
    # many blocks of L points, so most windows straddle a block edge
    rng = np.random.default_rng(n)
    if kind == "walk":
        history = 1e3 + rng.normal(size=n).cumsum()
    else:
        history = seasonal_series(n, period=L, trend=0.001, noise=0.3, seed=n)
    db = build_hist_db(history[: n - L], L, H)
    assert db._trusted.all()  # every window goes through the approximate pass
    for query in (history[-L:], rng.normal(size=L).cumsum()):
        for count in (1, 5):
            got = [(s.start, s.score) for s in retrieve(db, query, count)]
            assert got == brute_force(history[: n - L], L, H, query, count)


def test_every_non_flat_window_of_a_long_history_is_trusted():
    # the error of a window's sums depends on the two blocks it touches, not
    # on how far into the history it lies
    for values, L in (
        (seasonal_series(10_000), 336),
        (np.random.default_rng(3).normal(size=100_000).cumsum(), 96),
    ):
        db = build_hist_db(values, L, 24)
        assert np.array_equal(db._trusted, ~db._flat)


@pytest.mark.parametrize("scale", [1e-100, 1e-160])
@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_retrieve_matches_brute_force_when_sums_of_squares_underflow(scale, noise):
    # the product of the two sums of squares underflows to 0 at these scales
    values = scale * seasonal_series(300, period=24, noise=noise, seed=1)
    L = 16
    db = build_hist_db(values[: values.size - L], L, 8)
    query = values[-L:]
    for count in (1, 3, len(db)):
        got = [(s.start, s.score) for s in retrieve(db, query, count)]
        assert got == brute_force(values[: values.size - L], L, 8, query, count)
        assert got and all(-1.0 <= score <= 1.0 for _, score in got)


def test_pearson_defined_when_the_product_of_sums_of_squares_underflows():
    r = pearson(1e-150 * np.array([1.0, 3, 2, 5]), 1e-15 * np.array([1.0, 3, 2, 4]))
    assert r == pytest.approx(pearson([1.0, 3, 2, 5], [1.0, 3, 2, 4]), rel=1e-12)


@pytest.mark.parametrize("scale", [1e77, 1e150, 1e160])
def test_pearson_defined_when_sums_of_squares_overflow(scale):
    # 1e77: the product of the sums of squares overflows; 1e160: each does
    a = np.array([1.0, 3, 2, 5])
    b = np.array([1.0, 3, 2, 4])
    want = pearson(a, b)
    assert pearson(scale * a, scale * b) == pytest.approx(want, rel=1e-12)
    assert pearson(scale * a, b) == pytest.approx(want, rel=1e-12)
    assert pearson(a, scale * b) == pytest.approx(want, rel=1e-12)
    assert pearson(2.0**600 * a, b) == want  # power-of-two scaling keeps the bits


@pytest.mark.parametrize("scale", [1e77, 1e150, 1e160])
@pytest.mark.parametrize("noise", [0.0, 0.1])
def test_retrieve_matches_brute_force_when_sums_of_squares_overflow(scale, noise):
    base = seasonal_series(200, noise=noise)
    values = scale * base
    L = 16
    db = build_hist_db(values[: values.size - L], L, 8)
    query = values[-L:]
    for count in (1, 3, len(db)):
        got = [(s.start, s.score) for s in retrieve(db, query, count)]
        assert got == brute_force(values[: values.size - L], L, 8, query, count)
    unscaled = retrieve(build_hist_db(base[: base.size - L], L, 8), base[-L:], 3)
    top = retrieve(db, query, 3)
    assert [s.score for s in top] == pytest.approx([s.score for s in unscaled], rel=1e-12)


def test_index_memory_is_linear_in_the_series():
    # a dense windows x L float64 matrix would take ~100 MB here
    values = seasonal_series(50_000, period=24, trend=0.0005, noise=0.2, seed=4)
    L = 256
    tracemalloc.start()
    try:
        db = build_hist_db(values[: values.size - L], L, 24)
        segs = retrieve(db, values[-L:], 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(segs) == 2
    assert peak < 20e6
    assert all(np.ndim(value) <= 1 for value in vars(db).values())


def test_flat_mask_equals_ptp_on_flat_and_near_flat_runs():
    rng = np.random.default_rng(29)
    values = rng.normal(size=400).cumsum()
    values[50:90] = values[50]  # flat
    values[150:170] = values[150]  # flat but for one ULP in the middle
    values[160] = np.nextafter(values[160], np.inf)
    values[300:340] = 7.0  # flat but for one ULP at the end
    values[339] = np.nextafter(7.0, -np.inf)
    values[200:208] = -0.0  # signed zeros compare equal
    values[203] = 0.0
    for L in (2, 3, 8, 16, 40):
        db = build_hist_db(values, L, 1)
        want = np.array([np.ptp(ctx) == 0.0 for _, ctx, _ in history_windows(values, L, 1)])
        assert want.any() and not want.all()
        assert np.array_equal(db._flat, want)


_edge_values = st.sampled_from(
    [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), 5e-324, 1e308, np.inf, -np.inf, np.nan]
)


@settings(max_examples=400, deadline=None)
@given(
    first=st.one_of(_edge_values, st.floats()),
    rest=st.lists(st.one_of(st.just(None), _edge_values, st.floats()), min_size=1, max_size=6),
)
@example(first=np.inf, rest=[None])  # ptp is NaN: not flat
@example(first=-0.0, rest=[0.0, None])
@example(first=np.nan, rest=[None, None])
def test_flat_equals_ptp_is_zero(first, rest):
    # None repeats the first value, so flat and near-flat vectors are common
    v = np.array([first] + [first if x is None else x for x in rest], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        want = bool(np.ptp(v) == 0.0)
    assert _flat(v) == want


def test_retrieve_planted_copy_scores_exactly_one():
    rng = np.random.default_rng(23)
    history = rng.normal(size=400).cumsum()
    L, H = 24, 8
    source = 310
    history[40:40 + L] = history[source:source + L]  # plant an exact copy
    db = build_hist_db(history, L, H)
    segs = retrieve(db, history[source:source + L], 3)
    assert segs[0].score == 1.0
    assert segs[0].start in (40, source)
    assert segs[1].score == 1.0  # the copy and the original both match


def test_retrieve_breaks_score_ties_toward_earlier_start():
    pattern = np.array([0.0, 1.0, 2.0, 3.0])
    history = np.tile(pattern, 6)  # identical windows at starts 0, 4, 8, ...
    db = build_hist_db(history, 4, 2)
    segs = retrieve(db, pattern, 3)
    assert [s.start for s in segs] == [0, 4, 8]
    assert all(s.score == 1.0 for s in segs)


def test_retrieve_flat_query_returns_nothing_and_warns(caplog):
    db = build_hist_db(np.arange(20.0), 4, 2)
    with caplog.at_level(logging.WARNING, logger="flairr.retrieval"):
        assert retrieve(db, np.full(4, 7.0), 2) == []
    assert any("flat query" in rec.message for rec in caplog.records)


def test_retrieve_excludes_flat_windows():
    history = np.concatenate([np.full(8, 2.0), np.arange(8.0)])
    db = build_hist_db(history, 4, 1)
    segs = retrieve(db, np.array([1.0, 2.0, 3.0, 4.0]), 100)
    assert segs  # the sloped region still matches
    assert all(s.start >= 5 for s in segs)  # windows inside the flat run don't


def test_retrieve_count_edge_cases():
    db = build_hist_db(np.arange(30.0) ** 1.5, 4, 2)
    assert retrieve(db, np.arange(4.0), 0) == []
    with pytest.raises(ValueError, match="non-negative"):
        retrieve(db, np.arange(4.0), -1)
    with pytest.raises(ValueError, match="query length"):
        retrieve(db, np.arange(5.0), 2)
    everything = retrieve(db, np.arange(4.0), 10_000)
    assert len(everything) == len(db)
    scores = [s.score for s in everything]
    assert scores == sorted(scores, reverse=True)


def test_retrieve_outcome_follows_context():
    history = np.arange(50.0)
    db = build_hist_db(history, 4, 3)
    seg = retrieve(db, np.array([10.0, 11.0, 12.0, 13.0]), 1)[0]
    assert seg.outcome.tolist() == [
        seg.start + 4.0,
        seg.start + 5.0,
        seg.start + 6.0,
    ]


def test_format_analogs_layout():
    segs = [
        AnalogSegment(
            start=3,
            context=np.array([1.0, 2.0]),
            outcome=np.array([3.0]),
            score=0.95,
        ),
        AnalogSegment(
            start=9,
            context=np.array([4.5, 5.5]),
            outcome=np.array([6.5]),
            score=0.5,
        ),
    ]
    text = format_analogs(segs, precision=4)
    assert text == (
        "Segment 1 (similarity 0.9500):\n"
        "context: 1.0000, 2.0000\n"
        "outcome: 3.0000\n"
        "\n"
        "Segment 2 (similarity 0.5000):\n"
        "context: 4.5000, 5.5000\n"
        "outcome: 6.5000"
    )
    assert format_analogs([]) == ""


# Magnitudes keep every window-by-query product of sums of squares non-zero,
# where pearson() is defined. Scales 1e-60 and 1e60 put near-flat windows and
# whole series outside the range the approximate pass trusts. At 1e-80 that
# product is subnormal, where the two passes can differ by far more than the
# rounding band (near-flat windows are left out there: theirs underflows to 0).
@st.composite
def retrieval_cases(draw):
    L = draw(st.one_of(st.integers(2, 4), st.integers(2, 24)))
    H = draw(st.integers(1, 6))
    steps = draw(st.lists(st.integers(-1000, 1000), min_size=L + H, max_size=240))
    scale = draw(st.sampled_from([1e-80, 1e-60, 1e-30, 1e-9, 1.0, 1e30, 1e60]))
    offset = draw(st.sampled_from([0.0, -3.5, 1e6, 1e9]))  # in units of the steps
    history = scale * (offset + np.cumsum(np.asarray(steps, dtype=np.float64)))
    n = history.size

    for _ in range(draw(st.integers(0, 2))):  # flat and near-flat runs
        run = draw(st.integers(L, 2 * L))
        at = draw(st.integers(0, max(0, n - run)))
        history[at : at + run] = history[at]
        if scale > 1e-80 and draw(st.booleans()):
            bump = draw(st.integers(at, min(n, at + run) - 1))
            history[bump] = np.nextafter(history[bump], np.inf)
    for _ in range(draw(st.integers(0, 3))):  # planted repeats: exact ties
        src = draw(st.integers(0, n - L))
        dst = draw(st.integers(0, n - L))
        factor = draw(st.sampled_from([1.0, 2.0, 4.0]))  # never shrinks a step
        history[dst : dst + L] = history[src : src + L] * factor

    if draw(st.booleans()):
        at = draw(st.integers(0, n - L))
        query = history[at : at + L].copy()
    else:
        qsteps = draw(st.lists(st.integers(-1000, 1000), min_size=L, max_size=L))
        query = scale * (offset + np.cumsum(np.asarray(qsteps, dtype=np.float64)))
    windows = n - L - H + 1
    count = draw(st.one_of(st.integers(1, 5), st.integers(1, windows + 3)))
    return history, L, H, query, count


@settings(max_examples=300, deadline=None)
@given(retrieval_cases())
# Every rising window correlates exactly 1.0 with this query, but a subnormal
# product of sums of squares puts start 1 below start 3 in the approximate pass.
@example(
    (1e-80 * np.array([6.0, -9, 6, -1, 0, 2, -4, 9]), 2, 1, 1e-80 * np.array([-8.0, -4]), 1)
)
def test_retrieve_equals_exhaustive_scan_for_arbitrary_series(case):
    history, L, H, query, count = case
    db = build_hist_db(history, L, H)
    got = [(s.start, s.score) for s in retrieve(db, query, count)]
    assert got == brute_force(history, L, H, query, count)


@st.composite
def blocked_series(draw):
    """Random walks, noisy ramps and quiet stretches inside loud ones, offset
    by up to 1e9 and long enough to cross many blocks of L points."""
    L = draw(st.integers(2, 40))
    n = L * draw(st.integers(3, 60)) + draw(st.integers(0, L - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["walk", "ramp", "quiet"]))
    if kind == "walk":
        values = rng.normal(size=n).cumsum()
    elif kind == "ramp":
        values = draw(st.sampled_from([1e-3, 1.0, 1e3])) * np.arange(n) + rng.normal(size=n)
    else:
        values = 1e6 * rng.normal(size=n)
        at = draw(st.integers(0, n - 1))
        quiet = slice(at, at + draw(st.integers(1, 3 * L)))
        values[quiet] = 1e-6 * rng.normal(size=values[quiet].size)
    offset = draw(st.sampled_from([0.0, -7.5, 1e3, 1e6, 1e9]))
    return values + offset, L


def _exact_squares(v):
    """Three arrays whose entries sum exactly to the squares of ``v``
    (Veltkamp's split: each half has at most 26 significant bits)."""
    c = 134217729.0 * v
    hi = c - (c - v)
    lo = v - hi
    return hi * hi, 2.0 * hi * lo, lo * lo


@settings(max_examples=150, deadline=None)
@given(blocked_series())
def test_window_sums_lie_within_their_error_bounds(case):
    # The bounds the approximate pass is derived from (see the comment on
    # the error band in flairr.retrieval): with A the L1 norm and W the
    # computed sum of squares of the two blocks a window touches, its sum is
    # within 2.01 g A and its sum of squares within 2.6 g W of the exact
    # values, and W >= |y|^2 (1 - 1.5 g).
    history, L = case
    db = build_hist_db(history, L, 1)
    y = db._shifted
    sums, sumsq, energy = _window_sums(y, L, len(db))
    g = _gamma(L)
    u = np.finfo(np.float64).eps / 2
    parts = _exact_squares(y)
    for i in range(len(db)):
        window = slice(i, i + L)
        blocks = slice(i // L * L, (i // L + 2) * L)
        exact_sum = math.fsum(y[window])
        exact_sumsq = math.fsum(np.concatenate([p[window] for p in parts]))
        l1 = math.fsum(np.abs(y[blocks]))
        # fsum rounds the exact value once: u |value| more
        assert abs(sums[i] - exact_sum) <= 2.01 * g * l1 + u * abs(exact_sum)
        assert abs(sumsq[i] - exact_sumsq) <= 2.6 * g * energy[i] + u * exact_sumsq
        assert energy[i] >= exact_sumsq * (1 - 1.5 * g)
