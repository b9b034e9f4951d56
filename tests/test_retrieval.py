"""Analog retrieval: correlation scoring, the window database, and ranking."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flairr.retrieval import (
    AnalogSegment,
    build_hist_db,
    format_analogs,
    pearson,
    retrieve,
)


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
    assert build_hist_db(np.arange(5.0), 4, 2).source_length == 5


def test_histdb_window_contents_and_bounds():
    db = build_hist_db(np.arange(10.0), 4, 2)
    start, ctx, out = db.window(3)
    assert start == 3
    assert ctx.tolist() == [3.0, 4.0, 5.0, 6.0]
    assert out.tolist() == [7.0, 8.0]
    assert [w[0] for w in db.windows()] == [0, 1, 2, 3, 4]
    with pytest.raises(IndexError):
        db.window(5)
    with pytest.raises(IndexError):
        db.window(-1)


def test_histdb_windows_are_read_only():
    db = build_hist_db(np.arange(10.0), 4, 2)
    _, ctx, _ = db.window(0)
    with pytest.raises(ValueError):
        ctx[0] = 99.0


def test_histdb_validation():
    with pytest.raises(ValueError):
        build_hist_db(np.ones((3, 3)), 2, 1)
    with pytest.raises(ValueError):
        build_hist_db(np.arange(10.0), 1, 1)
    with pytest.raises(ValueError):
        build_hist_db(np.arange(10.0), 2, 0)


def brute_force(db, query, count):
    scored = []
    for start, ctx, out in db.windows():
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
            assert got == brute_force(db, query, count)


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
    assert got == brute_force(db, query, count)
