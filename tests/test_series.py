"""Series core: CSV loading, scaling, splitting, windows, and MAE."""

from __future__ import annotations

import csv
import os
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flairr.errors import DataError
from flairr.series import (
    Scaler,
    WindowPair,
    _csv_cells,
    _decode,
    _parse_cell,
    _parse_column,
    _plain_cells,
    fit_scaler,
    invert_scaler,
    load_csv,
    mae,
    split,
    window_at,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_auto_detects_timestamp_column(tmp_path):
    p = write_csv(
        tmp_path / "data.csv",
        "date,HUFL,OT\n2016-07-01 00:00:00,5.827,30.531\n2016-07-01 01:00:00,5.693,27.787\n",
    )
    assert load_csv(p, target="OT").tolist() == [30.531, 27.787]


def test_load_csv_returns_a_read_only_array(tmp_path):
    p = write_csv(tmp_path / "data.csv", "a,b\n1,2\n3,4\n")
    values = load_csv(p, target="b")
    assert isinstance(values, np.ndarray) and values.dtype == np.float64
    with pytest.raises(ValueError):
        values[0] = 5.0


def test_load_csv_never_takes_the_target_as_timestamps(tmp_path):
    p = write_csv(tmp_path / "data.csv", "v\nabc\n1\n2\n")
    with pytest.raises(DataError, match=r"non-numeric cell 'abc' at row 1, column 'v'"):
        load_csv(p, target="v")
    p = write_csv(tmp_path / "stamped.csv", "v,w\n2020,1\n2021,2\n")
    with pytest.raises(DataError, match=r"^timestamp column 'v' is the target column$"):
        load_csv(p, target="v", timestamp_column="v")


def test_load_csv_numeric_first_column_is_data(tmp_path):
    p = write_csv(tmp_path / "data.csv", "a,b\n1,2\n3,4\n")
    assert load_csv(p, target="a").tolist() == [1.0, 3.0]


def test_load_csv_explicit_timestamp_column(tmp_path):
    p = write_csv(tmp_path / "data.csv", "idx,v\n10,1.5\n20,2.5\n")
    assert load_csv(p, target="v", timestamp_column="idx").tolist() == [1.5, 2.5]
    p = write_csv(tmp_path / "text.csv", "idx,v\n9,1.5\n10,2.5\n")  # stamps compare as text
    with pytest.raises(DataError, match="strictly increasing text; '10' follows '9'"):
        load_csv(p, target="v", timestamp_column="idx")


@pytest.mark.parametrize(
    "data",
    [b"a,b\n1,2\n3,4\n5,6\n", b"a,b\r\n1,2\r\n3,4\r\n5,6\r\n", b'a,b\n1,"2"\n3,4\n5,6\n'],
    ids=["plain", "crlf", "quoted"],
)
def test_load_csv_reads_a_pipe_once(data):
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    try:
        values = load_csv(f"/dev/fd/{read_end}", target="b")
    finally:
        os.close(read_end)
    assert values.tolist() == [2.0, 4.0, 6.0]


def test_load_csv_missing_file():
    with pytest.raises(DataError, match="cannot open"):
        load_csv("/nonexistent/nowhere.csv", target="x")


def test_load_csv_unknown_target(tmp_path):
    p = write_csv(tmp_path / "data.csv", "a,b\n1,2\n")
    with pytest.raises(DataError, match="unknown target"):
        load_csv(p, target="zz")


# the same file split by each splitter: plainly, and by csv.reader for CRLF
_NEWLINES = pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["plain", "crlf"])


@_NEWLINES
def test_load_csv_non_numeric_cell_names_row_and_column(tmp_path, newline):
    p = write_csv(tmp_path / "data.csv", "a,b\n1,2\n3,oops\n".replace("\n", newline))
    with pytest.raises(DataError, match=r"'oops' at row 2, column 'b'"):
        load_csv(p, target="a")


@_NEWLINES
def test_load_csv_rejects_nan_and_inf(tmp_path, newline):
    p = write_csv(tmp_path / "data.csv", "a\nnan\n".replace("\n", newline))
    with pytest.raises(DataError, match="non-finite"):
        load_csv(p, target="a")
    p2 = write_csv(tmp_path / "data2.csv", "a\ninf\n".replace("\n", newline))
    with pytest.raises(DataError, match="non-finite"):
        load_csv(p2, target="a")


def test_load_csv_ragged_row(tmp_path):
    p = write_csv(tmp_path / "data.csv", "a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="ragged row 2"):
        load_csv(p, target="a")


def test_load_csv_empty_and_header_only(tmp_path):
    p = write_csv(tmp_path / "empty.csv", "")
    with pytest.raises(DataError, match="empty file"):
        load_csv(p, target="a")
    p2 = write_csv(tmp_path / "header.csv", "a,b\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(p2, target="a")


@pytest.mark.parametrize(
    "text, name",
    [("x,v,v\n1,2,3\n", "v"), ('x,v,"v"\n1,2,3\n', "v"), ("a, a \n1,2\n", "a")],
    ids=["plain", "quoted", "stripped"],
)
def test_load_csv_rejects_a_repeated_column_name(tmp_path, text, name):
    p = write_csv(tmp_path / "data.csv", text)
    with pytest.raises(DataError, match=f"{p}: repeated column name '{name}'"):
        load_csv(p, target=name)


@pytest.mark.parametrize(
    "data, at, line",
    [(b"\xef\xbb\xbfv\r\n1\r\n2\xff", 10, 3), (b"\xc3\n1\n", 0, 1)],
    ids=["bom-crlf", "header"],
)
def test_load_csv_names_the_byte_that_is_not_utf8(tmp_path, data, at, line):
    p = tmp_path / "data.csv"
    p.write_bytes(data)
    with pytest.raises(DataError, match=f"{p}: not UTF-8 text at byte {at} \\(line {line}\\): "):
        load_csv(p, target="v")


def test_timestamps_must_strictly_increase(tmp_path):
    p = write_csv(
        tmp_path / "data.csv",
        "date,v\n2020-01-02,1\n2020-01-01,2\n",
    )
    with pytest.raises(DataError, match="strictly increasing"):
        load_csv(p, target="v")
    # every value column is parsed before the stamps are checked
    p = write_csv(tmp_path / "both.csv", "date,v\n2020-01-02,1\n2020-01-01,x\n")
    with pytest.raises(DataError, match="non-numeric cell 'x' at row 2, column 'v'"):
        load_csv(p, target="v")


# Value cells: every accepted float spelling (underscores, a bare sign,
# padding that both float() and str.strip() take or only str.strip() takes,
# non-ASCII digits), and the non-finite, non-numeric and empty cells the loader
# rejects.
_GOOD_CELLS = [
    "0", "-0", "1.5", " 2.25 ", "1_0", "+.5", "-3e-2", "\u00a07\u2003", "\u0663", "4.9e-324"
]
_BAD_CELLS = ["1e400", "-1e400", "nan", "inf", "-Infinity", "8\x1c", "0x10", "", " ", "oops", "é"]
# Padding of two and of three UTF-8 bytes that float() and str.strip() take:
# a line's length in bytes then exceeds its length in characters.
_WIDE_PADS = ["", "", "\u00a0", "\u3000"]


def _one_in(k):
    # st.integers favours its bounds; sampled_from draws evenly, apart from
    # its first choice, which it also shrinks toward
    return st.sampled_from([False] * (k - 1) + [True])


@st.composite
def csv_files(draw):
    """A CSV file's bytes, a target, a timestamp column for load_csv and a
    ``csv`` field size limit (None keeps the default)."""
    ncol = draw(st.integers(1, 3))
    names = draw(
        st.lists(st.sampled_from(["a", "b", "ts", " a ", "é"]), min_size=ncol, max_size=ncol)
    )
    stamped = draw(st.booleans())
    mark = draw(st.sampled_from(["", "", "é"]))  # keeps the stamps increasing
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    padded = st.tuples(st.sampled_from(_WIDE_PADS), finite, st.sampled_from(_WIDE_PADS))
    good = st.one_of(st.sampled_from(_GOOD_CELLS), finite, padded.map("".join))
    rows = []
    for i in range(draw(st.sampled_from([3, 1, 2, 4, 5, 6, 0]))):
        cells = []
        for j in range(ncol):
            if j == 0 and stamped:
                # mostly increasing; a repeat or a padded stamp now and then
                stamps = [f"2020-01-{i + 1:02d}{mark}"] * 18
                stamps += ["2020-01-01", f" 2020-01-{i + 1:02d}{mark} "]
                cells.append(draw(st.sampled_from(stamps)))
            elif draw(_one_in(40)):
                cells.append(draw(st.sampled_from(_BAD_CELLS)))
            else:
                cells.append(draw(good))
        rows.append(cells)
    if rows and draw(_one_in(6)):  # a ragged row
        cells = draw(st.sampled_from(rows))
        cells[:] = cells[:-1] if draw(st.booleans()) else cells + ["1"]
    table = [list(names)] + rows
    for _ in range(draw(st.sampled_from([0] * 6 + [1, 2]))):  # a quote or CR in a cell
        cells = draw(st.sampled_from([cells for cells in table if cells]))
        k = draw(st.integers(0, len(cells) - 1))
        cells[k] = draw(st.sampled_from(['"{}"', '"{}', '"a,b"', "{}\r", "\r{}"])).format(cells[k])
    lines = [",".join(cells) for cells in table]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # blank or whitespace-only
        blank = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    newline = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    if draw(_one_in(10)):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(_one_in(20)):  # not UTF-8
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    target = draw(st.sampled_from([h.strip() for h in names] * 4 + [names[-1], "zz"]))
    timestamp_column = draw(st.sampled_from([None] * 8 + [names[0], "nope"]))
    limit = draw(st.integers(1, 48)) if draw(_one_in(4)) else None
    return data, target, timestamp_column, limit


def _outcome(cells, path):
    """What one splitter makes of a file: its header and cells, or its
    error; the file's text where it declines."""
    try:
        return cells(path)
    except DataError as exc:
        return DataError, str(exc)


@settings(max_examples=500, deadline=None)
@given(case=csv_files())
@example(case=(b"a,b\n1,2,3\n4\n", "a", None, None))  # row widths that cancel out
@example(case=(b"a,b\n1,2\n3,nan\n", "a", None, None))
@example(case=(b"t,v\n2020-01-02,1\n2020-01-01,2", "v", None, None))
@example(case=(b"\n1,2\n", "a", None, None))
@example(case=(b'ts,v\n"2020-01-01",1\n', "v", None, None))  # quotes a split would keep
@example(case=(b"ts,v\n2020\r01,1\n", "v", None, None))  # a CR ends the csv row
@example(case=("é\n1\n".encode(), "é", None, 1))  # one character in two bytes
@example(case=(b"v\n1234\n", "v", None, 3))  # a field over the limit
def test_load_csv_plain_path_equals_csv_module_path(tmp_path_factory, case):
    data, _, _, limit = case
    path = tmp_path_factory.getbasetemp() / "case.csv"
    path.write_bytes(data)
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        want = _outcome(lambda p: _csv_cells(_decode(p.read_bytes(), p), p), path)
        plain = _outcome(_plain_cells, path)
    finally:
        csv.field_size_limit(default)
    if isinstance(plain, str):
        assert plain == data.decode("utf-8-sig")
    else:
        assert plain == want
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert want[1].startswith(f"{path}: not UTF-8 text at byte ")


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(
        st.one_of(st.sampled_from(_GOOD_CELLS + _BAD_CELLS), st.floats().map(repr)),
        min_size=1,
        max_size=8,
    )
)
def test_parse_column_equals_parsing_each_stripped_cell(cells):
    def outcome(parse):
        try:
            values = parse()
        except DataError as exc:
            return str(exc)
        return values.dtype.str, values.tobytes()

    want = outcome(lambda: np.array([_parse_cell(c.strip(), i, "c") for i, c in enumerate(cells, 1)]))
    assert outcome(lambda: _parse_column(cells, "c")) == want


@pytest.mark.parametrize(
    "body, plain",
    [("2020-01-01,1\n2020-01-02,2\n", True), ('2020-01-01,"1"\n2020-01-02,2\n', False)],
    ids=["plain", "csv"],
)
def test_load_csv_drops_a_byte_order_mark(tmp_path, body, plain):
    p = write_csv(tmp_path / "bom.csv", "\ufefftimestamp,value\n" + body)
    assert isinstance(_plain_cells(p), tuple) == plain
    assert load_csv(p, target="value", timestamp_column="timestamp").tolist() == [1.0, 2.0]


def test_load_csv_takes_the_plain_path_only_for_plain_files(tmp_path):
    plain = "ts , v\n\n2020-01-01, 1_0\n2020-01-02,+.5\n\n2020-01-03,\u00a0-0 "
    p = write_csv(tmp_path / "plain.csv", plain)
    header, cells = _plain_cells(p)
    assert header == ["ts", "v"]
    assert cells == ["2020-01-01", " 1_0", "2020-01-02", "+.5", "2020-01-03", "\u00a0-0 "]
    assert load_csv(p, target="v").tolist() == [10.0, 0.5, -0.0]
    for text in (
        'a,b\n1,"2"\n',  # quoted
        "a,b\r\n1,2\r\n",  # CRLF
        "a,b\n1,2\n3\n",  # ragged
        "a,b\n \n",  # a whitespace-only row is a row
    ):
        p = write_csv(tmp_path / "other.csv", text)
        assert _plain_cells(p) == text, text
    for text in ("a,b\n1,2\n3,inf\n", "a,b\n1,2\n3,x\n"):  # bad cells fail in the parse
        p = write_csv(tmp_path / "bad.csv", text)
        assert isinstance(_plain_cells(p), tuple), text


def test_load_csv_fields_over_the_csv_limit_take_the_csv_path(tmp_path):
    p = write_csv(tmp_path / "long.csv", "ts,v\n2020-01-01T00:00:00,1\n")
    wide = write_csv(tmp_path / "wide.csv", "ts,v\n2020-01-01T00:00:00é,1\n")
    limit = csv.field_size_limit(8)
    try:
        assert isinstance(_plain_cells(p), str)
        with pytest.raises(DataError, match="unreadable row 1: field larger than field limit"):
            load_csv(p, target="v")
        # the plain path takes a line as long as the limit, counted in bytes
        csv.field_size_limit(21)
        assert isinstance(_plain_cells(p), tuple)
        assert isinstance(_plain_cells(wide), str)  # 21 characters, 22 bytes
        assert load_csv(wide, target="v").tolist() == [1.0]
        csv.field_size_limit(20)
        assert isinstance(_plain_cells(p), str)
        assert load_csv(p, target="v").tolist() == [1.0]
    finally:
        csv.field_size_limit(limit)


def test_scaler_round_trip_identity():
    rng = random.Random(42)
    for _ in range(50):
        values = np.array([rng.uniform(-50, 50) for _ in range(rng.randint(2, 40))])
        scaler = fit_scaler(values)
        back = invert_scaler(scaler, scaler.apply(values))
        assert np.max(np.abs(back - values)) <= 1e-12


def test_scaler_population_std_and_unit_interval():
    scaler = fit_scaler([0.0, 2.0])
    assert scaler.mean == 1.0
    assert scaler.std == 1.0  # population std, divisor n
    assert scaler.apply([0.0, 2.0]).tolist() == [-1.0, 1.0]


def test_scaler_degenerate_centers_only():
    scaler = fit_scaler([3.0, 3.0, 3.0])
    assert scaler.degenerate
    out = scaler.apply([3.0, 4.0])
    assert out.tolist() == [0.0, 1.0]
    assert invert_scaler(scaler, out).tolist() == [3.0, 4.0]


def test_fit_scaler_rejects_empty():
    with pytest.raises(ValueError):
        fit_scaler([])
    with pytest.raises(ValueError):
        Scaler(mean=0.0, std=-1.0)


def _series(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) * 3 + 7


def test_split_unscaled_concat_recovers_original():
    values = _series(101)
    train, test, scaler = split(values, 0.7)
    assert len(train) == 70  # floor(101 * 0.7)
    assert len(test) == 31
    joined = scaler.invert(np.concatenate([train, test]))
    assert np.max(np.abs(joined - values)) <= 1e-12
    for part in (train, test):
        with pytest.raises(ValueError):
            part[0] = 5.0


def test_split_carries_the_target_of_a_multi_column_file(tmp_path):
    p = write_csv(tmp_path / "data.csv", "t,z,a,m\n1,1,5,2\n2,3,4,2\n3,2,6,7\n4,5,5,1\n")
    values = load_csv(p, target="a", timestamp_column="t")
    assert values.tolist() == [5.0, 4.0, 6.0, 5.0]
    train, test, scaler = split(values, 0.5)
    assert scaler == Scaler(mean=4.5, std=0.5)
    for part, raw in ((train, [5.0, 4.0]), (test, [6.0, 5.0])):
        assert scaler.invert(part).tolist() == raw


def test_split_scales_with_train_statistics_only():
    values = _series(200, seed=3)
    train, test, scaler = split(values, 0.5)
    raw_train = values[:100]
    assert abs(scaler.mean - float(np.mean(raw_train))) <= 1e-12
    assert abs(scaler.std - float(np.std(raw_train))) <= 1e-12
    # train part is standardized; the test part keeps the train transform
    assert abs(float(np.mean(train))) <= 1e-12
    expected_test = (values[100:] - scaler.mean) / scaler.std
    assert np.max(np.abs(test - expected_test)) <= 1e-12


def test_split_rejects_bad_fractions():
    values = _series(10)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="must be in"):
            split(values, bad)
    with pytest.raises(ValueError, match="leaves an empty part"):
        split(_series(2), 0.01)  # empty train part


def test_window_at_origin_semantics():
    values = np.arange(20, dtype=float)
    pair = window_at(values, t=10, context_length=4, horizon=3)
    assert pair.context.tolist() == [6.0, 7.0, 8.0, 9.0]
    assert pair.truth.tolist() == [10.0, 11.0, 12.0]
    assert pair.origin == 10


def test_window_at_bounds():
    values = np.arange(10, dtype=float)
    with pytest.raises(ValueError):
        window_at(values, t=2, context_length=3, horizon=1)
    with pytest.raises(ValueError):
        window_at(values, t=9, context_length=3, horizon=2)
    with pytest.raises(ValueError):
        window_at(values, t=5, context_length=1, horizon=1)
    with pytest.raises(ValueError):
        window_at(values, t=5, context_length=2, horizon=0)


def test_window_pair_is_read_only():
    pair = WindowPair(context=np.ones(3), truth=np.ones(2), origin=3)
    with pytest.raises(ValueError):
        pair.context[0] = 9.0


def test_mae_matches_hand_computation():
    assert mae([1.0, 2.0, 3.0], [2.0, 2.0, 1.0]) == pytest.approx(1.0)
    assert mae([5.0], [5.0]) == 0.0


def test_mae_rejects_mismatch_and_empty():
    with pytest.raises(ValueError):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        mae([], [])
