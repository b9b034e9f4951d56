"""Time-series data: one CSV column as an array, standard scaling,
splitting, window extraction, and the MAE metric.

Every array handed out is read-only and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = [
    "Scaler",
    "WindowPair",
    "load_csv",
    "dataset_name",
    "fit_scaler",
    "apply_scaler",
    "invert_scaler",
    "split",
    "window_at",
    "mae",
]

DEFAULT_TRAIN_FRACTION = 0.7


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Scaler:
    """Standard scaler with population statistics (divisor n).

    A zero-spread input yields a degenerate scaler that only centers, so the
    transform never divides by zero.
    """

    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError(f"std must be non-negative, got {self.std}")

    @property
    def degenerate(self) -> bool:
        return self.std == 0.0

    def apply(self, values) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if self.degenerate:
            return arr - self.mean
        return (arr - self.mean) / self.std

    def invert(self, values) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if self.degenerate:
            return arr + self.mean
        return arr * self.std + self.mean


def fit_scaler(values) -> Scaler:
    """Fit mean and population standard deviation (divisor n)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot fit a scaler on empty input")
    return Scaler(mean=float(np.mean(arr)), std=float(np.std(arr)))


def apply_scaler(scaler: Scaler, values) -> np.ndarray:
    return scaler.apply(values)


def invert_scaler(scaler: Scaler, values) -> np.ndarray:
    return scaler.invert(values)


def _parse_cell(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise DataError(
            f"non-numeric cell {cell!r} at row {row}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(
            f"non-finite value {cell!r} at row {row}, column {column!r}"
        )
    return value


def _parse_column(cells: list[str], column: str) -> np.ndarray:
    """One value column's cells as floats, parsed in bulk.

    ``float`` strips the same whitespace ``str.strip`` does or fails, so a
    cell it takes keeps the bits of its stripped text. When the bulk parse
    fails or meets a non-finite value, the cells are parsed one by one after
    ``str.strip``: that names the first bad cell, or accepts a cell only
    ``str.strip`` can pad (such as ``"8\\x1c"``).
    """
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    return np.array([_parse_cell(cell.strip(), row, column) for row, cell in enumerate(cells, 1)])


def load_csv(path, target: str, timestamp_column: str | None = None) -> np.ndarray:
    """The column ``target`` of a header-first UTF-8 CSV as a read-only
    float array of at least one value.

    One timestamp column is optional: name it explicitly, or leave
    ``timestamp_column`` unset and the first column is treated as timestamps
    when it is not the target and its first data cell does not parse as a
    number. Timestamps are opaque text (windowing is purely positional);
    they must be strictly increasing under string comparison, which holds
    for ISO-8601 stamps, and are then dropped. Every other cell, of the
    target or not, must be a finite real: each column is parsed in header
    order, before the stamps are checked, and only the target is kept. Text
    that is not UTF-8, a repeated header name, NaN/Inf, ragged rows, a cell
    over the ``csv`` field size limit and a timestamp column that is the
    target are load-time errors (:class:`DataError`).

    Two splitters cut a file into its header and cells, and one tail picks
    the columns and parses them. :func:`_plain_cells` reads and decodes the
    file once, so a pipe works like a file. It splits a file without quotes
    or carriage returns whose rows all have the header's width, as array
    scans over its bytes show, and hands the text of every other file to
    ``csv.reader`` in :func:`_csv_cells`, which words every error about the
    file's structure. Both give the same cells for every file the first one
    takes.
    """
    cells = _plain_cells(path)
    header, cells = _csv_cells(cells, path) if isinstance(cells, str) else cells
    ncol = len(header)
    for i, h in enumerate(header):
        if h in header[:i]:
            raise DataError(f"{path}: repeated column name {h!r}; header: {header}")

    ts_name = timestamp_column
    if ts_name is not None:
        if ts_name not in header:
            raise DataError(f"unknown timestamp column {ts_name!r}; header: {header}")
        if ts_name == target:
            raise DataError(f"timestamp column {ts_name!r} is the target column")
    elif header[0] != target:
        try:
            float(cells[0])
        except ValueError:
            ts_name = header[0]
    value_names = [h for h in header if h != ts_name]
    if target not in value_names:
        raise DataError(f"unknown target column {target!r}; header: {header}")

    for col in value_names:  # a bad cell fails the load in any column
        parsed = _parse_column(cells[header.index(col)::ncol], col)
        if col == target:
            values = parsed
    if ts_name is not None:
        stamps = list(map(str.strip, cells[header.index(ts_name)::ncol]))
        for prev, cur in zip(stamps, stamps[1:]):
            if not prev < cur:
                raise DataError(
                    f"timestamps must be strictly increasing text; {cur!r} follows {prev!r}"
                )
    values.flags.writeable = False  # the parser's own array
    return values


def dataset_name(path) -> str:
    """The name of the dataset in the file at ``path`` when none is given:
    the file's stem, however the path is spelled."""
    return Path(path).stem


def _plain_cells(path) -> tuple[list[str], list[str]] | str:
    r"""The stripped header names and the body's cells row after row of a
    file the ``csv`` module would split exactly at its newlines and commas,
    or the text of any other file. A file that cannot be read or is not
    UTF-8 is a :class:`DataError`.

    The file is read once, as bytes, and :func:`_plain_scan` checks its
    structure on them. It is decoded once, whichever splitter takes it, and
    a leading byte-order mark is dropped. The bytes and the decoded text are
    freed before the body is joined and split: those copies of the text set
    the peak memory of a request.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    gaps = _plain_scan(data)
    text = _decode(data, path)
    del data
    if gaps is None:
        return text
    header, _, body = text.partition("\n")
    del text
    if gaps:
        body = ",".join(filter(None, body.split("\n")))
    else:
        body = body.strip("\n").replace("\n", ",")
    return [h.strip() for h in header.split(",")], body.split(",")


def _plain_scan(data: bytes) -> bool | None:
    r"""Whether blank rows lie inside the body of a file the ``csv`` module
    would split exactly at its newlines and commas, or None for any other
    file.

    Such a file has a header and a body, no ``"`` (no quoting) and no ``\r``
    (every row ends at a ``\n``, and only empty lines are blank rows), every
    row has the header's width, and no line exceeds the ``csv`` field size
    limit. UTF-8 encodes ``"``, ``\r``, ``\n`` and ``,`` as single bytes that
    occur in no other character, and a line's byte length is at least its
    length in characters, so the limit check only errs toward the ``csv``
    path.
    """
    if b'"' in data or b"\r" in data:
        return None
    bom = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    raw = np.frombuffer(data, dtype=np.uint8, offset=bom)
    ends = np.append(np.flatnonzero(raw == ord("\n")), raw.size)  # per line
    lengths = np.diff(ends, prepend=-1) - 1
    commas = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends), prepend=0)
    rows = np.flatnonzero(lengths[1:])  # the body's non-blank lines
    if not lengths[0] or not rows.size:
        return None
    if (commas[1:][rows] != commas[0]).any():
        return None
    if lengths.max() > csv.field_size_limit():
        return None
    return bool(rows[-1] - rows[0] + 1 > rows.size)


def _decode(data: bytes, path) -> str:
    """``data`` as UTF-8 text without a leading byte-order mark; text that
    is not UTF-8 is a :class:`DataError` naming its byte and line."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the decoder counts from after a byte-order mark
        at = exc.start + (3 if data.startswith(b"\xef\xbb\xbf") else 0)
        line = len(data[: at + 1].splitlines())
        raise DataError(
            f"{path}: not UTF-8 text at byte {at} (line {line}): {exc.reason}"
        ) from None


def _csv_cells(text: str, path) -> tuple[list[str], list[str]]:
    """The stripped header names and the body's cells row after row of any
    file's text, split by ``csv.reader``. A file that is empty, has no data
    rows or has an unreadable or ragged row is a :class:`DataError`.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    header: list[str] | None = None
    rows: list[list[str]] = []
    try:
        header = next(reader, None)
        for row in reader:
            if row:
                rows.append(row)
    except csv.Error as exc:
        where = "header row" if header is None else f"row {len(rows) + 1}"
        raise DataError(f"{path}: unreadable {where}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file, expected a header row")
    if not rows:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{path}: ragged row {i} has {len(row)} cells, header has {len(header)}"
            )
    return [h.strip() for h in header], [cell for row in rows for cell in row]


def split(
    values, train_fraction: float = DEFAULT_TRAIN_FRACTION
) -> tuple[np.ndarray, np.ndarray, Scaler]:
    """Chronological split at ``floor(n * train_fraction)``: the train and
    test parts as read-only arrays standardized with a scaler fit on the
    train part only, and that scaler, which inverts either part to its raw
    values.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(values)
    cut = int(math.floor(n * train_fraction))
    if cut < 1 or cut >= n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves an empty part for length {n}"
        )
    scaler = fit_scaler(values[:cut])
    train, test = scaler.apply(values[:cut]), scaler.apply(values[cut:])
    train.flags.writeable = test.flags.writeable = False
    return train, test, scaler


@dataclass(frozen=True)
class WindowPair:
    """An L-step context immediately followed by its H-step ground truth.

    ``origin`` is the index of the first truth element in the source series.
    """

    context: np.ndarray
    truth: np.ndarray
    origin: int

    def __post_init__(self):
        object.__setattr__(self, "context", _readonly(self.context))
        object.__setattr__(self, "truth", _readonly(self.truth))
        if len(self.context) < 2:
            raise ValueError("context length must be at least 2")
        if len(self.truth) < 1:
            raise ValueError("truth length must be at least 1")


def window_at(values, t: int, context_length: int, horizon: int) -> WindowPair:
    """Extract the (context, truth) pair whose truth starts at index ``t``."""
    arr = np.asarray(values, dtype=np.float64)
    if context_length < 2:
        raise ValueError(f"context_length must be >= 2, got {context_length}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if t - context_length < 0:
        raise ValueError(
            f"window origin {t} leaves no room for a context of {context_length}"
        )
    if t + horizon > arr.size:
        raise ValueError(
            f"window origin {t} with horizon {horizon} exceeds length {arr.size}"
        )
    return WindowPair(
        context=arr[t - context_length : t], truth=arr[t : t + horizon], origin=t
    )


def mae(pred, truth) -> float:
    """Mean absolute error: the average of elementwise absolute differences."""
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("mae of empty vectors is undefined")
    with np.errstate(over="ignore"):  # huge forecasts score inf, silently
        return float(np.mean(np.abs(p - t)))
