"""Time-series data model: CSV ingestion, standard scaling, splitting,
window extraction, and the MAE metric.

All types are immutable after construction; every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = [
    "Scaler",
    "TimeSeries",
    "WindowPair",
    "load_csv",
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


@dataclass(frozen=True)
class TimeSeries:
    """A named multivariate series with one designated target column.

    ``columns`` maps column name to a float array; ``column_names`` preserves
    header order. ``timestamps`` are opaque text carried for reporting only
    (windowing is purely positional); when present they must be strictly
    increasing under string comparison, which holds for ISO-8601 stamps.
    ``scalers`` is populated by :func:`split` when it standardizes columns.
    """

    name: str
    column_names: list[str]
    columns: dict[str, np.ndarray]
    target: str
    timestamps: list[str] | None = None
    scalers: dict[str, Scaler] | None = None

    def __post_init__(self):
        if not self.column_names:
            raise DataError("series must have at least one column")
        if set(self.column_names) != set(self.columns):
            raise DataError("column_names and columns disagree")
        if self.target not in self.columns:
            raise DataError(
                f"unknown target column {self.target!r}; available: {self.column_names}"
            )
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) != 1:
            raise DataError(f"columns have unequal lengths: {lengths}")
        n = next(iter(lengths.values()))
        if n < 1:
            raise DataError("series must contain at least one row")
        object.__setattr__(
            self, "columns", {k: _readonly(v) for k, v in self.columns.items()}
        )
        if self.timestamps is not None:
            if len(self.timestamps) != n:
                raise DataError(
                    f"timestamp count {len(self.timestamps)} != row count {n}"
                )
            for prev, cur in zip(self.timestamps, self.timestamps[1:]):
                if not prev < cur:
                    raise DataError(
                        f"timestamps must be strictly increasing text; {cur!r} follows {prev!r}"
                    )

    def __len__(self) -> int:
        return len(self.columns[self.target])

    @property
    def target_values(self) -> np.ndarray:
        return self.columns[self.target]

    @property
    def target_scaler(self) -> Scaler | None:
        if self.scalers is None:
            return None
        return self.scalers.get(self.target)


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


def load_csv(
    path,
    target: str,
    timestamp_column: str | None = None,
    name: str | None = None,
) -> TimeSeries:
    """Load a header-first UTF-8 CSV into a :class:`TimeSeries`.

    One timestamp column is optional: name it explicitly, or leave
    ``timestamp_column`` unset and the first column is treated as timestamps
    when its first data cell does not parse as a number. Every other cell
    must be a finite real. Text that is not UTF-8, a repeated header name,
    NaN/Inf, ragged rows and a cell over the ``csv`` field size limit are
    load-time errors (:class:`DataError`).

    Two splitters cut a file into its header and cells, and one tail picks
    the columns and parses them. :func:`_plain_cells` takes a file without
    quotes or carriage returns whose rows all have the header's width, as
    array scans over its bytes show; every other file goes through
    ``csv.reader`` in :func:`_csv_cells`, which words every error about the
    file's structure. Both give the same cells for every file the first one
    takes.
    """
    header, cells = _plain_cells(path) or _csv_cells(path)
    ncol = len(header)
    for i, h in enumerate(header):
        if h in header[:i]:
            raise DataError(f"{path}: repeated column name {h!r}; header: {header}")

    if timestamp_column is not None:
        if timestamp_column not in header:
            raise DataError(
                f"unknown timestamp column {timestamp_column!r}; header: {header}"
            )
        ts_name = timestamp_column
    else:
        ts_name = None
        try:
            float(cells[0])
        except ValueError:
            ts_name = header[0]
    value_names = [h for h in header if h != ts_name]
    if target not in value_names:
        raise DataError(f"unknown target column {target!r}; header: {header}")

    timestamps: list[str] | None = None
    if ts_name is not None:
        timestamps = list(map(str.strip, cells[header.index(ts_name)::ncol]))
    columns = {
        col: _parse_column(cells[header.index(col)::ncol], col) for col in value_names
    }
    return TimeSeries(
        name=name if name is not None else str(path),
        column_names=value_names,
        columns=columns,
        target=target,
        timestamps=timestamps,
    )


def _plain_cells(path) -> tuple[list[str], list[str]] | None:
    r"""The stripped header names and the body's cells row after row of a
    file the ``csv`` module would split exactly at its newlines and commas,
    or None for any other file.

    Such a file decodes as UTF-8 (a leading byte-order mark is dropped, as
    the ``csv`` path drops it), has a header and a body, no ``"`` (no
    quoting) and no ``\r`` (every row ends at a ``\n``, and only empty
    lines are blank rows), every row has the header's width, and no line
    exceeds the ``csv`` field size limit. The file is read once, as bytes,
    and its structure is checked on them: UTF-8 encodes ``"``, ``\r``,
    ``\n`` and ``,`` as single bytes that occur in no other character, and a
    line's byte length is at least its length in characters, so the limit
    check only errs toward the ``csv`` path. The bytes, the scan's arrays and
    the decoded text are freed before the body is joined and split.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    if data.startswith(b"\xef\xbb\xbf"):
        data = data[3:]
    if b'"' in data or b"\r" in data:
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
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
    gaps = rows[-1] - rows[0] + 1 > rows.size  # blank rows inside
    # The copies of the text below set the peak memory of a request, so the
    # scan, the bytes and the decoded text are freed as soon as they are used
    # (``raw`` is a view that keeps the bytes alive).
    del raw, ends, lengths, commas, rows
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    del data
    header, _, body = text.partition("\n")
    del text
    if gaps:
        body = ",".join(filter(None, body.split("\n")))
    else:
        body = body.strip("\n").replace("\n", ",")
    return [h.strip() for h in header.split(",")], body.split(",")


def _csv_cells(path) -> tuple[list[str], list[str]]:
    """The stripped header names and the body's cells row after row of any
    file, split by ``csv.reader``. A file that cannot be read, is not UTF-8,
    is empty, has no data rows or has an unreadable or ragged row is a
    :class:`DataError`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the decoder counts from after a byte-order mark
        at = exc.start + (3 if data.startswith(b"\xef\xbb\xbf") else 0)
        line = len(data[: at + 1].splitlines())
        raise DataError(
            f"{path}: not UTF-8 text at byte {at} (line {line}): {exc.reason}"
        ) from None
    del data
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
    series: TimeSeries,
    train_fraction: float = DEFAULT_TRAIN_FRACTION,
    scale: bool = True,
) -> tuple[TimeSeries, TimeSeries]:
    """Chronological split at ``floor(n * train_fraction)``.

    With ``scale=True`` (the default) every column is standardized with a
    scaler fit on the train part only and applied to both parts; the fitted
    scalers ride along on the returned series so raw values stay recoverable.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(series)
    cut = int(math.floor(n * train_fraction))
    if cut < 1 or cut >= n:
        raise ValueError(
            f"train_fraction {train_fraction} leaves an empty part for length {n}"
        )

    scalers: dict[str, Scaler] | None = None
    if scale:
        scalers = {
            col: fit_scaler(series.columns[col][:cut]) for col in series.column_names
        }

    def _part(lo: int, hi: int) -> TimeSeries:
        cols = {}
        for col in series.column_names:
            piece = series.columns[col][lo:hi]
            cols[col] = scalers[col].apply(piece) if scalers else np.array(piece)
        ts = series.timestamps[lo:hi] if series.timestamps is not None else None
        return TimeSeries(
            name=series.name,
            column_names=list(series.column_names),
            columns=cols,
            target=series.target,
            timestamps=ts,
            scalers=scalers,
        )

    return _part(0, cut), _part(cut, n)


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
    return float(np.mean(np.abs(p - t)))
