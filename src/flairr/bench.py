"""Benchmark harness: dataset x horizon x method grids, repeated runs with
median aggregation, the four-condition ablation, and report emission.

Per cell, a refinement session runs on the training split, then the selected
prompt forecasts a fixed non-overlapping grid of test windows; the cell's
score is the mean test MAE. MAEs are computed in scaled space; the report
carries the scaler parameters so raw-space errors stay recoverable.
"""

from __future__ import annotations

import csv
import json
import statistics
import threading
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .backends import (
    Backend,
    CallMeter,
    CompletionReply,
    CompletionRequest,
    ReplyStore,
    _SingleFlight,
)
from .errors import ConfigError
from .prompts import DEFAULT_DESCRIPTION, DatasetMeta
from .retrieval import build_hist_db
from .series import DEFAULT_TRAIN_FRACTION, dataset_name, load_csv, split, window_at, mae
from .session import SessionConfig, check_session_fits, forecast_with, run_session, strict_json

__all__ = [
    "DEFAULT_CONTEXT_LENGTH",
    "DEFAULT_JOBS",
    "KNOWN_METHODS",
    "ABLATION_CONDITIONS",
    "ExperimentConfig",
    "ReportRow",
    "run_experiment",
    "run_ablation",
    "emit_report",
]

DEFAULT_CONTEXT_LENGTH = 96

# cells a grid runs at a time once its first cell showed that it mostly
# waits on its calls
DEFAULT_JOBS = 8

# the share of its wall time a grid's first cell may keep the CPU busy and
# still fan the rest out; above it the grid is bound by the CPU, where more
# threads only contend for the interpreter lock
_WAITING_CPU_SHARE = 0.5

# method id -> the SessionConfig fields it sets, in presentation order
_METHOD_FIELDS = {
    "simple": {"retrieval_enabled": False, "refinement_enabled": False},
    "retrieval-only": {"retrieval_enabled": True, "refinement_enabled": False},
    "ir-only": {"retrieval_enabled": False, "refinement_enabled": True},
    "flairr": {"retrieval_enabled": True, "refinement_enabled": True},
}

KNOWN_METHODS = tuple(_METHOD_FIELDS)

# (method id, display label), in the fixed presentation order
ABLATION_CONDITIONS = tuple(
    zip(KNOWN_METHODS, ("Simple", "Simple+Retrieval", "Simple+IR", "FLAIRR"))
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition for one experiment, usually loaded from JSON."""

    target: str
    horizons: tuple[int, ...]
    methods: tuple[str, ...]
    dataset_path: str | None = None
    dataset_name: str | None = None
    dataset_description: str = ""
    timestamp_column: str | None = None
    runs: int = 5
    train_fraction: float = DEFAULT_TRAIN_FRACTION
    max_test_windows: int = 20
    output_dir: str = "bench-out"
    seed: int = 0
    session_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if not self.horizons:
            raise ConfigError("horizons must be non-empty")
        if any(h < 1 for h in self.horizons):
            raise ConfigError(f"horizons must be >= 1, got {self.horizons}")
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        for method in self.methods:
            _method_fields(method)
        for name in ("horizons", "methods"):
            # each cell writes one session log named by its horizon and method
            values = getattr(self, name)
            if repeated := [v for i, v in enumerate(values) if v in values[:i]]:
                raise ConfigError(f"{name} repeat {repeated[0]!r}; got {values}")
        if self.max_test_windows < 1:
            raise ConfigError(
                f"max_test_windows must be >= 1, got {self.max_test_windows}"
            )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        p = Path(path)
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read experiment config {p}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed experiment config {p}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{p}: experiment config must be a JSON object")
        hints = typing.get_type_hints(cls)
        dataset = _checked(doc.get("dataset", {}), dict, "dataset", p)
        if "target" not in dataset:
            raise ConfigError(f"{p}: dataset.target is required")
        session = _checked(doc.get("session", {}), hints["session_overrides"], "session", p)
        session_hints = typing.get_type_hints(SessionConfig)
        for key, value in session.items():
            # a key that names no field, or one the grid owns, fails when
            # the grid builds its sessions
            if key in session_hints:
                _checked(value, session_hints[key], f"session.{key}", p)

        # an absent key leaves its field at the dataclass default; absent
        # horizons or methods stay empty, which __post_init__ refuses
        values = {"horizons": (), "methods": ()}
        for key, value in dataset.items():
            if key not in _DATASET_FIELDS:
                raise ConfigError(
                    f"{p}: unknown key dataset.{key}; expected one of {list(_DATASET_FIELDS)}"
                )
            name = _DATASET_FIELDS[key]
            values[name] = _checked(value, hints[name], f"dataset.{key}", p)
        top_level = [n for n in hints if n not in (*_DATASET_FIELDS.values(), "session_overrides")]
        for name, value in doc.items():
            if name in top_level:
                values[name] = _checked(value, hints[name], name, p)
            elif name not in ("dataset", "session"):
                raise ConfigError(
                    f"{p}: unknown key {name}; expected one of {['dataset', 'session', *top_level]}"
                )
        return cls(**values, session_overrides=session)


# ExperimentConfig field of each key of the config's dataset object
_DATASET_FIELDS = {
    "target": "target",
    "path": "dataset_path",
    "name": "dataset_name",
    "description": "dataset_description",
    "timestamp_column": "timestamp_column",
}

# Python type of a config field -> its JSON type name and the exact Python
# types ``json.loads`` gives for it, so a bool is never an integer or a
# number, while an integer is a number
_JSON_TYPES = {
    dict: ("object", (dict,)),
    str: ("string", (str,)),
    int: ("integer", (int,)),
    float: ("number", (int, float)),
    bool: ("boolean", (bool,)),
}


def _checked(value, hint, name: str, path: Path):
    """``value`` if it has the JSON type of the field type ``hint`` (``T``,
    ``T | None`` or ``tuple[T, ...]``): a JSON array as a tuple, a number as
    a float; otherwise a :class:`ConfigError` naming ``name``."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        kind, types = _JSON_TYPES[args[0]]
        what = f"{name} must be a JSON array of {kind}s"
        if type(value) is not list:
            raise ConfigError(f"{path}: {what}, got {value!r}")
        for item in value:
            if type(item) not in types:
                raise ConfigError(f"{path}: {what}, got the item {item!r}")
        return tuple(value)
    if value is None and type(None) in args:
        return None
    kind, types = _JSON_TYPES[args[0] if args else hint]
    if type(value) not in types:
        raise ConfigError(f"{path}: {name} must be a JSON {kind}, got {value!r}")
    return float(value) if kind == "number" else value


@dataclass
class ReportRow:
    """One (dataset, horizon, method) aggregate across runs.

    ``run_maes`` are scaled-space test MAEs, lower is better; ``median_mae``
    is their midpoint; ``scaler_mean``/``scaler_std`` invert the scaling.
    """

    dataset: str
    horizon: int
    method: str
    run_maes: tuple[float, ...]
    median_mae: float
    iterations_mean: float
    early_stop_rate: float
    tokens_in: int
    tokens_out: int
    refiner_calls: int
    mae_space: str = "scaled"
    scaler_mean: float = 0.0
    scaler_std: float = 1.0
    test_windows: int = 0
    max_test_windows: int = 20


def _method_fields(method: str) -> dict:
    """The :class:`SessionConfig` fields a method id sets."""
    if method in _METHOD_FIELDS:
        return _METHOD_FIELDS[method]
    if not method.startswith("asp:"):
        raise ConfigError(
            f"unknown method {method!r}; expected one of {KNOWN_METHODS} "
            "or 'asp:<strategy-name>'"
        )
    name = method[len("asp:") :]
    if not name:
        raise ConfigError("asp method needs a strategy name, e.g. 'asp:deep-stl'")
    # a static strategy prompt evaluated with retrieval, no refinement
    return {"retrieval_enabled": True, "refinement_enabled": False, "strategy": name}


# the SessionConfig fields the grid sets itself, and what sets each
_GRID_OWNED = {
    "strategy": "use the method 'asp:<name>'",
    "horizon": "the config's horizons set it",
    "seed": "the config seed plus the run index sets it",
    "retrieval_enabled": "the method sets it",
    "refinement_enabled": "the method sets it",
}


def _session_config(cfg: ExperimentConfig, horizon: int, method: str, run: int) -> SessionConfig:
    for key, owner in _GRID_OWNED.items():
        if key in cfg.session_overrides:
            raise ConfigError(f"session.{key} is not an override; {owner}")
    fields = {
        "context_length": DEFAULT_CONTEXT_LENGTH,
        **cfg.session_overrides,
        **_method_fields(method),
        "horizon": horizon,
        "seed": cfg.seed + run,
    }
    try:
        return SessionConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad session override: {exc}") from exc


def _test_origins(
    split_idx: int, total: int, session_cfg: SessionConfig, cap: int
) -> list[int]:
    """Non-overlapping truth windows tiling the test region, stride = horizon;
    a region without one is a :class:`ConfigError`."""
    context_length, horizon = session_cfg.context_length, session_cfg.horizon
    origins = []
    t = split_idx
    while t + horizon <= total and len(origins) < cap:
        if t - context_length >= 0:
            origins.append(t)
        t += horizon
    if not origins:
        raise ConfigError(
            f"test region too short for a single (context={context_length}, "
            f"horizon={horizon}) window"
        )
    return origins


def _planned_calls(session_cfg: SessionConfig, test_windows: int) -> int:
    """The calls a cell makes when every reply parses and the refiner never
    stops it: its validation forecasts at each iteration, a refiner and a
    synthesis call per iteration, and one forecast per test window."""
    if not session_cfg.refinement_enabled:
        return session_cfg.sample_size + test_windows
    return session_cfg.max_iterations * (session_cfg.sample_size + 2) + test_windows


class _Stopped(BaseException):
    """Raised in place of a call or cell once its grid has failed.
    No ``except Exception`` catches it, so no session takes it for its own
    error and tags it with its history."""


class _StopOnFailure(Backend):
    """A grid's backend: it passes each call to ``inner`` until the first
    call or cell of the grid raises, and keeps that ``error``.
    From then on, each of them that :meth:`run` starts or finishes raises
    :class:`_Stopped` instead, so no further call is sent and no result
    that arrives later is kept."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.error: BaseException | None = None
        self._lock = threading.Lock()

    def fail(self, exc: BaseException) -> None:
        with self._lock:
            if self.error is None and not isinstance(exc, _Stopped):
                self.error = exc

    def run(self, fn, *args):
        if self.error is not None:
            raise _Stopped
        try:
            result = fn(*args)
        except BaseException as exc:
            self.fail(exc)
            raise
        if self.error is not None:
            raise _Stopped
        return result

    def complete(self, request: CompletionRequest) -> CompletionReply:
        return self.run(self.inner.complete, request)


def _run_grid(
    cfg: ExperimentConfig,
    backend: Backend,
    methods: list[tuple[str, str]],
    stem: str,
    jobs: int | None,
    emit: bool,
) -> tuple[list[ReportRow], Path | None]:
    """Run ``methods`` (id, label) for every horizon; with ``emit`` the rows
    land in ``<stem>.csv`` and ``<stem>.json`` inside a fresh run directory.

    The unit of work is one (horizon, method, run) cell: a refinement
    session, then the test windows forecast with the prompt it selected,
    its calls sent one after another. Up to ``jobs`` cells run at a time on
    one pool, so at most ``jobs`` calls are in flight; the cells with the
    most planned calls (:func:`_planned_calls`) start first, so the longest
    do not set the grid's tail. One job runs every cell in the calling
    thread, in grid order. ``jobs`` None is 1 over an ordinal script.
    Otherwise the cell with the fewest planned calls (the first in grid
    order of those) runs alone in the calling thread, and the grid goes on
    with :data:`DEFAULT_JOBS` if it left the CPU mostly idle, waiting on
    its calls, else with one job: threads only slow a grid bound by the
    CPU. Each row sums its method's ``cfg.runs`` cells, in grid order
    whatever order they ran in. Once a call or cell raises, no call starts;
    those in flight finish, the rows whose cells all finished before it
    land in ``<stem>.partial.*``, and the grid raises that first error.

    Every cell's meter wraps one :class:`ReplyStore`, ``backend`` if it is
    one, so report columns count each method's own requests, store hits
    included, while the backend behind it sees each distinct request once.
    One memo, freed with the grid, builds each analog index the cells use
    and each forecast window's prompt text once for all of them."""
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if not isinstance(backend, ReplyStore):
        backend = ReplyStore(backend)
    measure_first = jobs is None and not backend.ordinal
    if jobs is None:
        jobs = 1 if backend.ordinal else DEFAULT_JOBS
    if backend.ordinal and jobs > 1:
        raise ConfigError(
            "--jobs > 1 cannot replay an ordinal script: its replies follow "
            "call order; run one job, or replay a pattern script or a recording"
        )
    # every cell's session is configured before a directory is made or a
    # call is sent, so a bad config fails the grid with nothing spent
    keys = [
        (horizon, method, run)
        for horizon in cfg.horizons
        for method, _ in methods
        for run in range(cfg.runs)
    ]
    session_cfgs = {key: _session_config(cfg, *key) for key in keys}
    if cfg.dataset_path is None:
        raise ConfigError("experiment config has no dataset path")
    values = load_csv(cfg.dataset_path, cfg.target, timestamp_column=cfg.timestamp_column)
    train_values, test_values, scaler = split(values, cfg.train_fraction)
    full_values = np.concatenate([train_values, test_values])
    name = cfg.dataset_name if cfg.dataset_name is not None else dataset_name(cfg.dataset_path)
    # so is every cell's data shape: its validation windows, its retrieval
    # history and its test windows
    origins = {}
    for key, session_cfg in session_cfgs.items():
        check_session_fits(session_cfg, train_values)
        origins[key] = _test_origins(
            train_values.size, full_values.size, session_cfg, cfg.max_test_windows
        )
    planned = {key: _planned_calls(session_cfgs[key], len(origins[key])) for key in keys}
    meta = DatasetMeta(
        name=name, description=cfg.dataset_description or DEFAULT_DESCRIPTION, target=cfg.target
    )
    run_dir = _make_run_dir(cfg.output_dir) if emit else None
    stop = _StopOnFailure(backend)
    memo = _SingleFlight()
    done = {}  # cell key -> its result, once the cell finished

    def run_cell(key) -> tuple[CallMeter, int, bool, float]:
        """(meter, iterations used, early stop, test MAE) of one cell."""
        horizon, method, run = key
        session_cfg = session_cfgs[key]
        meter = CallMeter(stop)
        log_path = None
        if run_dir is not None:
            safe = method.replace(":", "-")
            log_path = run_dir / f"{_safe_name(name)}-h{horizon}-{safe}-run{run}.jsonl"
        result = run_session(
            session_cfg, train_values, meter, meta=meta, log_path=log_path, memo=memo
        )
        db = None
        if session_cfg.retrieval_enabled:
            L = session_cfg.context_length
            db = memo.get(
                ("index", train_values.size, L, horizon),
                lambda: build_hist_db(train_values, L, horizon),
            )

        def test_mae(origin):
            window = window_at(full_values, origin, session_cfg.context_length, horizon)
            values = forecast_with(result, window, session_cfg, db, meter, meta=meta, memo=memo)
            return mae(values, window.truth)

        window_maes = list(map(test_mae, origins[key]))
        return meter, result.iterations_used, result.early_stop, float(np.mean(window_maes))

    def keep(key) -> None:
        done[key] = stop.run(run_cell, key)

    def run_cells(jobs) -> None:
        order = keys
        if measure_first:
            # the cheapest cell runs alone; the rest fan out only if it left
            # the CPU mostly idle, waiting on its calls
            probe = min(keys, key=planned.get)
            wall, cpu = time.perf_counter(), time.thread_time()
            keep(probe)
            if time.thread_time() - cpu > _WAITING_CPU_SHARE * (time.perf_counter() - wall):
                jobs = 1
            order = [key for key in keys if key != probe]
        if jobs == 1:
            for key in order:
                keep(key)
            return
        # longest first: a long cell started last would run on alone
        started = [cells.submit(keep, key) for key in sorted(order, key=planned.get, reverse=True)]
        for future in started:
            future.result()

    # an executor starts its workers on the first submit, so one job stays
    # in the calling thread
    with ThreadPoolExecutor(jobs) as cells:
        try:
            run_cells(jobs)
        except BaseException as exc:
            # an interrupt stops the grid as a failure does, so the pool waits
            # only for the calls in flight
            stop.fail(exc)

    rows: list[ReportRow] = []
    for horizon in cfg.horizons:
        for method, label in methods:
            cell_keys = [(horizon, method, run) for run in range(cfg.runs)]
            if not all(key in done for key in cell_keys):
                continue
            meters, iterations, early_stops, maes = zip(*(done[key] for key in cell_keys))
            rows.append(
                ReportRow(
                    dataset=name,
                    horizon=horizon,
                    method=label,
                    run_maes=maes,
                    median_mae=float(statistics.median(maes)),
                    iterations_mean=float(statistics.fmean(iterations)),
                    early_stop_rate=sum(early_stops) / cfg.runs,
                    tokens_in=sum(m.tokens_in for m in meters),
                    tokens_out=sum(m.tokens_out for m in meters),
                    refiner_calls=sum(m.calls["refiner"] for m in meters),
                    scaler_mean=scaler.mean,
                    scaler_std=scaler.std,
                    test_windows=len(origins[cell_keys[0]]),
                    max_test_windows=cfg.max_test_windows,
                )
            )
    if stop.error is not None:
        # what finished stays inspectable; the grid raises its first error
        if rows and run_dir is not None:
            emit_report(rows, run_dir / f"{stem}.partial")
        raise stop.error
    if run_dir is not None:
        emit_report(rows, run_dir / stem)
    return rows, run_dir


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in name)


def _make_run_dir(output_dir: str) -> Path:
    """A new ``run-<stamp>`` directory under ``output_dir``; a name another
    run already took gets the next free ``-<n>`` suffix."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    candidate = Path(output_dir) / f"run-{stamp}"
    suffix = 2
    while True:
        try:
            candidate.mkdir(parents=True)
            return candidate
        except FileExistsError:
            candidate = candidate.with_name(f"run-{stamp}-{suffix}")
            suffix += 1


def run_experiment(
    cfg: ExperimentConfig,
    backend: Backend,
    jobs: int | None = None,
    emit: bool = True,
) -> tuple[list[ReportRow], Path | None]:
    """Run the configured grid; returns (rows, run directory).

    Up to ``jobs`` (horizon, method, run) cells run at a time, so up to
    ``jobs`` calls are in flight (None: :data:`DEFAULT_JOBS` if the grid's
    first cell mostly waits on its calls, else 1; see :func:`_run_grid`);
    rows and logs do not depend on ``jobs``. With ``emit`` (the default)
    the rows land in ``report.csv`` and ``report.json`` inside a fresh
    timestamped run directory, next to the per-session logs.
    """
    methods = [(m, m) for m in cfg.methods]
    return _run_grid(cfg, backend, methods, "report", jobs, emit)


def run_ablation(
    cfg: ExperimentConfig,
    backend: Backend,
    jobs: int | None = None,
    emit: bool = True,
) -> tuple[list[ReportRow], Path | None]:
    """Run exactly the four ablation conditions, in the fixed order
    Simple, Simple+Retrieval, Simple+IR, FLAIRR, for each horizon."""
    return _run_grid(cfg, backend, list(ABLATION_CONDITIONS), "ablation", jobs, emit)


def _row_record(row: ReportRow) -> dict:
    """The row's fields in declaration order, ``run_maes`` expanded in
    place into ``run_<i>_mae`` columns."""
    record = {}
    for f in fields(row):
        if f.name == "run_maes":
            record.update((f"run_{i}_mae", v) for i, v in enumerate(row.run_maes, 1))
        else:
            record[f.name] = getattr(row, f.name)
    return record


def emit_report(rows: list[ReportRow], stem_path) -> None:
    """Write rows to ``<stem_path>.csv`` and ``<stem_path>.json`` with a
    deterministic column order."""
    if not rows:
        raise ValueError("cannot emit an empty report")
    stem = Path(stem_path)
    stem.parent.mkdir(parents=True, exist_ok=True)
    records = [_row_record(row) for row in rows]
    columns = list(records[0])
    for record in records[1:]:
        if list(record) != columns:
            raise ValueError("report rows disagree on run count; cannot tabulate")
    with open(f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([_cell_text(record[c]) for c in columns])
    doc = {"columns": columns, "rows": records}
    Path(f"{stem}.json").write_text(
        strict_json(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def _cell_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
