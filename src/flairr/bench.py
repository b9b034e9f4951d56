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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .backends import Backend, CompletionReply, CompletionRequest
from .errors import ConfigError
from .prompts import DatasetMeta, TemplateLibrary
from .retrieval import build_hist_db
from .series import TimeSeries, load_csv, split, window_at, mae
from .session import SessionConfig, forecast_with, run_session, strict_json

__all__ = [
    "DEFAULT_CONTEXT_LENGTH",
    "KNOWN_METHODS",
    "ABLATION_CONDITIONS",
    "ExperimentConfig",
    "ReportRow",
    "run_experiment",
    "run_ablation",
    "emit_report",
]

DEFAULT_CONTEXT_LENGTH = 96

KNOWN_METHODS = ("simple", "retrieval-only", "ir-only", "flairr")

# (method id, display label), in the fixed presentation order
ABLATION_CONDITIONS = (
    ("simple", "Simple"),
    ("retrieval-only", "Simple+Retrieval"),
    ("ir-only", "Simple+IR"),
    ("flairr", "FLAIRR"),
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
    train_fraction: float = 0.7
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
            if method not in KNOWN_METHODS and not method.startswith("asp:"):
                raise ConfigError(
                    f"unknown method {method!r}; expected one of {KNOWN_METHODS} "
                    "or 'asp:<strategy-name>'"
                )
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
        dataset = doc.get("dataset", {})
        if "target" not in dataset:
            raise ConfigError(f"{p}: dataset.target is required")
        try:
            return cls(
                target=dataset["target"],
                dataset_path=dataset.get("path"),
                dataset_name=dataset.get("name"),
                dataset_description=dataset.get("description", ""),
                timestamp_column=dataset.get("timestamp_column"),
                horizons=tuple(int(h) for h in doc.get("horizons", [])),
                methods=tuple(doc.get("methods", [])),
                runs=int(doc.get("runs", 5)),
                train_fraction=float(doc.get("train_fraction", 0.7)),
                max_test_windows=int(doc.get("max_test_windows", 20)),
                output_dir=str(doc.get("output_dir", "bench-out")),
                seed=int(doc.get("seed", 0)),
                session_overrides=dict(doc.get("session", {})),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{p}: bad experiment config value: {exc}") from exc


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


class _TokenMeter(Backend):
    """Counts calls and token usage per tag on the way through."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.calls = {"forecaster": 0, "refiner": 0, "synthesis": 0}
        self.tokens_in = 0
        self.tokens_out = 0
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> CompletionReply:
        reply = self.inner.complete(request)
        with self._lock:
            self.calls[request.tag] += 1
            if reply.token_counts is not None:
                self.tokens_in += reply.token_counts[0]
                self.tokens_out += reply.token_counts[1]
        return reply


def method_wiring(method: str) -> tuple[bool, bool, str | None]:
    """(retrieval_enabled, refinement_enabled, strategy) for a method id."""
    if method == "simple":
        return False, False, None
    if method == "retrieval-only":
        return True, False, None
    if method == "ir-only":
        return False, True, None
    if method == "flairr":
        return True, True, None
    if method.startswith("asp:"):
        name = method[len("asp:") :]
        if not name:
            raise ConfigError("asp method needs a strategy name, e.g. 'asp:deep-stl'")
        # a static strategy prompt evaluated with retrieval, no refinement
        return True, False, name
    raise ConfigError(f"unknown method {method!r}")


def _session_config(cfg: ExperimentConfig, horizon: int, method: str, run: int) -> SessionConfig:
    retrieval, refinement, _ = method_wiring(method)
    fields = {
        "context_length": DEFAULT_CONTEXT_LENGTH,
        "horizon": horizon,
        "retrieval_enabled": retrieval,
        "refinement_enabled": refinement,
        "seed": cfg.seed + run,
    }
    overrides = dict(cfg.session_overrides)
    overrides.pop("horizon", None)  # the grid owns the horizon
    for key in ("retrieval_enabled", "refinement_enabled", "seed"):
        overrides.pop(key, None)  # method wiring and run index own these
    fields.update(overrides)
    try:
        return SessionConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"bad session override: {exc}") from exc


def _load_series(cfg: ExperimentConfig) -> TimeSeries:
    if cfg.dataset_path is None:
        raise ConfigError("experiment config has no dataset path")
    return load_csv(
        cfg.dataset_path,
        target=cfg.target,
        timestamp_column=cfg.timestamp_column,
        name=cfg.dataset_name,
    )


def _test_origins(
    split_idx: int, total: int, context_length: int, horizon: int, cap: int
) -> list[int]:
    """Non-overlapping truth windows tiling the test region, stride = horizon."""
    origins = []
    t = split_idx
    while t + horizon <= total and len(origins) < cap:
        if t - context_length >= 0:
            origins.append(t)
        t += horizon
    return origins


def _run_cell(
    cfg: ExperimentConfig,
    method: str,
    horizon: int,
    run: int,
    train_values: np.ndarray,
    full_values: np.ndarray,
    split_idx: int,
    backend: Backend,
    meta: DatasetMeta,
    library: TemplateLibrary | None,
    log_path: Path | None,
) -> tuple[float, int, bool]:
    """One (method, horizon, run): session then test-grid forecast.

    Returns (test MAE, iterations used, early stop).
    """
    _, _, strategy = method_wiring(method)
    session_cfg = _session_config(cfg, horizon, method, run)
    result = run_session(
        session_cfg,
        train_values,
        backend,
        library=library,
        meta=meta,
        strategy=strategy,
        log_path=log_path,
    )

    origins = _test_origins(
        split_idx,
        full_values.size,
        session_cfg.context_length,
        horizon,
        cfg.max_test_windows,
    )
    if not origins:
        raise ConfigError(
            f"test region too short for a single (context={session_cfg.context_length}, "
            f"horizon={horizon}) window"
        )
    db = (
        build_hist_db(train_values, session_cfg.context_length, horizon)
        if session_cfg.retrieval_enabled
        else None
    )
    window_maes = []
    for origin in origins:
        window = window_at(full_values, origin, session_cfg.context_length, horizon)
        values = forecast_with(
            result,
            window,
            session_cfg,
            db,
            backend,
            library=library,
            meta=meta,
            strategy=strategy,
        )
        window_maes.append(mae(values, window.truth))
    return float(np.mean(window_maes)), result.iterations_used, result.early_stop


def _run_grid(
    cfg: ExperimentConfig,
    backend: Backend,
    methods: list[tuple[str, str]],
    series: TimeSeries | None,
    library: TemplateLibrary | None,
    run_dir: Path | None,
    jobs: int,
) -> list[ReportRow]:
    data = series if series is not None else _load_series(cfg)
    train, test = split(data, cfg.train_fraction, scale=True)
    scaler = train.target_scaler
    train_values = np.asarray(train.target_values)
    full_values = np.concatenate([train_values, np.asarray(test.target_values)])
    split_idx = train_values.size
    meta = DatasetMeta(
        name=data.name,
        description=cfg.dataset_description or "a time series dataset",
        target=data.target,
    )

    cells = []
    for horizon in cfg.horizons:
        for method, label in methods:
            cells.append((horizon, method, label))

    rows: list[ReportRow] = []

    def _one_row(horizon: int, method: str, label: str) -> ReportRow:
        meter = _TokenMeter(backend)
        maes: list[float] = []
        iterations: list[int] = []
        early_stops = 0
        for run in range(cfg.runs):
            log_path = None
            if run_dir is not None:
                safe = method.replace(":", "-")
                log_path = run_dir / f"{_safe_name(data.name)}-h{horizon}-{safe}-run{run}.jsonl"
            cell_mae, used, stopped = _run_cell(
                cfg, method, horizon, run, train_values, full_values,
                split_idx, meter, meta, library, log_path,
            )
            maes.append(cell_mae)
            iterations.append(used)
            early_stops += int(stopped)
        return ReportRow(
            dataset=data.name,
            horizon=horizon,
            method=label,
            run_maes=tuple(maes),
            median_mae=float(statistics.median(maes)),
            iterations_mean=float(statistics.fmean(iterations)),
            early_stop_rate=early_stops / cfg.runs,
            tokens_in=meter.tokens_in,
            tokens_out=meter.tokens_out,
            refiner_calls=meter.calls["refiner"],
            mae_space="scaled",
            scaler_mean=scaler.mean if scaler else 0.0,
            scaler_std=scaler.std if scaler else 1.0,
            test_windows=len(
                _test_origins(
                    split_idx, full_values.size,
                    _session_config(cfg, horizon, method, 0).context_length,
                    horizon, cfg.max_test_windows,
                )
            ),
            max_test_windows=cfg.max_test_windows,
        )

    try:
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                rows.extend(pool.map(lambda c: _one_row(*c), cells))
        else:
            for cell in cells:
                rows.append(_one_row(*cell))
    except Exception:
        # keep whatever finished inspectable before propagating
        if rows and run_dir is not None:
            emit_report(rows, "csv", run_dir / "report.partial.csv")
            emit_report(rows, "json", run_dir / "report.partial.json")
        raise
    return rows


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in name)


def _make_run_dir(output_dir: str) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    base = Path(output_dir)
    candidate = base / f"run-{stamp}"
    suffix = 2
    while candidate.exists():
        candidate = base / f"run-{stamp}-{suffix}"
        suffix += 1
    candidate.mkdir(parents=True)
    return candidate


def run_experiment(
    cfg: ExperimentConfig,
    backend: Backend,
    series: TimeSeries | None = None,
    library: TemplateLibrary | None = None,
    jobs: int = 1,
    emit: bool = True,
) -> tuple[list[ReportRow], Path | None]:
    """Run the configured grid; returns (rows, run directory).

    With ``emit`` (the default) the rows land in ``report.csv`` and
    ``report.json`` inside a fresh timestamped run directory, next to the
    per-session logs.
    """
    run_dir = _make_run_dir(cfg.output_dir) if emit else None
    methods = [(m, m) for m in cfg.methods]
    rows = _run_grid(cfg, backend, methods, series, library, run_dir, jobs)
    if run_dir is not None:
        emit_report(rows, "csv", run_dir / "report.csv")
        emit_report(rows, "json", run_dir / "report.json")
    return rows, run_dir


def run_ablation(
    cfg: ExperimentConfig,
    backend: Backend,
    series: TimeSeries | None = None,
    library: TemplateLibrary | None = None,
    jobs: int = 1,
    emit: bool = True,
) -> tuple[list[ReportRow], Path | None]:
    """Run exactly the four ablation conditions, in the fixed order
    Simple, Simple+Retrieval, Simple+IR, FLAIRR, for each horizon."""
    run_dir = _make_run_dir(cfg.output_dir) if emit else None
    rows = _run_grid(
        cfg, backend, list(ABLATION_CONDITIONS), series, library, run_dir, jobs
    )
    if run_dir is not None:
        emit_report(rows, "csv", run_dir / "ablation.csv")
        emit_report(rows, "json", run_dir / "ablation.json")
    return rows, run_dir


def _row_record(row: ReportRow) -> dict:
    record = {
        "dataset": row.dataset,
        "horizon": row.horizon,
        "method": row.method,
    }
    for idx, value in enumerate(row.run_maes, start=1):
        record[f"run_{idx}_mae"] = value
    record.update(
        {
            "median_mae": row.median_mae,
            "iterations_mean": row.iterations_mean,
            "early_stop_rate": row.early_stop_rate,
            "tokens_in": row.tokens_in,
            "tokens_out": row.tokens_out,
            "refiner_calls": row.refiner_calls,
            "mae_space": row.mae_space,
            "scaler_mean": row.scaler_mean,
            "scaler_std": row.scaler_std,
            "test_windows": row.test_windows,
            "max_test_windows": row.max_test_windows,
        }
    )
    return record


def emit_report(rows: list[ReportRow], fmt: str, path) -> Path:
    """Write rows as CSV or JSON with a deterministic column order."""
    if not rows:
        raise ValueError("cannot emit an empty report")
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    records = [_row_record(row) for row in rows]
    columns = list(records[0])
    for record in records[1:]:
        if list(record) != columns:
            raise ValueError("report rows disagree on run count; cannot tabulate")

    if fmt == "csv":
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for record in records:
                writer.writerow([_cell_text(record[c]) for c in columns])
    elif fmt == "json":
        doc = {"columns": columns, "rows": records}
        out.write_text(
            strict_json(doc, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    else:
        raise ValueError(f"unknown report format {fmt!r}; expected 'csv' or 'json'")
    return out


def _cell_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)
