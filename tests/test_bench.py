"""Benchmark harness: grid configs, method wiring, report emission, and
end-to-end runs against the deterministic oracle backend."""

from __future__ import annotations

import csv
import json
import statistics

import pytest

from flairr.bench import (
    ABLATION_CONDITIONS,
    KNOWN_METHODS,
    ExperimentConfig,
    ReportRow,
    emit_report,
    method_wiring,
    run_ablation,
    run_experiment,
)
from flairr.errors import ConfigError, TemplateError
from flairr.testing import SyntheticOracleBackend, seasonal_series

EXPECTED_COLUMNS = [
    "dataset",
    "horizon",
    "method",
    "run_1_mae",
    "run_2_mae",
    "median_mae",
    "iterations_mean",
    "early_stop_rate",
    "tokens_in",
    "tokens_out",
    "refiner_calls",
    "mae_space",
    "scaler_mean",
    "scaler_std",
    "test_windows",
    "max_test_windows",
]


@pytest.fixture
def toy_csv(tmp_path):
    values = seasonal_series(400, period=16, trend=0.01, amplitude=0.5, noise=0.05, seed=3)
    path = tmp_path / "toy.csv"
    path.write_text("v\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return path


def exp_config(csv_path, out_dir, methods=("simple", "flairr"), runs=2, **kw):
    return ExperimentConfig(
        target="v",
        horizons=(8,),
        methods=tuple(methods),
        dataset_path=str(csv_path),
        dataset_name="toy",
        dataset_description="a toy seasonal series",
        runs=runs,
        max_test_windows=4,
        output_dir=str(out_dir),
        session_overrides={"context_length": 16, "sample_size": 2, "max_iterations": 2},
        **kw,
    )


# --- configuration ----------------------------------------------------------


def test_experiment_config_validation():
    ok = dict(target="v", horizons=(8,), methods=("simple",))
    ExperimentConfig(**ok)
    ExperimentConfig(**{**ok, "methods": ("asp:deep-stl",)})
    with pytest.raises(ConfigError, match="runs"):
        ExperimentConfig(**ok, runs=0)
    with pytest.raises(ConfigError, match="horizons"):
        ExperimentConfig(target="v", horizons=(), methods=("simple",))
    with pytest.raises(ConfigError, match="horizons"):
        ExperimentConfig(target="v", horizons=(0,), methods=("simple",))
    with pytest.raises(ConfigError, match="methods"):
        ExperimentConfig(target="v", horizons=(8,), methods=())
    with pytest.raises(ConfigError, match="unknown method"):
        ExperimentConfig(target="v", horizons=(8,), methods=("magic",))
    with pytest.raises(ConfigError, match="max_test_windows"):
        ExperimentConfig(**ok, max_test_windows=0)


def test_experiment_config_from_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(
        json.dumps(
            {
                "dataset": {
                    "path": "data.csv",
                    "target": "OT",
                    "name": "power",
                    "description": "transformer telemetry",
                },
                "horizons": [24, 48],
                "methods": ["simple", "flairr"],
                "runs": 3,
                "train_fraction": 0.6,
                "max_test_windows": 10,
                "output_dir": "out",
                "seed": 11,
                "session": {"context_length": 48},
            }
        )
    )
    cfg = ExperimentConfig.from_json(path)
    assert cfg.target == "OT" and cfg.dataset_path == "data.csv"
    assert cfg.horizons == (24, 48) and cfg.methods == ("simple", "flairr")
    assert cfg.runs == 3 and cfg.train_fraction == 0.6 and cfg.seed == 11
    assert cfg.session_overrides == {"context_length": 48}


def test_experiment_config_from_json_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        ExperimentConfig.from_json(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(ConfigError, match="malformed"):
        ExperimentConfig.from_json(bad)
    no_target = tmp_path / "no_target.json"
    no_target.write_text(json.dumps({"dataset": {"path": "x.csv"}, "horizons": [8], "methods": ["simple"]}))
    with pytest.raises(ConfigError, match="dataset.target"):
        ExperimentConfig.from_json(no_target)


def test_method_wiring():
    assert method_wiring("simple") == (False, False, None)
    assert method_wiring("retrieval-only") == (True, False, None)
    assert method_wiring("ir-only") == (False, True, None)
    assert method_wiring("flairr") == (True, True, None)
    assert method_wiring("asp:deep-stl") == (True, False, "deep-stl")
    with pytest.raises(ConfigError, match="strategy name"):
        method_wiring("asp:")
    with pytest.raises(ConfigError, match="unknown method"):
        method_wiring("mystery")
    assert set(KNOWN_METHODS) == {"simple", "retrieval-only", "ir-only", "flairr"}


# --- experiment runs --------------------------------------------------------


def test_run_experiment_end_to_end(toy_csv, tmp_path):
    cfg = exp_config(toy_csv, tmp_path / "out")
    rows, run_dir = run_experiment(cfg, SyntheticOracleBackend(seed=5))

    assert [row.method for row in rows] == ["simple", "flairr"]
    simple, flairr = rows
    for row in rows:
        assert row.dataset == "toy" and row.horizon == 8
        assert len(row.run_maes) == 2
        assert row.median_mae == statistics.median(row.run_maes)
        assert row.mae_space == "scaled"
        assert row.scaler_std > 0.0
        assert row.test_windows == 4 and row.max_test_windows == 4
    assert simple.refiner_calls == 0
    assert simple.iterations_mean == 1.0
    assert simple.early_stop_rate == 0.0
    assert flairr.refiner_calls == 4  # 2 runs x 2 iterations, never Done
    assert flairr.iterations_mean == 2.0

    assert run_dir is not None and run_dir.is_dir()
    assert (run_dir / "report.csv").is_file()
    assert (run_dir / "report.json").is_file()
    logs = sorted(p.name for p in run_dir.glob("*.jsonl"))
    assert logs == [
        "toy-h8-flairr-run0.jsonl",
        "toy-h8-flairr-run1.jsonl",
        "toy-h8-simple-run0.jsonl",
        "toy-h8-simple-run1.jsonl",
    ]

    doc = json.loads((run_dir / "report.json").read_text())
    assert doc["columns"] == EXPECTED_COLUMNS
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["method"] == "simple"
    assert doc["rows"][1]["run_2_mae"] == flairr.run_maes[1]

    with open(run_dir / "report.csv", newline="") as fh:
        reader = list(csv.reader(fh))
    assert reader[0] == EXPECTED_COLUMNS
    assert len(reader) == 3
    # float cells are repr()-rendered, so they round-trip exactly
    assert float(reader[2][3]) == flairr.run_maes[0]


def test_run_experiment_is_reproducible(toy_csv, tmp_path):
    def report_bytes(out_name):
        cfg = exp_config(toy_csv, tmp_path / out_name)
        _, run_dir = run_experiment(cfg, SyntheticOracleBackend(seed=5))
        return (run_dir / "report.csv").read_bytes()

    assert report_bytes("out-a") == report_bytes("out-b")


def test_run_experiment_parallel_matches_serial(toy_csv, tmp_path):
    cfg = exp_config(toy_csv, tmp_path / "out")

    def signature(rows):
        return [(row.method, row.run_maes) for row in rows]

    serial, _ = run_experiment(cfg, SyntheticOracleBackend(seed=5), emit=False)
    parallel, _ = run_experiment(cfg, SyntheticOracleBackend(seed=5), jobs=2, emit=False)
    assert signature(serial) == signature(parallel)


def test_run_experiment_session_overrides_cannot_hijack_the_grid(toy_csv, tmp_path):
    cfg = exp_config(toy_csv, tmp_path / "out", methods=("simple",))
    hijacked = ExperimentConfig(
        target=cfg.target,
        horizons=cfg.horizons,
        methods=cfg.methods,
        dataset_path=cfg.dataset_path,
        dataset_name=cfg.dataset_name,
        runs=1,
        max_test_windows=4,
        output_dir=cfg.output_dir,
        session_overrides={
            "context_length": 16,
            "sample_size": 2,
            "horizon": 999,  # the grid owns the horizon
            "retrieval_enabled": True,  # the method owns the wiring
            "seed": 424242,  # the run index owns the seed
        },
    )
    rows, _ = run_experiment(hijacked, SyntheticOracleBackend(seed=5), emit=False)
    assert rows[0].horizon == 8
    assert rows[0].refiner_calls == 0  # stayed a Simple run


def test_run_experiment_bad_session_override_key(toy_csv, tmp_path):
    cfg = exp_config(toy_csv, tmp_path / "out", methods=("simple",))
    broken = ExperimentConfig(
        target=cfg.target,
        horizons=cfg.horizons,
        methods=cfg.methods,
        dataset_path=cfg.dataset_path,
        runs=1,
        output_dir=cfg.output_dir,
        session_overrides={"context_length": 16, "sample_size": 2, "nonsense_knob": 1},
    )
    with pytest.raises(ConfigError, match="bad session override"):
        run_experiment(broken, SyntheticOracleBackend(seed=5), emit=False)


def test_failed_grid_saves_partial_report(toy_csv, tmp_path):
    out = tmp_path / "out"
    cfg = exp_config(toy_csv, out, methods=("simple", "asp:missing-strategy"), runs=1)
    with pytest.raises(TemplateError, match="unknown strategy"):
        run_experiment(cfg, SyntheticOracleBackend(seed=5))
    run_dirs = list(out.glob("run-*"))
    assert len(run_dirs) == 1
    partial = run_dirs[0] / "report.partial.csv"
    assert partial.is_file()
    with open(partial, newline="") as fh:
        reader = list(csv.reader(fh))
    assert len(reader) == 2  # header + the simple row that finished
    assert reader[1][2] == "simple"


def test_run_ablation_fixed_conditions(toy_csv, tmp_path):
    cfg = exp_config(toy_csv, tmp_path / "out", methods=("simple",))  # methods ignored
    rows, run_dir = run_ablation(cfg, SyntheticOracleBackend(seed=5))
    assert [row.method for row in rows] == [
        "Simple",
        "Simple+Retrieval",
        "Simple+IR",
        "FLAIRR",
    ]
    by_label = {row.method: row for row in rows}
    assert by_label["Simple"].refiner_calls == 0
    assert by_label["Simple+Retrieval"].refiner_calls == 0
    assert by_label["Simple+IR"].refiner_calls == 4
    assert by_label["FLAIRR"].refiner_calls == 4
    assert (run_dir / "ablation.csv").is_file()
    assert (run_dir / "ablation.json").is_file()
    assert [m for m, _ in ABLATION_CONDITIONS] == ["simple", "retrieval-only", "ir-only", "flairr"]


# --- report emission --------------------------------------------------------


def make_row(method="simple", run_maes=(0.5, 0.3)):
    return ReportRow(
        dataset="toy",
        horizon=8,
        method=method,
        run_maes=tuple(run_maes),
        median_mae=statistics.median(run_maes),
        iterations_mean=1.0,
        early_stop_rate=0.0,
        tokens_in=0,
        tokens_out=0,
        refiner_calls=0,
    )


def test_emit_report_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="empty report"):
        emit_report([], "csv", tmp_path / "r.csv")
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report([make_row()], "xml", tmp_path / "r.xml")
    rows = [make_row(), make_row(run_maes=(0.5, 0.3, 0.1))]
    with pytest.raises(ValueError, match="disagree on run count"):
        emit_report(rows, "csv", tmp_path / "r.csv")


def test_emit_report_csv_floats_round_trip(tmp_path):
    row = make_row(run_maes=(0.1 + 0.2, 1.0 / 3.0))
    path = emit_report([row], "csv", tmp_path / "r.csv")
    with open(path, newline="") as fh:
        header, data = list(csv.reader(fh))
    assert float(data[header.index("run_1_mae")]) == row.run_maes[0]
    assert float(data[header.index("run_2_mae")]) == row.run_maes[1]
    assert data[header.index("mae_space")] == "scaled"


def test_emit_report_json_writes_non_finite_values_as_null(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    row = make_row(run_maes=(float("inf"), 0.25))
    path = emit_report([row], "json", tmp_path / "r.json")
    doc = json.loads(path.read_text(), parse_constant=reject)
    assert doc["rows"][0]["run_1_mae"] is None
    assert doc["rows"][0]["run_2_mae"] == 0.25


def test_emit_report_is_deterministic(tmp_path):
    rows = [make_row(), make_row(method="flairr", run_maes=(0.2, 0.4))]
    a = emit_report(rows, "csv", tmp_path / "a.csv").read_bytes()
    b = emit_report(rows, "csv", tmp_path / "b.csv").read_bytes()
    assert a == b
    ja = emit_report(rows, "json", tmp_path / "a.json").read_bytes()
    jb = emit_report(rows, "json", tmp_path / "b.json").read_bytes()
    assert ja == jb
