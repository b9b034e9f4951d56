"""Benchmark harness: grid configs, method wiring, report emission, and
end-to-end runs against the deterministic oracle backend."""

from __future__ import annotations

import csv
import dataclasses
import json
import statistics
import sys
import threading
import time
import typing
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flairr.backends import (
    Backend,
    CallMeter,
    CompletionReply,
    CompletionRequest,
    RecordingBackend,
    ScriptedBackend,
    ScriptEntry,
    load_script,
)
from flairr import bench
from flairr.bench import (
    ABLATION_CONDITIONS,
    KNOWN_METHODS,
    ExperimentConfig,
    ReportRow,
    _METHOD_FIELDS,
    _ReplyMemo,
    _checked,
    _make_run_dir,
    _session_config,
    emit_report,
    run_ablation,
    run_experiment,
)
from flairr.errors import BackendError, ConfigError, TemplateError
from flairr.prompts import list_strategies
from flairr.session import FORMAT_RETRY_SUFFIX, SessionConfig
from flairr.testing import (
    SyntheticOracleBackend,
    forecast_reply,
    instructions_reply,
    refiner_reply,
    seasonal_series,
)

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


def write_toy_csv(path):
    values = seasonal_series(400, period=16, trend=0.01, amplitude=0.5, noise=0.05, seed=3)
    path.write_text("v\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    return path


@pytest.fixture
def toy_csv(tmp_path):
    return write_toy_csv(tmp_path / "toy.csv")


class TokenStamper(Backend):
    """Forwards to ``inner``, stamping each reply with ``stamp(request, text)``
    as its token counts; by default the prompt and reply lengths."""

    def __init__(self, inner, stamp=lambda request, text: (len(request.prompt), len(text))):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.stamp = stamp

    def complete(self, request):
        text = self.inner.complete(request).text
        return CompletionReply(text=text, token_counts=self.stamp(request, text))


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
    with pytest.raises(ConfigError, match="horizons repeat 8"):
        ExperimentConfig(target="v", horizons=(8, 12, 8), methods=("simple",))
    with pytest.raises(ConfigError, match="methods repeat 'flairr'"):
        ExperimentConfig(target="v", horizons=(8,), methods=("flairr", "simple", "flairr"))


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


def test_experiment_config_from_json_leaves_absent_keys_at_the_defaults(tmp_path):
    path = tmp_path / "exp.json"
    doc = {"dataset": {"target": "v", "path": "x.csv"}, "horizons": [8], "methods": ["simple"]}
    path.write_text(json.dumps(doc))
    assert ExperimentConfig.from_json(path) == ExperimentConfig(
        target="v", horizons=(8,), methods=("simple",), dataset_path="x.csv"
    )


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


_GRID = {"dataset": {"target": "v"}, "horizons": [8], "methods": ["simple"]}


@pytest.mark.parametrize(
    "doc, what",
    [
        ([1, 2], "experiment config"),
        ({"dataset": 5}, "dataset"),
        ({"dataset": "target"}, "dataset"),
        ({**_GRID, "horizons": "24"}, "horizons"),  # not (2, 4)
        ({**_GRID, "horizons": 24}, "horizons"),
        ({**_GRID, "horizons": {"24": 1}}, "horizons"),
        ({**_GRID, "horizons": ["24"]}, "horizons"),
        ({**_GRID, "horizons": [24.0]}, "horizons"),
        ({**_GRID, "horizons": [8, True]}, "horizons"),
        ({**_GRID, "methods": "flairr"}, "methods"),  # not 'f', 'l', ...
        ({**_GRID, "methods": [1]}, "methods"),
        ({**_GRID, "runs": 1.9}, "runs"),  # not 1 run
        ({**_GRID, "runs": True}, "runs"),
        ({**_GRID, "runs": "3"}, "runs"),
        ({**_GRID, "max_test_windows": 1.5}, "max_test_windows"),
        ({**_GRID, "seed": None}, "seed"),
        ({**_GRID, "train_fraction": "0.7"}, "train_fraction"),
        ({**_GRID, "train_fraction": False}, "train_fraction"),
        ({**_GRID, "output_dir": 7}, "output_dir"),
        ({**_GRID, "dataset": {"target": 5}}, "dataset.target"),
        ({**_GRID, "dataset": {"target": "v", "name": 5}}, "dataset.name"),
        ({**_GRID, "dataset": {"target": "v", "path": 3}}, "dataset.path"),  # no fd 3
        ({**_GRID, "dataset": {"target": "v", "description": None}}, "dataset.description"),
        ({**_GRID, "dataset": {"target": "v", "timestamp_column": 0}}, "dataset.timestamp_column"),
        ({**_GRID, "session": [["context_length", 16]]}, "session"),  # not a dict
        ({**_GRID, "session": {"context_length": 16.5}}, "session.context_length"),
        ({**_GRID, "session": {"sample_size": True}}, "session.sample_size"),
        ({**_GRID, "session": {"stop_threshold_pct": "5"}}, "session.stop_threshold_pct"),
        ({**_GRID, "session": {"retrieval_enabled": 1}}, "session.retrieval_enabled"),
    ],
)
def test_experiment_config_from_json_rejects_non_objects(tmp_path, doc, what):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    kind = _JSON_KIND.get(what, "object")
    with pytest.raises(ConfigError, match=f"{what} must be a JSON {kind}"):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({**_GRID, "run": 1}, "run"),
        ({**_GRID, "max_test_window": 2}, "max_test_window"),
        ({**_GRID, "dataset": {"target": "v", "pth": 1}}, "dataset.pth"),
        # fields the config sets under other names
        ({**_GRID, "target": "v"}, "target"),
        ({**_GRID, "session_overrides": {}}, "session_overrides"),
    ],
)
def test_experiment_config_from_json_refuses_an_unknown_key(tmp_path, doc, key):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"unknown key {key}; expected one of"):
        ExperimentConfig.from_json(path)


# the JSON type each checked field must have; every other one is an object
_JSON_KIND = {
    "horizons": "array",
    "methods": "array",
    "runs": "integer",
    "max_test_windows": "integer",
    "seed": "integer",
    "train_fraction": "number",
    "session.context_length": "integer",
    "session.sample_size": "integer",
    "session.stop_threshold_pct": "number",
    "session.retrieval_enabled": "boolean",
    **{key: "string" for key in (
        "output_dir", "dataset.target", "dataset.name", "dataset.path",
        "dataset.description", "dataset.timestamp_column",
    )},
}


def test_experiment_config_from_json_keeps_typed_values(tmp_path):
    path = tmp_path / "exp.json"
    doc = {
        **_GRID,
        "dataset": {"target": "v", "path": None, "name": None, "timestamp_column": None},
        "train_fraction": 1,  # an integer is a JSON number
        "session": {"stop_threshold_pct": 2, "strategy": "deep-stl", "nonsense_knob": 1.5},
    }
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.dataset_path is None and cfg.timestamp_column is None
    assert cfg.train_fraction == 1.0 and isinstance(cfg.train_fraction, float)
    # a knob that is no SessionConfig field, or that the method owns, is
    # refused when the grid builds the session (see the tests below)
    assert cfg.session_overrides == doc["session"]


# a value of the right JSON type for each field without a default
_REQUIRED = {
    "target": "v", "horizons": [8], "methods": ["simple"], "context_length": 16, "horizon": 8,
}


@pytest.mark.parametrize("cls", [ExperimentConfig, SessionConfig])
def test_every_config_field_has_a_json_type(cls):
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            value = f.default
        elif f.default_factory is not dataclasses.MISSING:
            value = f.default_factory()
        else:
            value = _REQUIRED[f.name]
        hint = hints[f.name]
        _checked(value, hint, f.name, Path("exp.json"))
        wrong = "text" if hint is dict else {"text": 1}
        with pytest.raises(ConfigError, match=f"exp.json: {f.name} must be a JSON "):
            _checked(wrong, hint, f.name, Path("exp.json"))


def test_method_wiring():
    cfg = ExperimentConfig(target="v", horizons=(8,), methods=("simple",), seed=3)

    def wiring(method):
        session = _session_config(cfg, 8, method, 1)
        assert (session.horizon, session.seed) == (8, 4)
        return session.retrieval_enabled, session.refinement_enabled, session.strategy

    assert wiring("simple") == (False, False, None)
    assert wiring("retrieval-only") == (True, False, None)
    assert wiring("ir-only") == (False, True, None)
    assert wiring("flairr") == (True, True, None)
    assert wiring("asp:deep-stl") == (True, False, "deep-stl")
    with pytest.raises(ConfigError, match="strategy name"):
        wiring("asp:")
    with pytest.raises(TemplateError, match="unknown strategy 'no-such'"):
        wiring("asp:no-such")
    with pytest.raises(ConfigError, match="unknown method"):
        wiring("mystery")
    assert set(KNOWN_METHODS) == {"simple", "retrieval-only", "ir-only", "flairr"}


def test_ablation_conditions_follow_the_method_table():
    assert [method for method, _ in ABLATION_CONDITIONS] == list(_METHOD_FIELDS)
    assert KNOWN_METHODS == tuple(_METHOD_FIELDS)


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


@pytest.mark.parametrize("recorded", [False, True], ids=["bare", "recorded"])
def test_parallel_grid_refuses_an_ordinal_script(toy_csv, tmp_path, recorded):
    script = ScriptedBackend([ScriptEntry(reply="unused")])
    backend = RecordingBackend(script, tmp_path / "rec.jsonl") if recorded else script
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="--jobs"):
        run_experiment(exp_config(toy_csv, out), backend, jobs=2)
    assert script.remaining == 1  # refused before the first completion call
    assert not out.exists() and not (tmp_path / "rec.jsonl").exists()
    with pytest.raises(ConfigError, match="--jobs"):
        run_ablation(exp_config(toy_csv, out), backend, jobs=2)


def test_parallel_grid_replays_a_recording(toy_csv, tmp_path):
    # two runs send identical prompts under seeds cfg.seed and cfg.seed + 1
    cfg = exp_config(toy_csv, tmp_path / "out", runs=2)
    recording = tmp_path / "rec.jsonl"
    live, _ = run_experiment(
        cfg,
        RecordingBackend(TokenStamper(SyntheticOracleBackend(seed=5)), recording),
        emit=False,
    )
    assert all(row.tokens_in > 0 and row.tokens_out > 0 for row in live)
    for jobs in (1, 2):
        replayed, _ = run_experiment(cfg, load_script(recording), jobs=jobs, emit=False)
        assert replayed == live


# a session key the grid owns, a value for it, and what the refusal names as its owner
_GRID_OWNED = {
    "horizon": (999, "the config's horizons set it"),
    "seed": (424242, "the config seed plus the run index sets it"),
    "retrieval_enabled": (True, "the method sets it"),
    "refinement_enabled": (True, "the method sets it"),
}


@pytest.mark.parametrize("key", list(_GRID_OWNED))
def test_run_experiment_session_overrides_cannot_hijack_the_grid(toy_csv, tmp_path, key):
    value, owner = _GRID_OWNED[key]
    out = tmp_path / "out"
    cfg = exp_config(toy_csv, out, methods=("simple",), runs=1)
    hijacked = dataclasses.replace(cfg, session_overrides={**cfg.session_overrides, key: value})
    backend = CallMeter(SyntheticOracleBackend(seed=5))
    with pytest.raises(ConfigError, match=f"^session.{key} is not an override; {owner}$"):
        run_experiment(hijacked, backend)
    assert sum(backend.calls.values()) == 0 and not out.exists()


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


@pytest.mark.parametrize("method", ["simple", "asp:monte-hall"])
def test_a_session_strategy_override_is_refused(toy_csv, tmp_path, method):
    cfg = exp_config(toy_csv, tmp_path / "out", methods=(method,), runs=1)
    overrides = {**cfg.session_overrides, "strategy": "deep-stl"}
    broken = dataclasses.replace(cfg, session_overrides=overrides)
    match = r"session.strategy is not an override; use the method 'asp:<name>'"
    with pytest.raises(ConfigError, match=match):
        run_experiment(broken, SyntheticOracleBackend(seed=5), emit=False)


@pytest.mark.parametrize("jobs", [0, -2])
def test_grid_refuses_fewer_than_one_job(toy_csv, tmp_path, jobs):
    out = tmp_path / "out"
    backend = CallMeter(SyntheticOracleBackend(seed=5))
    with pytest.raises(ConfigError, match=f"--jobs must be >= 1, got {jobs}"):
        run_experiment(exp_config(toy_csv, out), backend, jobs=jobs)
    with pytest.raises(ConfigError, match="--jobs must be >= 1"):
        run_ablation(exp_config(toy_csv, out), backend, jobs=jobs)
    assert sum(backend.calls.values()) == 0 and not out.exists()


def test_failed_grid_saves_partial_report(toy_csv, tmp_path):
    class RefinerGoesAway(SyntheticOracleBackend):  # Simple never asks it
        def complete(self, request):
            if request.tag == "refiner":
                raise BackendError("endpoint went away")
            return super().complete(request)

    out = tmp_path / "out"
    cfg = exp_config(toy_csv, out, methods=("simple", "flairr"), runs=1)
    with pytest.raises(BackendError, match="went away"):
        run_experiment(cfg, RefinerGoesAway(seed=5))
    run_dirs = list(out.glob("run-*"))
    assert len(run_dirs) == 1
    partial = run_dirs[0] / "report.partial.csv"
    assert partial.is_file()
    with open(partial, newline="") as fh:
        reader = list(csv.reader(fh))
    assert len(reader) == 2  # header + the simple row that finished
    assert reader[1][2] == "simple"


def test_failed_ablation_saves_partial_report_under_its_own_stem(toy_csv, tmp_path):
    class FailsAfterTwelveCalls(SyntheticOracleBackend):  # Simple and +Retrieval
        calls = 0

        def complete(self, request):
            self.calls += 1
            if self.calls > 12:
                raise BackendError("endpoint went away")
            return super().complete(request)

    out = tmp_path / "out"
    with pytest.raises(BackendError, match="went away"):
        run_ablation(exp_config(toy_csv, out, runs=1), FailsAfterTwelveCalls(seed=5))
    (run_dir,) = out.glob("run-*")
    assert (run_dir / "ablation.partial.json").is_file()
    with open(run_dir / "ablation.partial.csv", newline="") as fh:
        reader = list(csv.reader(fh))
    assert [row[2] for row in reader[1:]] == ["Simple", "Simple+Retrieval"]
    assert not list(run_dir.glob("report*")) and not (run_dir / "ablation.csv").exists()


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


# --- serial and parallel grids ---------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    oracle_seed=st.integers(0, 10_000),
    runs=st.integers(1, 3),
    methods=st.lists(
        st.sampled_from(KNOWN_METHODS + ("asp:deep-stl",)), min_size=1, max_size=4, unique=True
    ),
    max_iterations=st.integers(1, 3),
    sample_size=st.integers(1, 3),
    stamped=st.booleans(),
    data=st.data(),
)
def test_grids_give_the_same_rows_serial_and_parallel(
    tmp_path_factory, seed, oracle_seed, runs, methods, max_iterations, sample_size, stamped, data
):
    # a cell's result depends only on (config, horizon, method, run): two jobs
    # run a sub-grid and four the grid with its horizons and methods permuted
    base = tmp_path_factory.getbasetemp()
    cfg = ExperimentConfig(
        target="v",
        horizons=(4, 8),
        methods=tuple(methods),
        dataset_path=str(write_toy_csv(base / "grid.csv")),
        dataset_name="toy",
        runs=runs,
        max_test_windows=3,
        seed=seed,
        session_overrides={
            "context_length": 16,
            "sample_size": sample_size,
            "max_iterations": max_iterations,
        },
    )

    def subset(values):
        return tuple(data.draw(st.lists(st.sampled_from(values), min_size=1, unique=True)))

    sub_grid = dataclasses.replace(
        cfg,
        horizons=subset(cfg.horizons),
        methods=subset(methods),
        runs=data.draw(st.integers(1, runs)),
    )
    permuted = dataclasses.replace(
        cfg,
        horizons=tuple(data.draw(st.permutations(cfg.horizons))),
        methods=tuple(data.draw(st.permutations(methods))),
    )

    def oracle():
        backend = SyntheticOracleBackend(seed=oracle_seed)
        return TokenStamper(backend) if stamped else backend

    for run in (run_experiment, run_ablation):
        serial, _ = run(cfg, oracle(), emit=False)
        assert all(row.tokens_in > 0 for row in serial) == stamped
        by_key = {(row.horizon, row.method): row for row in serial}
        for jobs, grid in ((2, sub_grid), (4, permuted)):
            rows, _ = run(grid, oracle(), jobs=jobs, emit=False)
            labels = grid.methods if run is run_experiment else dict(ABLATION_CONDITIONS).values()
            assert [(row.horizon, row.method) for row in rows] == [
                (horizon, label) for horizon in grid.horizons for label in labels
            ]
            for row in rows:
                want = by_key[row.horizon, row.method]
                assert row.run_maes == want.run_maes[: grid.runs]
                assert row == want or grid.runs < runs


def test_report_tokens_are_the_session_logs_plus_the_test_forecasts(toy_csv, tmp_path):
    # ir-only opens with simple's validation pass, so the memo serves hits
    cfg = exp_config(toy_csv, tmp_path / "out", methods=KNOWN_METHODS)
    backend = TokenStamper(SyntheticOracleBackend(seed=5), stamp=lambda request, text: (1, 1))
    rows, run_dir = run_experiment(cfg, backend)
    for row in rows:
        logs = sorted(run_dir.glob(f"toy-h8-{row.method}-run*.jsonl"))
        assert len(logs) == cfg.runs
        logged = sum(
            record["tokens_in"]
            for log_path in logs
            for record in map(json.loads, log_path.read_text().splitlines())
            if record["kind"] == "iteration"
        )
        assert row.tokens_in == row.tokens_out == logged + cfg.runs * row.test_windows


def test_grid_artifacts_do_not_depend_on_jobs(toy_csv, tmp_path):
    def artifacts(jobs, methods=KNOWN_METHODS + ("asp:deep-stl",), runs=3):
        cfg = exp_config(toy_csv, tmp_path / f"jobs{jobs}", methods=methods, runs=runs)
        _, run_dir = run_experiment(cfg, TokenStamper(SyntheticOracleBackend(seed=5)), jobs=jobs)
        return {path.name: path.read_bytes() for path in run_dir.iterdir()}

    serial = artifacts(1)
    assert len(serial) == 5 * 3 + 2  # a log per cell, the CSV and JSON reports
    assert artifacts(2) == serial
    # a sub-grid writes the full grid's session log for each of its cells
    sub_grid = artifacts(3, methods=("asp:deep-stl", "ir-only"), runs=2)
    logs = {name: text for name, text in sub_grid.items() if name.endswith(".jsonl")}
    assert len(logs) == 2 * 2 and logs.items() <= serial.items()


def test_an_unnamed_dataset_is_named_by_its_file_stem(tmp_path, monkeypatch):
    write_toy_csv(tmp_path / "s.csv")
    monkeypatch.chdir(tmp_path)

    def artifacts(data_path, out):
        cfg = exp_config(data_path, tmp_path / out, methods=("simple",), runs=1)
        cfg = dataclasses.replace(cfg, dataset_name=None)
        _, run_dir = run_experiment(cfg, SyntheticOracleBackend(seed=5))
        return {path.name: path.read_bytes() for path in run_dir.iterdir()}

    plain = artifacts("s.csv", "plain")
    assert sorted(plain) == ["report.csv", "report.json", "s-h8-simple-run0.jsonl"]
    assert artifacts("./s.csv", "dotted") == plain
    assert artifacts(str(tmp_path / "s.csv"), "absolute") == plain


def test_a_methods_runs_overlap_under_two_jobs(toy_csv, tmp_path):
    class SeedBarrier(SyntheticOracleBackend):
        """The first call of each request seed waits for one of another seed."""

        def __init__(self, seed):
            super().__init__(seed=seed)
            self.barrier = threading.Barrier(2, timeout=5)
            self.seeds = set()
            self._lock = threading.Lock()

        def complete(self, request):
            with self._lock:
                first = request.seed not in self.seeds
                self.seeds.add(request.seed)
            if first:
                self.barrier.wait()
            return super().complete(request)

    cfg = exp_config(toy_csv, tmp_path / "out", methods=("simple",), runs=2)
    rows, _ = run_experiment(cfg, SeedBarrier(seed=5), jobs=2, emit=False)
    assert len(rows) == 1 and len(rows[0].run_maes) == 2


def test_one_job_sends_every_call_from_the_calling_thread(toy_csv, tmp_path):
    class ThreadSpy(SyntheticOracleBackend):
        def complete(self, request):
            threads.add(threading.get_ident())
            return super().complete(request)

    threads = set()
    run_ablation(exp_config(toy_csv, tmp_path / "out"), ThreadSpy(seed=5), emit=False)
    assert threads == {threading.get_ident()}


def test_a_failed_cell_stops_the_grid_starting_calls(toy_csv, tmp_path):
    class AlwaysFails(Backend):
        backend_id = "fails"

        def __init__(self):
            self.calls = 0
            self._lock = threading.Lock()

        def complete(self, request):
            with self._lock:
                self.calls += 1
            raise BackendError("endpoint refused the call")

    backend = AlwaysFails()
    # 16 cells of 8 methods whose sessions share no request
    methods = [f"asp:{name}" for name in list_strategies()[:8]]
    cfg = exp_config(toy_csv, tmp_path / "out", methods=methods, runs=2)
    with pytest.raises(BackendError, match="endpoint refused"):
        run_experiment(cfg, backend, jobs=4, emit=False)
    # only the cells already running when the first one failed sent a call
    assert 1 <= backend.calls <= 4


# --- the grid's reply memo --------------------------------------------------


def request_key(request):
    return (
        request.tag,
        request.seed,
        request.attempt,
        request.prompt,
    )


class KeySpy(Backend):
    """Records the key of every request that reaches ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.keys = []
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.keys.append(request_key(request))
        return self.inner.complete(request)


def test_grid_sends_each_distinct_request_once(toy_csv, tmp_path):
    spy = KeySpy(SyntheticOracleBackend(seed=5))
    rows, _ = run_ablation(exp_config(toy_csv, tmp_path / "out"), spy, emit=False)
    assert len(set(spy.keys)) == len(spy.keys)
    # the report still counts every refiner consultation each method made
    assert [row.refiner_calls for row in rows] == [0, 0, 4, 4]
    refiner_keys = [key for key in spy.keys if key[0] == "refiner"]
    assert len(refiner_keys) == 8


def test_grid_backend_calls_do_not_depend_on_jobs(toy_csv, tmp_path):
    seen = []
    for jobs in (1, 2, 4):
        spy = KeySpy(SyntheticOracleBackend(seed=5))
        run_ablation(exp_config(toy_csv, tmp_path / "out"), spy, jobs=jobs, emit=False)
        seen.append(sorted(spy.keys))
    assert seen[0] == seen[1] == seen[2]


def test_grid_parse_retry_reaches_the_backend(toy_csv, tmp_path):
    class MalformedThrice(SyntheticOracleBackend):
        forecasts = 0

        def complete(self, request):
            if request.tag == "forecaster":
                self.forecasts += 1
                if self.forecasts <= 3:
                    return CompletionReply(text="no numbers here")
            return super().complete(request)

    spy = KeySpy(MalformedThrice(seed=5))
    cfg = exp_config(toy_csv, tmp_path / "out", methods=("simple",), runs=1)
    _, run_dir = run_experiment(cfg, spy)
    first = spy.keys[0][-1]
    retry = first + FORMAT_RETRY_SUFFIX
    assert [(key[2], key[3]) for key in spy.keys[:4]] == [
        (0, first), (1, retry), (2, retry), (3, retry)
    ]
    (log_path,) = run_dir.glob("*.jsonl")
    iteration = [json.loads(line) for line in log_path.read_text().splitlines()][1]
    assert iteration["parse_failures"] == 3 and iteration["skipped_samples"] == 0


def req(prompt="p", tag="forecaster", **kw):
    return CompletionRequest(prompt=prompt, tag=tag, **kw)


class Gate(Backend):
    """Counts calls per prompt; each call waits for ``release`` and then
    raises ``error`` when one is set, else echoes the prompt."""

    backend_id = "gate"

    def __init__(self):
        self.calls = {}
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()
        self.error = None
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls[request.prompt] = self.calls.get(request.prompt, 0) + 1
        self.entered.set()
        assert self.release.wait(timeout=10)
        if self.error is not None:
            raise self.error
        return CompletionReply(text=f"reply to {request.prompt}")


def test_reply_memo_keys_every_request_field():
    gate = Gate()
    memo = _ReplyMemo(gate)
    variants = [
        req(),
        req(tag="refiner"),
        req(seed=1),
        req(attempt=1),
    ]
    for request in variants + variants:
        assert memo.complete(request).text == "reply to p"
    assert gate.calls == {"p": len(variants)}


def test_reply_memo_does_not_keep_a_failed_call():
    gate = Gate()
    memo = _ReplyMemo(gate)
    gate.error = BackendError("endpoint went away")
    with pytest.raises(BackendError, match="went away"):
        memo.complete(req())
    gate.error = None
    assert memo.complete(req()).text == "reply to p"
    assert memo.complete(req()).text == "reply to p"
    assert gate.calls == {"p": 2}


def test_reply_memo_waiters_share_one_call_and_its_error():
    gate = Gate()
    memo = _ReplyMemo(gate)
    gate.release.clear()
    gate.error = BackendError("endpoint went away")
    raised = [None, None]

    def call(slot):
        try:
            memo.complete(req())
        except BackendError as exc:
            raised[slot] = exc

    first = threading.Thread(target=call, args=(0,))
    first.start()
    assert gate.entered.wait(timeout=10)
    second = threading.Thread(target=call, args=(1,))
    second.start()
    time.sleep(0.2)  # the second caller is now waiting on the first call
    gate.release.set()
    for thread in (first, second):
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert gate.calls == {"p": 1}
    assert raised[0] is not None and raised[1] is raised[0]


def test_reply_memo_single_flight_under_thread_contention():
    gate = Gate()
    memo = _ReplyMemo(gate)
    prompts = [f"p{i}" for i in range(16)]
    wrong = []

    def worker(offset):
        for i in range(200):
            prompt = prompts[(i + offset) % len(prompts)]
            if memo.complete(req(prompt)).text != f"reply to {prompt}":
                wrong.append(prompt)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not wrong
    assert gate.calls == {prompt: 1 for prompt in prompts}


def test_ordinal_script_bypasses_the_memo(toy_csv, tmp_path):
    # ir-only's first evaluation sends simple's validation prompts again; an
    # ordinal script must still hand out every entry, in call order
    forecast = forecast_reply([0.1] * 8)
    refine = refiner_reply("steady the tail", done=False)
    synth = instructions_reply(["Follow the trend."])
    simple = [forecast] * 6  # 2 validation + 4 test windows
    ir_only = [forecast] * 2 + [refine, synth] + [forecast] * 2 + [refine, synth] + [forecast] * 4
    script = ScriptedBackend([ScriptEntry(reply=text) for text in simple + ir_only])
    cfg = exp_config(toy_csv, tmp_path / "out", methods=("simple", "ir-only"), runs=1)
    rows, _ = run_experiment(cfg, script, emit=False)
    assert script.remaining == 0
    assert [row.refiner_calls for row in rows] == [0, 2]


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


def test_a_taken_run_directory_name_gets_the_next_suffix(tmp_path, monkeypatch):
    class Frozen(datetime):
        @classmethod
        def now(cls, tz=None):
            return datetime(2024, 5, 6, 7, 8, 9, tzinfo=tz)

    monkeypatch.setattr(bench, "datetime", Frozen)
    (tmp_path / "run-20240506-070809").mkdir()
    (tmp_path / "run-20240506-070809-2").write_text("")  # a file takes a name too
    made = [_make_run_dir(str(tmp_path)) for _ in range(2)]
    assert [path.name for path in made] == ["run-20240506-070809-3", "run-20240506-070809-4"]
    assert all(path.is_dir() for path in made)


def test_emit_report_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError, match="empty report"):
        emit_report([], tmp_path / "r")
    rows = [make_row(), make_row(run_maes=(0.5, 0.3, 0.1))]
    with pytest.raises(ValueError, match="disagree on run count"):
        emit_report(rows, tmp_path / "r")
    assert not list(tmp_path.iterdir())


def test_emit_report_csv_floats_round_trip(tmp_path):
    row = make_row(run_maes=(0.1 + 0.2, 1.0 / 3.0))
    emit_report([row], tmp_path / "r")
    with open(tmp_path / "r.csv", newline="") as fh:
        header, data = list(csv.reader(fh))
    assert float(data[header.index("run_1_mae")]) == row.run_maes[0]
    assert float(data[header.index("run_2_mae")]) == row.run_maes[1]
    assert data[header.index("mae_space")] == "scaled"


def test_emit_report_json_writes_non_finite_values_as_null(tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    row = make_row(run_maes=(float("inf"), 0.25))
    emit_report([row], tmp_path / "r")
    doc = json.loads((tmp_path / "r.json").read_text(), parse_constant=reject)
    assert doc["rows"][0]["run_1_mae"] is None
    assert doc["rows"][0]["run_2_mae"] == 0.25


def test_emit_report_is_deterministic(tmp_path):
    rows = [make_row(), make_row(method="flairr", run_maes=(0.2, 0.4))]
    emit_report(rows, tmp_path / "a")
    emit_report(rows, tmp_path / "b")
    for suffix in (".csv", ".json"):
        a = (tmp_path / f"a{suffix}").read_bytes()
        assert a == (tmp_path / f"b{suffix}").read_bytes()
