"""Command-line interface: subcommands, exit codes, and printed output,
exercised in-process through main()."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from flairr.cli import main
from flairr.testing import forecast_reply, instructions_reply, refiner_reply, seasonal_series


@pytest.fixture
def series_csv(tmp_path):
    values = seasonal_series(200, period=16, trend=0.02, amplitude=0.5, noise=0.05, seed=8)
    path = tmp_path / "series.csv"
    path.write_text("v\n" + "\n".join(repr(float(x)) for x in values) + "\n")
    return path


def run_cli(*argv):
    return main(list(argv))


# --- parser basics ----------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    out = capsys.readouterr().out
    for sub in ("forecast", "refine", "bench", "ablate", "retrieve"):
        assert sub in out


def test_missing_subcommand_exits_one(capsys):
    assert run_cli() == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert run_cli("forecast", "--bogus") == 1


def test_help_advertises_defaults(capsys):
    assert run_cli("refine", "--help") == 0
    out = capsys.readouterr().out
    assert "(default: 5)" in out  # --max-iter
    assert "(default: 5.0)" in out  # --stop-threshold
    assert "(default: 3)" in out  # --samples
    assert "(default: 2)" in out  # --m
    assert "(default: 96)" in out  # --context
    assert "--api-key" not in out  # credentials come from the environment only


# --- forecast ---------------------------------------------------------------


def test_forecast_list_strategies(capsys):
    assert run_cli("forecast", "--list-strategies") == 0
    names = capsys.readouterr().out.splitlines()
    assert len(names) == 14
    assert names == sorted(names)
    assert "simple" in names and "deep-stl" in names


def test_module_entry_point_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "flairr.cli", "forecast", "--list-strategies"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "deep-stl" in done.stdout.splitlines()


def test_forecast_requires_data_flags(capsys):
    assert run_cli("forecast", "--target", "v") == 1
    assert "forecast requires --data, --horizon" in capsys.readouterr().err


def test_forecast_with_oracle(series_csv, capsys):
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4",
    )
    assert code == 0
    out = capsys.readouterr().out
    match = re.search(r"predicted_values: \[([^\]]*)\]", out)
    assert match is not None
    assert len(match.group(1).split(",")) == 4
    assert "reasoning: " in out
    assert "certainty: 80%" in out


def test_forecast_no_retrieval(series_csv, capsys):
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--no-retrieval",
    )
    assert code == 0
    assert "predicted_values" in capsys.readouterr().out


def test_forecast_unknown_strategy(series_csv, capsys):
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--strategy", "wishful",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown strategy" in err and "deep-stl" in err


def test_forecast_missing_data_file(tmp_path, capsys):
    code = run_cli(
        "forecast", "--data", str(tmp_path / "gone.csv"), "--target", "v",
        "--horizon", "4",
    )
    assert code == 2
    assert "cannot open" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["forecast", "refine", "retrieve", "bench", "ablate"])
def test_a_cell_over_the_csv_field_limit_exits_two(series_csv, tmp_path, capsys, command):
    rows = series_csv.read_text().splitlines()
    rows[6] = " " * csv.field_size_limit() + rows[6]  # float() would still take it
    data = tmp_path / "long.csv"
    data.write_text("\n".join(rows) + "\n")
    if command in ("bench", "ablate"):
        argv = [command, "--config", str(write_bench_config(tmp_path, data, tmp_path / "out"))]
    else:
        argv = [command, "--data", str(data), "--target", "v", "--context", "16", "--horizon", "4"]
        if command == "refine":
            argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"{data}: unreadable row 6: field larger than field limit" in err


@pytest.mark.parametrize("command", ["forecast", "refine", "retrieve", "bench", "ablate"])
def test_a_file_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    data = tmp_path / "latin.csv"
    data.write_bytes(b"v\n1\n2\xff\n3\n")
    if command in ("bench", "ablate"):
        argv = [command, "--config", str(write_bench_config(tmp_path, data, tmp_path / "out"))]
    else:
        argv = [command, "--data", str(data), "--target", "v", "--context", "2", "--horizon", "1"]
        if command == "refine":
            argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert f"{data}: not UTF-8 text at byte 5 (line 3): invalid start byte" in err


def test_forecast_bad_session_value(series_csv, capsys):
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "1", "--horizon", "4",
    )
    assert code == 1
    assert "context_length" in capsys.readouterr().err


def test_forecast_scripted_backend(series_csv, tmp_path, capsys):
    script = tmp_path / "script.jsonl"
    entry = {"match": {"tag": "forecaster"}, "reply": forecast_reply([1.0, 2.0, 3.0, 4.0])}
    script.write_text(json.dumps(entry) + "\n")
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4",
        "--backend", "scripted", "--script", str(script),
    )
    assert code == 0
    assert "predicted_values: [1.0000, 2.0000, 3.0000, 4.0000]" in capsys.readouterr().out


def test_forecast_scripted_requires_script(series_csv, capsys):
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--backend", "scripted",
    )
    assert code == 1
    assert "requires --script" in capsys.readouterr().err


def test_forecast_http_requires_endpoint_and_model(series_csv, capsys):
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--backend", "http",
    )
    assert code == 1
    assert "requires --endpoint and --model" in capsys.readouterr().err


def test_forecast_persistently_malformed_reply_exits_four(series_csv, tmp_path, capsys):
    script = tmp_path / "script.jsonl"
    entry = {"match": {"tag": "forecaster"}, "reply": forecast_reply([1.0])}  # wrong count
    script.write_text(json.dumps(entry) + "\n")
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4",
        "--backend", "scripted", "--script", str(script),
    )
    assert code == 4
    assert "malformed after" in capsys.readouterr().err


def test_forecast_exhausted_script_exits_three(series_csv, tmp_path, capsys):
    script = tmp_path / "script.jsonl"
    script.write_text(json.dumps({"reply": "not parseable"}) + "\n")  # one ordinal entry
    code = run_cli(
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4",
        "--backend", "scripted", "--script", str(script),
    )
    assert code == 3
    assert "script exhausted" in capsys.readouterr().err


def test_forecast_record_and_replay(series_csv, tmp_path, capsys):
    recording = tmp_path / "transcript.jsonl"
    args = (
        "forecast", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--seed", "3",
    )
    assert run_cli(*args, "--record", str(recording)) == 0
    live_out = capsys.readouterr().out
    assert recording.is_file()
    lines = [json.loads(line) for line in recording.read_text().splitlines()]
    assert len(lines) == 1 and lines[0]["tag"] == "forecaster"

    assert run_cli(*args, "--backend", "scripted", "--script", str(recording)) == 0
    assert capsys.readouterr().out == live_out


# --- refine -----------------------------------------------------------------


def test_refine_with_oracle(series_csv, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = run_cli(
        "refine", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--samples", "2",
        "--max-iter", "2", "--out", str(out_dir),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"session_log: {out_dir / 'session.jsonl'}" in out
    assert "early_stop: false" in out
    assert "iterations_used: 2" in out
    assert re.search(r"best_iteration: [12]\n", out)
    assert "best_mae: 0." in out
    assert "selected_instructions" in out
    log_lines = [json.loads(l) for l in (out_dir / "session.jsonl").read_text().splitlines()]
    assert [entry["kind"] for entry in log_lines] == ["session", "iteration", "iteration", "result"]


def test_refine_early_stop_via_script(series_csv, tmp_path, capsys):
    script = tmp_path / "script.jsonl"
    entries = [
        {"match": {"tag": "forecaster"}, "reply": forecast_reply([0.1, 0.2, 0.3, 0.4])},
        {
            "match": {"contains": "for this Iteration 1:"},
            "reply": refiner_reply("keep smoothing", done=False),
        },
        {
            "match": {"contains": "for this Iteration 2:"},
            "reply": refiner_reply("improvement below threshold", done=True),
        },
        {"match": {"tag": "synthesis"}, "reply": instructions_reply(["Smooth the forecast."])},
    ]
    script.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    out_dir = tmp_path / "run"
    code = run_cli(
        "refine", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--samples", "2",
        "--out", str(out_dir),
        "--backend", "scripted", "--script", str(script),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "early_stop: true" in out
    assert "iterations_used: 2" in out
    assert "best_iteration: 1" in out
    assert "selected_instructions:\n- Smooth the forecast." in out


def test_refine_single_iteration(series_csv, tmp_path, capsys):
    code = run_cli(
        "refine", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--samples", "2",
        "--max-iter", "1", "--out", str(tmp_path / "run"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "iterations_used: 1" in out
    assert "early_stop: false" in out  # a first-iteration Done is overridden


# --- retrieve ---------------------------------------------------------------


def test_retrieve_prints_csv(series_csv, capsys):
    code = run_cli(
        "retrieve", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--m", "2",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["rank", "start", "score", "context", "outcome"]
    assert len(rows) == 3
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    for row in rows[1:]:
        assert len(row[3].split(", ")) == 16
        assert len(row[4].split(", ")) == 4
        score = float(row[2])
        assert -1.0 <= score <= 1.0


def test_retrieve_origin_out_of_range(series_csv, capsys):
    code = run_cli(
        "retrieve", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--t", "5",
    )
    assert code == 2
    assert "does not leave room" in capsys.readouterr().err


# --- bench / ablate ---------------------------------------------------------


def write_bench_config(tmp_path, series_csv, out_dir, methods=("simple", "flairr")):
    config = {
        "dataset": {
            "path": str(series_csv),
            "target": "v",
            "name": "toy",
            "description": "a toy seasonal series",
        },
        "horizons": [8],
        "methods": list(methods),
        "runs": 2,
        "max_test_windows": 3,
        "output_dir": str(out_dir),
        "session": {"context_length": 16, "sample_size": 2, "max_iterations": 2},
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(config))
    return path


def test_bench_with_oracle(series_csv, tmp_path, capsys):
    out_dir = tmp_path / "bench-out"
    config = write_bench_config(tmp_path, series_csv, out_dir)
    assert run_cli("bench", "--config", str(config)) == 0
    out = capsys.readouterr().out
    assert "run_dir: " in out and "report: " in out
    assert "toy h=8 simple: median MAE" in out
    assert "toy h=8 flairr: median MAE" in out
    run_dirs = list(out_dir.glob("run-*"))
    assert len(run_dirs) == 1
    assert (run_dirs[0] / "report.csv").is_file()


def test_bench_cli_overrides(series_csv, tmp_path, capsys):
    config = write_bench_config(tmp_path, series_csv, tmp_path / "ignored")
    out_dir = tmp_path / "override-out"
    code = run_cli(
        "bench", "--config", str(config),
        "--runs", "1", "--seed", "9", "--out", str(out_dir),
    )
    assert code == 0
    run_dirs = list(out_dir.glob("run-*"))
    assert len(run_dirs) == 1
    header = (run_dirs[0] / "report.csv").read_text().splitlines()[0]
    assert "run_1_mae" in header and "run_2_mae" not in header


def test_bench_missing_config(tmp_path, capsys):
    assert run_cli("bench", "--config", str(tmp_path / "none.json")) == 1
    assert "cannot read" in capsys.readouterr().err


def test_ablate_with_oracle(series_csv, tmp_path, capsys):
    out_dir = tmp_path / "ablate-out"
    config = write_bench_config(tmp_path, series_csv, out_dir, methods=("simple",))
    assert run_cli("ablate", "--config", str(config)) == 0
    out = capsys.readouterr().out
    for label in ("Simple", "Simple+Retrieval", "Simple+IR", "FLAIRR"):
        assert f"toy h=8 {label}: median MAE" in out
    run_dirs = list(out_dir.glob("run-*"))
    assert (run_dirs[0] / "ablation.csv").is_file()


@pytest.mark.parametrize(
    "command, report", [("bench", "report.csv"), ("ablate", "ablation.csv")]
)
def test_grid_subcommands_print_their_own_report(
    command, report, series_csv, tmp_path, capsys
):
    out_dir = tmp_path / "grid-out"
    config = write_bench_config(tmp_path, series_csv, out_dir, methods=("simple",))
    assert run_cli(command, "--config", str(config), "--runs", "1") == 0
    lines = capsys.readouterr().out.splitlines()
    (run_dir,) = out_dir.glob("run-*")
    assert lines[0] == f"run_dir: {run_dir}"
    assert lines[1] == f"report: {run_dir / report}"
    assert (run_dir / report).is_file()


@pytest.mark.parametrize("doc", [[1, 2], {"dataset": 5}])
def test_bench_rejects_a_non_object_config(doc, tmp_path, capsys):
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(doc))
    assert run_cli("bench", "--config", str(config)) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("record", [False, True], ids=["bare", "recorded"])
def test_grid_jobs_refuses_an_ordinal_script(record, series_csv, tmp_path, capsys):
    out_dir = tmp_path / "grid-out"
    config = write_bench_config(tmp_path, series_csv, out_dir)
    script = tmp_path / "script.jsonl"
    script.write_text(json.dumps({"reply": forecast_reply([1.0] * 8)}) + "\n")
    recording = tmp_path / "rec.jsonl"
    argv = ["bench", "--config", str(config), "--jobs", "2"]
    argv += ["--backend", "scripted", "--script", str(script)]
    if record:
        argv += ["--record", str(recording)]
    assert run_cli(*argv) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists() and not recording.exists()
