"""Command-line interface: subcommands, exit codes, and printed output,
exercised in-process through main()."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from flairr import cli, errors
from flairr.bench import DEFAULT_CONTEXT_LENGTH
from flairr.cli import main
from flairr.session import SessionConfig
from flairr.testing import (
    SyntheticOracleBackend,
    forecast_reply,
    instructions_reply,
    refiner_reply,
    seasonal_series,
)


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


@pytest.mark.parametrize("command", ["forecast", "refine", "bench", "ablate", "retrieve"])
def test_help_states_each_default_at_most_once(command, capsys):
    assert run_cli(command, "--help") == 0
    out = capsys.readouterr().out
    # one entry per flag, from its "  -" line to the next; wrapping undone
    entries = [" ".join(entry.split()) for entry in re.split(r"^(?=  -)", out, flags=re.M)[1:]]
    assert len(entries) >= 7
    for entry in entries:
        assert "(default: None)" not in entry
        assert entry.count("(default:") <= 1, entry


# --- forecast ---------------------------------------------------------------


def test_forecast_list_strategies(capsys):
    assert run_cli("forecast", "--list-strategies") == 0
    names = capsys.readouterr().out.splitlines()
    assert len(names) == 14
    assert names == sorted(names)
    assert "simple" in names and "deep-stl" in names


def run_python(*args):
    """Run ``python *args`` in a fresh interpreter that imports this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def run_cli_process(*argv):
    """Run ``python -m flairr.cli`` in a fresh interpreter."""
    return run_python("-m", "flairr.cli", *argv)


def test_importing_the_cli_loads_no_http_code():
    code = """
import sys
import flairr, flairr.cli, flairr.bench
http = ("requests", "urllib3", "http.client")
print(*[name for name in http if name in sys.modules])
flairr.backends.HttpBackend("http://127.0.0.1:9/v1", "m")
print("requests" in sys.modules)
"""
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["", "True"]


@pytest.mark.parametrize(
    "module, loaded",
    [("flairr", []), ("flairr.series", ["flairr.errors", "flairr.series"])],
)
def test_importing_a_module_loads_only_the_flairr_modules_it_uses(module, loaded):
    code = f"""
import sys
import {module}
print(*sorted(name for name in sys.modules if name.startswith("flairr.")))
"""
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == loaded


def test_module_entry_point_runs_the_cli():
    done = run_cli_process("forecast", "--list-strategies")
    assert done.returncode == 0, done.stderr
    assert "deep-stl" in done.stdout.splitlines()


def test_forecast_requires_data_flags(capsys):
    assert run_cli("forecast", "--target", "v") == 1
    err = capsys.readouterr().err
    assert "the following arguments are required: --data, --horizon" in err


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


@pytest.mark.parametrize("retrieval", [[], ["--no-retrieval"]], ids=["retrieval", "no-retrieval"])
@pytest.mark.parametrize("rows, code", [(16, 0), (15, 2)])
def test_forecast_needs_a_series_as_long_as_the_context(tmp_path, capsys, retrieval, rows, code):
    data = tmp_path / "short.csv"
    data.write_text("v\n" + "\n".join(str(i % 5) for i in range(rows)) + "\n")
    argv = ["--data", str(data), "--target", "v", "--context", "16", "--horizon", "4"]
    assert run_cli("forecast", *argv, *retrieval) == code
    captured = capsys.readouterr()
    if code == 0:
        assert "predicted_values" in captured.out and captured.err == ""
    else:
        assert "error: series of length 15 is shorter than context 16" in captured.err


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


def test_forecast_reads_a_crlf_csv_from_a_pipe(capsys):
    read_end, write_end = os.pipe()
    os.write(write_end, b"a,b\r\n1,2\r\n3,4\r\n5,6\r\n")
    os.close(write_end)
    try:
        code = run_cli(
            "forecast", "--data", f"/dev/fd/{read_end}", "--target", "b",
            "--context", "2", "--horizon", "1", "--no-retrieval",
        )
    finally:
        os.close(read_end)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert "predicted_values: [" in captured.out


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


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.FlairrError, 1),
        (errors.ConfigError, 1),
        (errors.TemplateError, 1),
        (errors.ReplyParseError, 1),
        (errors.DataError, 2),
        (errors.BackendError, 3),
        (errors.ParseRetryError, 4),
        (ValueError, 1),
    ],
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_main_exits_with_the_code_the_error_class_declares(error, code, monkeypatch, capsys):
    if error is not ValueError:
        assert error.exit_code == code

    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli, "load_csv", fail)
    assert run_cli("retrieve", "--data", "x.csv", "--target", "v", "--horizon", "4") == code
    assert capsys.readouterr().err == "error: boom\n"


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


def test_refine_sends_each_distinct_request_once(series_csv, tmp_path, capsys, monkeypatch):
    # the oracle's later synthesis and forecaster prompts repeat earlier ones
    sent = []

    class Counting(SyntheticOracleBackend):
        def complete(self, request):
            sent.append((request.tag, request.seed, request.attempt, request.prompt))
            return super().complete(request)

    monkeypatch.setattr(cli, "SyntheticOracleBackend", Counting)
    argv = ["refine", "--data", str(series_csv), "--target", "v"]
    argv += ["--context", "16", "--horizon", "4", "--samples", "2"]
    runs = []
    for stored in (True, False):
        if not stored:  # every request reaches the oracle
            monkeypatch.setattr(cli, "ReplyStore", lambda backend, transcript: backend)
        sent.clear()
        out_dir = tmp_path / f"stored-{stored}"
        assert run_cli(*argv, "--out", str(out_dir)) == 0
        out = capsys.readouterr().out.replace(str(out_dir), "OUT")
        runs.append((out, (out_dir / "session.jsonl").read_text(), list(sent)))
    (out, log, keys), (bare_out, bare_log, bare_keys) = runs
    assert (out, log) == (bare_out, bare_log)
    assert sorted(keys) == sorted(set(bare_keys))
    assert (len(keys), len(bare_keys)) == (13, 20)


def test_a_second_refine_into_one_out_keeps_the_first_log(
    series_csv, tmp_path, capsys, monkeypatch
):
    out_dir = tmp_path / "run"
    argv = ["refine", "--data", str(series_csv), "--target", "v", "--context", "16"]
    argv += ["--horizon", "4", "--samples", "2", "--max-iter", "2", "--out", str(out_dir)]
    assert run_cli(*argv) == 0
    log = (out_dir / "session.jsonl").read_text()
    capsys.readouterr()

    class Refuses(SyntheticOracleBackend):
        def complete(self, request):
            raise AssertionError("a completion call was sent")

    monkeypatch.setattr(cli, "SyntheticOracleBackend", Refuses)
    assert run_cli(*argv, "--seed", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out_dir / 'session.jsonl'}: File exists\n"
    assert (out_dir / "session.jsonl").read_text() == log


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


def test_an_aborted_refine_says_how_far_it_got(series_csv, tmp_path, capsys):
    script = tmp_path / "script.jsonl"
    entries = [
        {"match": {"tag": "forecaster"}, "reply": forecast_reply([0.1, 0.2, 0.3, 0.4])},
        {
            "match": {"contains": "for this Iteration 1:"},
            "reply": refiner_reply("keep smoothing", done=False),
        },
        {"match": {"contains": "for this Iteration 2:"}, "reply": "no verdict at all"},
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
    assert code == 4
    log_path = out_dir / "session.jsonl"
    kinds = [json.loads(line)["kind"] for line in log_path.read_text().splitlines()]
    assert kinds == ["session", "iteration"]
    aborted, error = capsys.readouterr().err.splitlines()
    assert aborted == f"aborted after 1 logged iteration(s); session_log: {log_path}"
    assert error.startswith("error: refiner reply still malformed after 4 attempts")


def test_refine_unknown_strategy_exits_one_before_the_log(series_csv, tmp_path, capsys):
    out_dir = tmp_path / "run"
    code = run_cli(
        "refine", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--strategy", "nope", "--out", str(out_dir),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown strategy 'nope'; available: [")
    assert "aborted" not in err
    assert not out_dir.exists()


def test_refine_goes_on_after_a_batch_mae_overflows(series_csv, tmp_path, capsys):
    script = tmp_path / "script.jsonl"
    # the base prompt's forecasts are huge, the instructed ones are not
    replies = [
        forecast_reply([1e308] * 4),
        forecast_reply([1e308] * 4),
        refiner_reply("x", done=False),
        instructions_reply(["Damp the peaks."]),
        forecast_reply([1.0] * 4),
        forecast_reply([1.0] * 4),
        refiner_reply("y", done=True),
    ]
    script.write_text("".join(json.dumps({"reply": r}) + "\n" for r in replies))
    recording = tmp_path / "rec.jsonl"
    out_dir = tmp_path / "run"
    code = run_cli(
        "refine", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--samples", "2", "--no-retrieval",
        "--out", str(out_dir), "--record", str(recording),
        "--backend", "scripted", "--script", str(script),
    )
    assert code == 0
    out, err = capsys.readouterr()
    assert err == ""  # the overflow to inf raises no numpy warning
    assert "best_iteration: 2\n" in out
    assert "selected_instructions:\n- Damp the peaks." in out
    refiner_prompts = [
        entry["prompt"]
        for entry in map(json.loads, recording.read_text().splitlines())
        if entry["tag"] == "refiner"
    ]
    assert "for this batch of samples: inf" in refiner_prompts[0]
    assert "- Iteration 1 | MAE inf |" in refiner_prompts[1]


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


@pytest.mark.parametrize("extra", [[], ["--m", "0"]], ids=["analogs", "no-analogs"])
def test_retrieve_refuses_a_bad_precision_before_any_output(extra, series_csv, capsys):
    code = run_cli(
        "retrieve", "--data", str(series_csv), "--target", "v",
        "--context", "16", "--horizon", "4", "--precision", "11", *extra,
    )
    assert code == 1
    assert capsys.readouterr() == ("", "error: precision must be in 0..10, got 11\n")


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


def test_the_grid_oracle_takes_the_config_seed(series_csv, tmp_path, capsys):
    config = write_bench_config(tmp_path, series_csv, tmp_path / "out")
    doc = json.loads(config.read_text())
    config.write_text(json.dumps({**doc, "seed": 7}))
    reports = []
    for out_name, flags in (("plain", ()), ("flagged", ("--seed", "7"))):
        out_dir = tmp_path / out_name
        assert run_cli("bench", "--config", str(config), "--out", str(out_dir), *flags) == 0
        (run_dir,) = out_dir.glob("run-*")
        reports.append((run_dir / "report.csv").read_bytes())
    assert reports[0] == reports[1]


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


@pytest.mark.parametrize(
    "change, field",
    [
        (lambda doc: doc["dataset"].update(name=5), "dataset.name"),
        (lambda doc: doc["session"].update(context_length=16.5), "session.context_length"),
    ],
    ids=["dataset-name", "session-context-length"],
)
def test_a_config_value_of_the_wrong_json_type_exits_one(
    change, field, series_csv, tmp_path
):
    out_dir = tmp_path / "grid-out"
    config = write_bench_config(tmp_path, series_csv, out_dir, methods=("simple",))
    doc = json.loads(config.read_text())
    change(doc)
    config.write_text(json.dumps(doc))
    done = run_cli_process("bench", "--config", str(config))
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and f"{field} must be a JSON" in done.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, change, message",
    [
        ("bench", lambda doc: doc["session"].update(bogus_key=3), "bogus_key"),
        ("ablate", lambda doc: doc["session"].update(bogus_key=3), "bogus_key"),
        ("bench", lambda doc: doc.update(methods=["flairr", "asp:"]), "strategy name"),
        ("bench", lambda doc: doc.update(methods=["simple", "asp:no-such"]), "no-such"),
        ("ablate", lambda doc: doc.update(run=1), "unknown key run;"),
        ("bench", lambda doc: doc["dataset"].update(pth=1), "unknown key dataset.pth;"),
        ("bench", lambda doc: doc["dataset"].pop("path"), "no dataset path"),
        # the data shape no cell can use (200 rows): a test split of 6 holds
        # no 8-step window; a training split of 140 cannot host 3 windows of
        # 68; or it hosts the validation windows but no analog before them,
        # which only the retrieving cells after the simple ones need
        ("bench", lambda doc: doc.update(train_fraction=0.97), "test region too short"),
        (
            "bench",
            lambda doc: doc["session"].update(context_length=60, sample_size=3),
            "series of length 140 cannot host 3 non-overlapping validation windows",
        ),
        (
            "ablate",
            lambda doc: doc["session"].update(context_length=36, sample_size=3),
            "too short to build a retrieval database",
        ),
        # json.loads reads the non-standard NaN token as a float
        (
            "bench",
            lambda doc: doc["session"].update(stop_threshold_pct=float("nan")),
            "error: bad session override: stop_threshold_pct must be a finite number > 0, got nan",
        ),
    ],
    ids=[
        "bench-session-key", "ablate-session-key", "asp-without-name", "asp-unknown",
        "top-level-key", "dataset-key", "no-dataset-path",
        "test-windows", "validation-windows", "retrieval-history", "nan-stop-threshold",
    ],
)
def test_a_bad_grid_config_fails_before_any_call_or_directory(
    command, change, message, series_csv, tmp_path, capsys, monkeypatch
):
    sent = []

    class Spy(SyntheticOracleBackend):
        def complete(self, request):
            sent.append(request)
            return super().complete(request)

    monkeypatch.setattr(cli, "SyntheticOracleBackend", Spy)
    out_dir = tmp_path / "grid-out"
    config = write_bench_config(tmp_path, series_csv, out_dir)
    doc = json.loads(config.read_text())
    change(doc)
    config.write_text(json.dumps(doc))
    assert run_cli(command, "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert sent == [] and not list(out_dir.glob("run-*"))


@pytest.mark.parametrize("command", ["refine", "bench", "record"])
def test_an_unwritable_output_path_is_one_error_line(
    command, series_csv, tmp_path, capsys, monkeypatch
):
    sent = []

    class Spy(SyntheticOracleBackend):
        def complete(self, request):
            sent.append(request)
            return super().complete(request)

    monkeypatch.setattr(cli, "SyntheticOracleBackend", Spy)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    out_dir = blocker / "out"
    argv = {
        "refine": [
            "refine", "--data", str(series_csv), "--target", "v", "--horizon", "4",
            "--context", "16", "--samples", "2", "--max-iter", "2", "--out", str(out_dir),
        ],
        "bench": [
            "bench", "--config", str(write_bench_config(tmp_path, series_csv, out_dir)),
        ],
        "record": [
            "forecast", "--data", str(series_csv), "--target", "v", "--horizon", "4",
            "--context", "16", "--record", str(out_dir),
        ],
    }[command]
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    # refine names the directory it could not make, bench the run directory
    # in it, and a recording its file, before its first call
    written = re.escape(str(out_dir))
    assert re.fullmatch(f"error: cannot write {written}(/run-\\S+)?: Not a directory\n", err)
    assert command != "record" or sent == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_recording_that_fails_to_append_names_its_file(series_csv, capsys):
    argv = ["--data", str(series_csv), "--target", "v", "--horizon", "4", "--context", "16"]
    assert run_cli("forecast", *argv, "--record", "/dev/full") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cannot write /dev/full: No space left on device\n"


def test_a_session_strategy_in_the_config_exits_one(series_csv, tmp_path, capsys):
    config = write_bench_config(tmp_path, series_csv, tmp_path / "grid-out", methods=("simple",))
    doc = json.loads(config.read_text())
    doc["session"]["strategy"] = "deep-stl"
    config.write_text(json.dumps(doc))
    assert run_cli("bench", "--config", str(config), "--runs", "1") == 1
    assert "'asp:<name>'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "ablate"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_grid_jobs_below_one_exits_one(command, jobs, series_csv, tmp_path, capsys):
    out_dir = tmp_path / "grid-out"
    config = write_bench_config(tmp_path, series_csv, out_dir)
    assert run_cli(command, "--config", str(config), "--jobs", jobs) == 1
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["forecast", "refine", "bench"])
def test_the_strategy_reaches_every_forecaster_prompt(command, series_csv, tmp_path):
    recording = tmp_path / "rec.jsonl"
    config = write_bench_config(
        tmp_path, series_csv, tmp_path / "grid-out", methods=("asp:deep-stl",)
    )
    data = ["--data", str(series_csv), "--target", "v", "--context", "16", "--horizon", "4"]
    argv = {
        "forecast": ["forecast", *data, "--strategy", "deep-stl"],
        "refine": ["refine", *data, "--strategy", "deep-stl", "--out", str(tmp_path / "out")],
        "bench": ["bench", "--config", str(config), "--runs", "1"],
    }[command]
    assert run_cli(*argv, "--record", str(recording)) == 0
    calls = [json.loads(line) for line in recording.read_text().splitlines()]
    prompts = [call["prompt"] for call in calls if call["tag"] == "forecaster"]
    # forecast: one call; refine: its validation samples; bench: those and
    # the test windows
    assert len(prompts) >= {"forecast": 1, "refine": 3, "bench": 5}[command]
    assert all("Forecasting Strategy\nPerform an STL-style" in p for p in prompts)


def test_main_builds_its_parser_once(capsys):
    assert run_cli("forecast", "--list-strategies") == 0
    parser = cli._parser()
    assert run_cli("--help") == 0
    assert cli._parser() is parser


@pytest.mark.parametrize("record", [False, True], ids=["bare", "recorded"])
def test_grid_jobs_refuses_an_ordinal_script(record, series_csv, tmp_path, capsys):
    out_dir = tmp_path / "grid-out"
    config = write_bench_config(tmp_path, series_csv, out_dir, methods=("simple",))
    # two runs of two validation windows and three test windows each
    script = tmp_path / "script.jsonl"
    script.write_text((json.dumps({"reply": forecast_reply([1.0] * 8)}) + "\n") * 10)
    recording = tmp_path / "rec.jsonl"
    argv = ["bench", "--config", str(config)]
    argv += ["--backend", "scripted", "--script", str(script)]
    if record:
        argv += ["--record", str(recording)]
    assert run_cli(*argv, "--jobs", "2") == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out_dir.exists() and not recording.exists()
    # without --jobs, the grid runs the script in one job
    assert run_cli(*argv) == 0
    assert "toy h=8 simple: median MAE" in capsys.readouterr().out


# --- non-target columns -------------------------------------------------------


def _run_every_data_command(work: Path, capsys):
    """Run forecast, retrieve, refine and bench on ``work/data.csv`` under
    the oracle; returns each command's exit code and stdout, and the text
    of every file the commands wrote, keyed by path relative to ``work``."""
    data = ["--data", str(work / "data.csv"), "--target", "load"]
    session = ["--context", "16", "--horizon", "4"]
    config = work / "experiment.json"
    config.write_text(json.dumps({
        "dataset": {"path": str(work / "data.csv"), "target": "load", "name": "toy"},
        "horizons": [8],
        "methods": ["simple", "flairr"],
        "runs": 1,
        "max_test_windows": 3,
        "output_dir": str(work / "bench-out"),
        "session": {"context_length": 16, "sample_size": 2, "max_iterations": 2},
    }))
    refine_out = work / "refine-out"
    outputs = {}
    for argv in (
        ["forecast", *data, *session],
        ["retrieve", *data, *session, "--m", "3"],
        ["refine", *data, *session, "--samples", "2", "--max-iter", "2", "--out", str(refine_out)],
        ["bench", "--config", str(config)],
    ):
        code = run_cli(*argv)
        outputs[argv[0]] = (code, capsys.readouterr().out)
    (run_dir,) = (work / "bench-out").glob("run-*")

    def same_name(text):  # the run directory is named after the clock
        return text.replace(run_dir.name, "run-*").replace(str(work), "WORK")

    written = {
        same_name(str(path)): path.read_text()
        for path in sorted(refine_out.iterdir()) + sorted(run_dir.iterdir())
    }
    return {name: (code, same_name(out)) for name, (code, out) in outputs.items()}, written


def _write_stamped_csv(path: Path, aux_cells):
    values = seasonal_series(200, period=16, trend=0.02, amplitude=0.5, noise=0.05, seed=8)
    rows = [
        f"2020-01-01T{i // 60:02d}:{i % 60:02d},{aux},{float(v)!r}"
        for i, (aux, v) in enumerate(zip(aux_cells, values))
    ]
    path.write_text("stamp,aux,load\n" + "\n".join(rows) + "\n")


def test_outputs_ignore_the_non_target_columns(tmp_path, capsys):
    results = []
    for name, aux in (
        ("first", [str(i % 7) for i in range(200)]),
        ("rewritten", [repr(-1e3 * i) for i in range(200)]),
        ("quoted", [f'"{i * 0.5!r}"' for i in range(200)]),  # takes the csv splitter
    ):
        work = tmp_path / name
        work.mkdir()
        _write_stamped_csv(work / "data.csv", aux)
        results.append(_run_every_data_command(work, capsys))
    outputs, written = results[0]
    assert [code for code, _ in outputs.values()] == [0, 0, 0, 0]
    assert sorted(written) == [
        "WORK/bench-out/run-*/report.csv",
        "WORK/bench-out/run-*/report.json",
        "WORK/bench-out/run-*/toy-h8-flairr-run0.jsonl",
        "WORK/bench-out/run-*/toy-h8-simple-run0.jsonl",
        "WORK/refine-out/session.jsonl",
    ]
    for other in results[1:]:
        assert other == results[0]


@pytest.mark.parametrize("cell, what", [("nan", "non-finite value 'nan'"), ("oops", "non-numeric cell 'oops'")])
@pytest.mark.parametrize("command", ["forecast", "retrieve", "refine", "bench"])
def test_a_bad_non_target_cell_exits_two(command, cell, what, tmp_path, capsys):
    aux = ["1"] * 200
    aux[4] = cell
    _write_stamped_csv(tmp_path / "data.csv", aux)
    data = ["--data", str(tmp_path / "data.csv"), "--target", "load"]
    config = write_bench_config(tmp_path, tmp_path / "data.csv", tmp_path / "grid-out")
    doc = json.loads(config.read_text())
    doc["dataset"]["target"] = "load"
    config.write_text(json.dumps(doc))
    argv = {
        "forecast": ["forecast", *data, "--context", "16", "--horizon", "4"],
        "retrieve": ["retrieve", *data, "--context", "16", "--horizon", "4"],
        "refine": ["refine", *data, "--context", "16", "--horizon", "4", "--out", str(tmp_path / "out")],
        "bench": ["bench", "--config", str(config)],
    }[command]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {what} at row 5, column 'aux'\n"


# --- braces in user data ------------------------------------------------------


@pytest.mark.parametrize("case", ["target", "file-name", "description"])
def test_braces_in_user_data_reach_the_prompt_as_text(case, series_csv, tmp_path, capsys):
    record = tmp_path / "record.jsonl"
    if case == "target":
        data = tmp_path / "brace.csv"
        data.write_text(series_csv.read_text().replace("v", "{load}", 1))
        argv = ["forecast", "--data", str(data), "--target", "{load}", "--context", "48",
                "--horizon", "8"]
        text = "{load}"
    elif case == "file-name":
        data = tmp_path / "{x}.csv"
        data.write_text(series_csv.read_text())
        argv = ["refine", "--data", str(data), "--target", "v", "--context", "16",
                "--horizon", "4", "--samples", "2", "--max-iter", "2",
                "--out", str(tmp_path / "out")]
        text = "{x}"
    else:
        config = write_bench_config(tmp_path, series_csv, tmp_path / "grid-out")
        doc = json.loads(config.read_text())
        doc["dataset"]["description"] = "{hourly} load"
        config.write_text(json.dumps(doc))
        argv = ["bench", "--config", str(config)]
        text = "{hourly} load"
    assert run_cli(*argv, "--record", str(record)) == 0, capsys.readouterr().err
    prompts = [json.loads(line)["prompt"] for line in record.read_text().splitlines()]
    assert text in prompts[0]


# --- flag defaults ------------------------------------------------------------


def _declarations(command):
    """Each flag of ``command`` by dest: its options, type, default,
    whether it is required, and its help text."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        a.dest: (a.option_strings, a.type, a.default, a.required, a.help)
        for a in sub.choices[command]._actions
    }


_SERIES_FLAGS = ("data", "target", "timestamp_column", "context", "horizon", "m", "precision")


@pytest.mark.parametrize(
    "argv, flags",
    [
        (
            ["forecast", "--data", "x.csv", "--target", "v", "--horizon", "4"],
            {"m": "analog_count", "precision": "precision", "seed": "seed"},
        ),
        (
            ["refine", "--data", "x.csv", "--target", "v", "--horizon", "4"],
            {
                "m": "analog_count", "precision": "precision", "seed": "seed",
                "max_iter": "max_iterations", "stop_threshold": "stop_threshold_pct",
                "samples": "sample_size", "strategy": "strategy",
            },
        ),
        (
            ["retrieve", "--data", "x.csv", "--target", "v", "--horizon", "4"],
            {"m": "analog_count", "precision": "precision"},
        ),
    ],
    ids=["forecast", "refine", "retrieve"],
)
def test_session_flags_default_to_the_session_config(argv, flags):
    args = cli.build_parser().parse_args(argv)
    # forecast, refine and retrieve declare the series flags alike
    declared = _declarations(argv[0])
    refine = _declarations("refine")
    assert {f: declared[f] for f in _SERIES_FLAGS} == {f: refine[f] for f in _SERIES_FLAGS}
    defaults = {f.name: f.default for f in dataclasses.fields(SessionConfig)}
    assert {dest: getattr(args, dest) for dest in flags} == {
        dest: defaults[name] for dest, name in flags.items()
    }
    if argv[0] != "retrieve":
        assert args.no_retrieval is not defaults["retrieval_enabled"]
    assert args.context == DEFAULT_CONTEXT_LENGTH
