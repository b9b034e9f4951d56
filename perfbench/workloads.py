"""The benchmark's workloads and the closed loop that measures them.

Every workload is one client issuing requests back to back (a closed loop)
through flairr's public API, with the program's own settings at their
defaults (``jobs=1``). The program receives only the generated CSV and, for
the ablations, the experiment config; everything it answers is checked.

- ``ablate-cpu``: the four-condition ablation on the offline oracle. The
  CPU-bound research run: analog retrieval dominates, and its 232
  ``retrieve`` calls cover only 36 distinct query contexts.
- ``ablate-llm``: the same ablation on a short series behind a
  deterministic latency model, standing in for a live endpoint where cost
  is calls and prompt size. Retrieval is negligible here.
- ``forecast-stream``: the deployment path. Each request moves the CSV
  one row forward (it gains the next row and drops its oldest) and runs
  ``flairr forecast`` in-process, so every request reloads the data,
  rebuilds the database and retrieves for a new query, with the same amount
  of work however many requests fit into the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

import flairr.bench
import flairr.cli
from flairr.bench import ABLATION_CONDITIONS, ExperimentConfig
from flairr.retrieval import AnalogSegment, format_analogs, pearson
from flairr.testing import SyntheticOracleBackend, seasonal_series

from spans import Tracer, patched
from wrappers import CountingBackend, LatencyBackend, LatencyModel

SETUP_REPEATS = 7
TARGET = "value"
# analog count and prompt precision passed to `flairr forecast`; the
# stream's analog check uses the same values
ANALOGS = 2
PRECISION = 4

# (span name, module whose attribute callers resolve, attribute)
SPAN_TARGETS = (
    ("series.load_csv", "flairr.bench", "load_csv"),
    ("series.load_csv", "flairr.cli", "load_csv"),
    ("retrieval.build_hist_db", "flairr.session", "build_hist_db"),
    ("retrieval.build_hist_db", "flairr.bench", "build_hist_db"),
    ("retrieval.build_hist_db", "flairr.cli", "build_hist_db"),
    ("retrieval.retrieve", "flairr.session", "retrieve"),
    ("retrieval.format_analogs", "flairr.session", "format_analogs"),
    ("prompts.format_numbers", "flairr.prompts", "format_numbers"),
    ("prompts.format_numbers", "flairr.retrieval", "format_numbers"),
    ("prompts.format_numbers", "flairr.session", "format_numbers"),
    ("prompts.format_numbers", "flairr.cli", "format_numbers"),
    ("prompts.render_forecaster", "flairr.session", "render_forecaster_prompt"),
    ("prompts.render_refiner", "flairr.session", "render_refiner_prompt"),
    ("prompts.render_synthesis", "flairr.session", "render_synthesis_prompt"),
    ("prompts.parse", "flairr.session", "parse_forecast_reply"),
    ("prompts.parse", "flairr.session", "parse_refiner_reply"),
    ("prompts.parse", "flairr.session", "parse_instructions_reply"),
    ("session.run_session", "flairr.bench", "run_session"),
    ("session.evaluate_prompt", "flairr.session", "evaluate_prompt"),
    ("session.refine_step", "flairr.session", "refine_step"),
    ("session.forecast_with", "flairr.bench", "forecast_with"),
    ("session.forecast_reply_for", "flairr.session", "forecast_reply_for"),
    ("session.forecast_reply_for", "flairr.cli", "forecast_reply_for"),
    ("bench.emit_report", "flairr.bench", "emit_report"),
)

ABLATION_SPANS = frozenset(
    {
        "bench.run_ablation",
        "bench.emit_report",
        "series.load_csv",
        "retrieval.build_hist_db",
        "retrieval.retrieve",
        "retrieval.format_analogs",
        "prompts.format_numbers",
        "prompts.render_forecaster",
        "prompts.render_refiner",
        "prompts.render_synthesis",
        "prompts.parse",
        "backends.complete",
        "session.run_session",
        "session.evaluate_prompt",
        "session.refine_step",
        "session.forecast_with",
        "session.forecast_reply_for",
    }
)

STREAM_SPANS = frozenset(
    {
        "cli.main",
        "series.load_csv",
        "retrieval.build_hist_db",
        "retrieval.retrieve",
        "retrieval.format_analogs",
        "prompts.format_numbers",
        "prompts.render_forecaster",
        "prompts.parse",
        "backends.complete",
        "session.forecast_reply_for",
    }
)


def make_series(points: int, seed: int) -> np.ndarray:
    """The seeded input series: a daily cycle over hourly steps, a slow
    trend, and noise."""
    return seasonal_series(
        points, period=24, trend=0.0005, amplitude=1.0, noise=0.2, seed=seed
    )


def _stamp(i: int) -> str:
    return (datetime(2020, 1, 1) + timedelta(hours=i)).isoformat()


def _csv_row(i: int, value: float) -> str:
    return f"{_stamp(i)},{float(value)!r}\n"


def write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"timestamp,{TARGET}\n")
        fh.writelines(rows)


def write_csv(path: Path, values) -> None:
    write_rows(path, (_csv_row(i, v) for i, v in enumerate(values)))


def _span_targets(tracer: Tracer):
    seen: set = set()

    def on_retrieve(t, args, kwargs, result):
        context = args[1] if len(args) > 1 else kwargs["context"]
        key = (t.request, np.asarray(context, dtype=np.float64).tobytes())
        if key not in seen:
            seen.add(key)
            t.counters["retrieval.retrieve_distinct"] += 1

    def on_build(t, args, kwargs, result):
        t.counters["retrieval.build_windows"] += len(result)

    def on_format(t, args, kwargs, result):
        t.counters["prompts.format_numbers_values"] += len(
            args[0] if args else kwargs["values"]
        )

    def on_session(t, args, kwargs, result):
        t.counters["session.iterations"] += result.iterations_used

    hooks = {
        "retrieval.retrieve": on_retrieve,
        "retrieval.build_hist_db": on_build,
        "prompts.format_numbers": on_format,
        "session.run_session": on_session,
    }
    return [
        (module, attr, lambda fn, name=name: tracer.wrap(fn, name, hooks.get(name)))
        for name, module, attr in SPAN_TARGETS
    ]


def _traced_counting(inner, tracer: Tracer | None, meters: list) -> CountingBackend:
    backend = CountingBackend(inner)
    if tracer is not None:
        backend.complete = tracer.wrap(backend.complete, "backends.complete")
    meters.append(backend)
    return backend


class AblationWorkload:
    """``run_ablation`` from a generated CSV and JSON experiment config."""

    def __init__(
        self,
        name: str,
        points: int,
        latency: LatencyModel | None = None,
        horizons: tuple[int, ...] = (24, 48),
        runs: int = 2,
        test_windows: int = 20,
    ):
        self.name = name
        self.points = points
        self.latency = latency
        self.horizons = horizons
        self.runs = runs
        self.test_windows = test_windows
        self.expected_spans = ABLATION_SPANS | (
            {"backends.wait"} if latency is not None else set()
        )
        self.min_requests = 1
        self.max_requests = 1000
        self.problems: list[str] = []

    def prepare(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.csv_path = workdir / "series.csv"
        self.config_path = workdir / "experiment.json"
        write_csv(self.csv_path, make_series(self.points, seed))
        config = {
            "dataset": {"path": str(self.csv_path), "target": TARGET, "name": self.name},
            "horizons": list(self.horizons),
            "methods": ["flairr"],
            "runs": self.runs,
            "max_test_windows": self.test_windows,
            "output_dir": str(workdir / "out"),
            "seed": seed,
        }
        self.config_path.write_text(json.dumps(config), encoding="utf-8")

    def warm_up(self) -> None:
        # an ablation costs seconds, so only the config is read here; the
        # first timed request pays the milliseconds of lazy template loading
        ExperimentConfig.from_json(self.config_path)

    @contextlib.contextmanager
    def connected(self, tracer: Tracer | None, meters: list):
        inner = SyntheticOracleBackend(seed=self.seed)
        if self.latency is not None:
            sleep = time.sleep if tracer is None else tracer.wrap(time.sleep, "backends.wait")
            inner = LatencyBackend(inner, self.latency, sleep=sleep)
        self.backend = _traced_counting(inner, tracer, meters)

        def run(config_path):
            cfg = ExperimentConfig.from_json(config_path)
            return flairr.bench.run_ablation(cfg, self.backend)

        if tracer is not None:

            def on_ablation(t, args, kwargs, result):
                t.counters["bench.cells"] += sum(len(r.run_maes) for r in result[0])

            run = tracer.wrap(run, "bench.run_ablation", on_ablation)
        self._run = run
        yield

    def request(self, i: int):
        start = time.perf_counter()
        rows, run_dir = self._run(self.config_path)
        latency = time.perf_counter() - start
        emitted = json.loads((run_dir / "ablation.json").read_text(encoding="utf-8"))
        if [(r["horizon"], r["method"]) for r in emitted["rows"]] != [
            (r.horizon, r.method) for r in rows
        ]:
            self.problems.append(f"request {i}: ablation.json disagrees with the returned rows")
        shutil.rmtree(run_dir)
        return latency, rows

    def failed(self, output) -> bool:
        return False

    def check(self, outputs: list) -> list[str]:
        problems = list(self.problems)
        labels = [label for _, label in ABLATION_CONDITIONS]
        expected = [(h, label) for h in self.horizons for label in labels]
        for i, rows in enumerate(outputs):
            if [(r.horizon, r.method) for r in rows] != expected:
                problems.append(f"request {i}: rows are not the four conditions per horizon in order")
            for r in rows:
                maes = (*r.run_maes, r.median_mae)
                if len(r.run_maes) != self.runs or not all(map(math.isfinite, maes)):
                    problems.append(f"request {i}: {r.method} h={r.horizon} has MAEs {maes}")
            if rows != outputs[0]:
                problems.append(f"request {i}: report rows differ from request 0")
        return problems

    def mae(self, outputs: list) -> float:
        return statistics.fmean(r.median_mae for r in outputs[0] if r.method == "FLAIRR")


class StreamWorkload:
    """``flairr forecast`` in-process on a rolling window of the series.

    Each request moves the CSV one row forward: it gains the next row and
    drops its oldest, so request ``i`` forecasts from rows ``i + 1`` to
    ``points + i``. Every origin is new (no query repeats), and the work per
    request does not depend on how many requests fit into the timed phase.
    """

    def __init__(
        self,
        name: str,
        points: int,
        context: int = 336,
        horizon: int = 24,
        min_requests: int = 200,
        max_requests: int = 2000,
    ):
        self.name = name
        self.points = points
        self.context = context
        self.horizon = horizon
        self.min_requests = min_requests
        self.max_requests = max_requests
        self.expected_spans = STREAM_SPANS

    def prepare(self, workdir: Path, seed: int) -> None:
        self.seed = seed
        self.values = make_series(self.points + self.max_requests + self.horizon, seed)
        self.rows = [_csv_row(i, v) for i, v in enumerate(self.values[: self.points + self.max_requests])]
        self.csv_path = workdir / "stream.csv"
        write_rows(self.csv_path, self.rows[: self.points])
        rng = np.random.default_rng(seed)
        size = min(3, self.min_requests)
        self.sampled = {int(i) for i in rng.choice(self.min_requests, size=size, replace=False)}
        self.argv = [
            "forecast",
            "--data", str(self.csv_path),
            "--target", TARGET,
            "--context", str(self.context),
            "--horizon", str(self.horizon),
            "--m", str(ANALOGS),
            "--precision", str(PRECISION),
            "--seed", str(seed),
        ]

    def _forecast(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = flairr.cli.main(list(self.argv))
        return code, out.getvalue()

    def warm_up(self) -> None:
        self._forecast()

    @contextlib.contextmanager
    def connected(self, tracer: Tracer | None, meters: list):
        # one meter for the phase, answering through the oracle each request makes
        self.backend = _traced_counting(SyntheticOracleBackend(seed=self.seed), tracer, meters)
        self.prompts: dict[int, str] = {}

        def metered(cls):
            def make(*args, **kwargs):
                self.backend.inner = cls(*args, **kwargs)
                return self.backend

            return make

        self._call = self._forecast
        if tracer is not None:

            def count_request(t, args, kwargs, result):
                t.counters["cli.requests"] += 1

            self._call = tracer.wrap(self._forecast, "cli.main", count_request)
        with patched([("flairr.cli", "SyntheticOracleBackend", metered)]):
            yield

    def request(self, i: int):
        write_rows(self.csv_path, self.rows[i + 1 : self.points + i + 1])
        asked = self.backend.calls["forecaster"]
        start = time.perf_counter()
        output = self._call()
        latency = time.perf_counter() - start
        if i in self.sampled and self.backend.calls["forecaster"] > asked:
            self.prompts[i] = self.backend.last_prompt["forecaster"]
        return latency, output

    def _predictions(self, output):
        for line in output[1].splitlines():
            if line.startswith("predicted_values: [") and line.endswith("]"):
                return [float(tok) for tok in line[len("predicted_values: [") : -1].split(",")]
        return None

    def failed(self, output) -> bool:
        return output[0] != 0

    def check(self, outputs: list) -> list[str]:
        problems = []
        for i, output in enumerate(outputs):
            values = self._predictions(output)
            if output[0] != 0 or values is None:
                problems.append(f"request {i}: exit {output[0]}, output {output[1][:200]!r}")
            elif len(values) != self.horizon or not all(map(math.isfinite, values)):
                problems.append(f"request {i}: expected {self.horizon} finite values, got {values}")
        for i in sorted(self.sampled):
            if i < len(outputs):
                problems.extend(self._check_analogs(i))
        return problems

    def _check_analogs(self, i: int) -> list[str]:
        """The forecaster prompt of request ``i`` carries the top ``ANALOGS``
        windows of an exhaustive ``pearson`` scan over the history before
        the query, ranked by score and then by start."""
        series = self.values[i + 1 : self.points + i + 1]
        L, H = self.context, self.horizon
        history = series[: series.size - L]
        query = series[-L:]
        scored = []
        for start in range(history.size - L - H + 1):
            r = pearson(history[start : start + L], query)
            if r is not None:
                scored.append((start, r))
        scored.sort(key=lambda item: (-item[1], item[0]))
        top = [
            AnalogSegment(start, history[start : start + L], history[start + L : start + L + H], r)
            for start, r in scored[:ANALOGS]
        ]
        expected = format_analogs(top, PRECISION)
        prompt = self.prompts.get(i)
        if not expected or prompt is None or expected not in prompt:
            starts = [start for start, _ in scored[:ANALOGS]]
            return [f"request {i}: the forecaster prompt lacks the exhaustive scan's analogs at starts {starts}"]
        return []

    def mae(self, outputs: list) -> float:
        """Mean MAE of the first ``min_requests`` forecasts against the real
        continuation, in units of the initial series' standard deviation."""
        scale = float(np.std(self.values[: self.points]))
        errors = []
        for i, output in enumerate(outputs[: self.min_requests]):
            origin = self.points + i + 1
            truth = self.values[origin : origin + self.horizon]
            errors.append(float(np.mean(np.abs(np.asarray(self._predictions(output)) - truth))))
        return statistics.fmean(errors) / scale


WORKLOADS = {
    "ablate-cpu": lambda: AblationWorkload("ablate-cpu", points=5000),
    "ablate-llm": lambda: AblationWorkload(
        "ablate-llm",
        points=1500,
        latency=LatencyModel(fixed_ms=3.0, prompt_ms_per_kchar=1.5, reply_ms_per_kchar=6.0),
    ),
    "forecast-stream": lambda: StreamWorkload("forecast-stream", points=10000),
}


def import_seconds(src: Path) -> float:
    """Import time of the program's modules in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import flairr.cli, flairr.bench; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip())


class Phase:
    """One closed-loop pass: latencies, outputs and the backend meters."""

    def __init__(self, workload, seconds: float, count: int | None, tracer: Tracer | None):
        self.latencies: list[float] = []
        self.outputs: list = []
        self.meters: list[CountingBackend] = []
        self.started = 0
        self.failed_requests = 0
        self.problems: list[str] = []
        with workload.connected(tracer, self.meters):
            start = time.perf_counter()
            i = 0
            while i < workload.max_requests:
                if count is not None:
                    if i >= count:
                        break
                elif time.perf_counter() - start >= seconds and i >= workload.min_requests:
                    break
                if tracer is not None:
                    tracer.request = i
                self.started += 1
                try:
                    latency, output = workload.request(i)
                except Exception as exc:  # a failed request is counted and reported
                    self.failed_requests += 1
                    self.problems.append(f"request {i} raised {exc!r}")
                    break
                self.latencies.append(latency)
                self.outputs.append(output)
                self.failed_requests += int(workload.failed(output))
                i += 1

    @property
    def requests(self) -> int:
        return len(self.latencies)

    def _total(self, counter: str, tag: str | None) -> int:
        counts = [getattr(m, counter) for m in self.meters]
        return sum(sum(c.values()) if tag is None else c[tag] for c in counts)

    def calls(self, tag: str | None = None) -> int:
        return self._total("calls", tag)

    def kchars(self, counter: str, tag: str | None = None) -> float:
        return self._total(counter, tag) / 1000.0

    @property
    def retries(self) -> int:
        return sum(m.retries for m in self.meters)

    def percentile_ms(self, q: int) -> float:
        """The ``q``-th percentile of request latency, interpolated between
        the two nearest samples."""
        if self.requests == 1:
            return self.latencies[0] * 1000.0
        return statistics.quantiles(self.latencies, n=100, method="inclusive")[q - 1] * 1000.0

    def summary(self) -> str:
        """Request count, the 10th percentile, the median, and the 90th
        percentile with the number of samples beyond it. The median and the
        90th percentile are informational: they follow the shared machine's
        load (see README), and a workload with fewer than ten samples beyond
        the 90th percentile has no steady tail to bound."""
        p90 = self.percentile_ms(90)
        beyond = sum(latency * 1000.0 > p90 for latency in self.latencies)
        return (
            f"requests={self.requests} p10_ms={self.percentile_ms(10):.3f} "
            f"p50_ms={self.percentile_ms(50):.3f} p90_ms={p90:.3f} beyond_p90={beyond}"
        )


def end_to_end(workload, phase: Phase, setup_s: float) -> dict[str, tuple[float, str]]:
    n = phase.requests
    return {
        "setup_s": (setup_s, "s"),
        "request_p10_ms": (phase.percentile_ms(10), "ms"),
        "completion_calls": (phase.calls() / n, "count"),
        "prompt_kchars": (phase.kchars("prompt_chars") / n, "kchar"),
        "mae": (workload.mae(phase.outputs), "scaled"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer: Tracer, phase: Phase, untraced: Phase) -> dict[str, tuple[float, str]]:
    n = phase.requests
    stats = tracer.layer_stats()

    def calls(name):
        return stats.get(name, {}).get("calls", 0) / n

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0) / n

    retrieve_calls = stats.get("retrieval.retrieve", {}).get("calls", 0)
    metrics = {
        "series.load_csv_calls": (calls("series.load_csv"), "count"),
        "series.load_csv_s": (self_s("series.load_csv"), "s"),
        "retrieval.build_calls": (calls("retrieval.build_hist_db"), "count"),
        "retrieval.build_windows": (tracer.counters["retrieval.build_windows"] / n, "count"),
        "retrieval.build_s": (self_s("retrieval.build_hist_db"), "s"),
        "retrieval.retrieve_calls": (calls("retrieval.retrieve"), "count"),
        "retrieval.retrieve_s": (self_s("retrieval.retrieve"), "s"),
        "retrieval.retrieve_distinct_share": (
            tracer.counters["retrieval.retrieve_distinct"] / retrieve_calls if retrieve_calls else 0.0,
            "ratio",
        ),
        "retrieval.format_analogs_s": (self_s("retrieval.format_analogs"), "s"),
        "prompts.format_numbers_calls": (calls("prompts.format_numbers"), "count"),
        "prompts.format_numbers_values": (tracer.counters["prompts.format_numbers_values"] / n, "count"),
        "prompts.format_numbers_s": (self_s("prompts.format_numbers"), "s"),
        "prompts.render_forecaster_s": (self_s("prompts.render_forecaster"), "s"),
        "prompts.render_refiner_s": (self_s("prompts.render_refiner"), "s"),
        "prompts.render_synthesis_s": (self_s("prompts.render_synthesis"), "s"),
        "prompts.parse_s": (self_s("prompts.parse"), "s"),
        "prompts.parse_failures": (tracer.errors["prompts.parse"] / n, "count"),
    }
    for tag in ("forecaster", "refiner", "synthesis"):
        metrics[f"backends.calls_{tag}"] = (phase.calls(tag) / n, "count")
        metrics[f"backends.prompt_kchars_{tag}"] = (phase.kchars("prompt_chars", tag) / n, "kchar")
    total_calls = phase.calls()
    metrics.update(
        {
            "backends.reply_kchars": (phase.kchars("reply_chars") / n, "kchar"),
            "backends.retry_share": (phase.retries / total_calls if total_calls else 0.0, "ratio"),
            "backends.busy_s": (self_s("backends.complete"), "s"),
            "backends.wait_s": (stats.get("backends.wait", {}).get("total_s", 0.0) / n, "s"),
            "session.run_session_calls": (calls("session.run_session"), "count"),
            "session.iterations": (tracer.counters["session.iterations"] / n, "count"),
            "session.run_session_s": (self_s("session.run_session"), "s"),
            "session.evaluate_prompt_s": (self_s("session.evaluate_prompt"), "s"),
            "session.refine_step_s": (self_s("session.refine_step"), "s"),
            "session.forecast_with_calls": (calls("session.forecast_with"), "count"),
            "session.forecast_with_s": (self_s("session.forecast_with"), "s"),
            "session.forecast_reply_for_calls": (calls("session.forecast_reply_for"), "count"),
            "session.forecast_reply_for_s": (self_s("session.forecast_reply_for"), "s"),
            "bench.cells": (tracer.counters["bench.cells"] / n, "count"),
            "bench.run_ablation_s": (self_s("bench.run_ablation"), "s"),
            "bench.emit_s": (self_s("bench.emit_report"), "s"),
            "cli.requests": (tracer.counters["cli.requests"] / n, "count"),
            "cli.main_s": (self_s("cli.main"), "s"),
            "trace.overhead_s": ((phase.percentile_ms(10) - untraced.percentile_ms(10)) / 1000.0, "s"),
        }
    )
    return metrics


def run(
    workload, seed: int, seconds: float, trace: bool, workdir: Path, src: Path,
    spans_out: Path | None = None,
) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload.

    Returns the result object and the list of failed checks. With ``trace``
    the untraced phase is replayed under spans for the same number of
    requests, and its outputs must match; the spans go to ``spans_out``.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(src)
        begin = time.perf_counter()
        workload.prepare(workdir, seed)
        workload.warm_up()
        setups.append(imported + time.perf_counter() - begin)
    setup_s = statistics.median(setups)

    untraced = Phase(workload, seconds, None, None)
    problems = untraced.problems + (workload.check(untraced.outputs) if untraced.outputs else [])
    attempted = untraced.started + untraced.calls()
    failed = untraced.failed_requests + untraced.retries
    metrics = {}
    if untraced.outputs and not problems:
        metrics = end_to_end(workload, untraced, setup_s)
        print(f"untraced: {untraced.summary()}")

    if trace and metrics:
        tracer = Tracer()
        with patched(_span_targets(tracer)):
            traced = Phase(workload, seconds, untraced.requests, tracer)
        problems += traced.problems
        attempted += traced.started + traced.calls()
        failed += traced.failed_requests + traced.retries
        if traced.outputs != untraced.outputs:
            problems.append("traced and untraced runs gave different outputs")
        replayed = end_to_end(workload, traced, setup_s) if traced.outputs else {}
        for key in ("completion_calls", "prompt_kchars", "mae"):
            again = replayed.get(key, (None,))[0]
            if again != metrics[key][0]:
                problems.append(f"{key} differs between traced ({again}) and untraced ({metrics[key][0]}) runs")
        if spans_out is not None:
            tracer.write(spans_out)
        stats = tracer.layer_stats()
        for span in sorted(workload.expected_spans):
            if stats.get(span, {}).get("calls", 0) == 0:
                problems.append(f"span coverage: {span} recorded zero calls")
        metrics = per_layer(tracer, traced, untraced) if not problems else {}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, problems
