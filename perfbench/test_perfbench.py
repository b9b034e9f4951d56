"""The benchmark's own tests, at tiny sizes.

Each workload smoke-runs traced and untraced, the span-coverage guard holds
and fires, and the count metrics repeat exactly across runs.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from wrappers import LatencyModel  # noqa: E402

EXACT = ("completion_calls", "prompt_kchars", "mae")

TINY = {
    "ablate-cpu": lambda: workloads.AblationWorkload(
        "tiny-cpu", points=700, horizons=(12,), runs=1, test_windows=2
    ),
    "ablate-llm": lambda: workloads.AblationWorkload(
        "tiny-llm",
        points=700,
        latency=LatencyModel(fixed_ms=0.1, prompt_ms_per_kchar=0.01, reply_ms_per_kchar=0.05),
        horizons=(12,),
        runs=1,
        test_windows=2,
    ),
    "forecast-stream": lambda: workloads.StreamWorkload(
        "tiny-stream", points=500, context=48, horizon=8, min_requests=4, max_requests=20
    ),
}


@pytest.fixture
def no_import_timing(monkeypatch):
    """Skip the fresh-interpreter import timing where setup is not under test."""
    monkeypatch.setattr(workloads, "import_seconds", lambda src: 0.0)


def _run(name, tmp_path, trace, seed=3, spans_out=None):
    return workloads.run(TINY[name](), seed, 0.0, trace, tmp_path, ROOT / "src", spans_out)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_traced_run_covers_every_expected_layer(name, tmp_path):
    spans_out = tmp_path / "spans.jsonl"
    result, problems = _run(name, tmp_path, trace=True, spans_out=spans_out)
    assert problems == []
    first = json.loads(spans_out.read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "request"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert "trace.overhead_s" in metrics
    assert metrics["retrieval.retrieve_calls"] > 0
    assert metrics["backends.calls_forecaster"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_count_metrics_repeat_exactly(name, tmp_path, no_import_timing):
    first, _ = _run(name, tmp_path, trace=False)
    second, _ = _run(name, tmp_path, trace=False)
    assert first["correct"] and second["correct"]
    for key in EXACT:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_coverage_guard_fails_when_a_wrapper_stops_firing(tmp_path, monkeypatch, no_import_timing):
    kept = tuple(t for t in workloads.SPAN_TARGETS if t[0] != "retrieval.retrieve")
    monkeypatch.setattr(workloads, "SPAN_TARGETS", kept)
    result, problems = _run("ablate-cpu", tmp_path, trace=True)
    assert not result["correct"]
    assert "span coverage: retrieval.retrieve recorded zero calls" in problems


def test_stream_check_catches_stale_analogs(tmp_path, monkeypatch, no_import_timing):
    """A retrieval cache that ignores the query puts the first request's
    analogs into every later prompt; the analog check must see it."""
    import flairr.session

    first = []

    def stale(db, context, count):
        if not first:
            first.append(original(db, context, count))
        return first[0]

    original = flairr.session.retrieve
    monkeypatch.setattr(flairr.session, "retrieve", stale)
    result, problems = _run("forecast-stream", tmp_path, trace=False)
    assert not result["correct"]
    assert any("lacks the exhaustive scan's analogs" in p for p in problems)


def test_spans_restore_the_program_afterwards(tmp_path, no_import_timing):
    import flairr.session

    original = flairr.session.retrieve
    _run("forecast-stream", tmp_path, trace=True)
    assert flairr.session.retrieve is original
