"""Refinement loop: validation windows, prompt evaluation, the refiner
consultation, and full session traces with controlled error sequences."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from flairr.backends import Backend, CompletionReply, ScriptedBackend, ScriptEntry
from flairr.errors import BackendError, ParseRetryError
from flairr.prompts import InstructionBlock
from flairr.retrieval import build_hist_db
from flairr.series import window_at
from flairr.session import (
    FORMAT_RETRY_SUFFIX,
    RefinementRecord,
    SampleRecord,
    SessionConfig,
    SessionResult,
    evaluate_prompt,
    forecast_reply_for,
    forecast_with,
    make_validation_windows,
    refine_step,
    run_session,
)
from flairr.testing import (
    SyntheticOracleBackend,
    forecast_reply,
    instructions_reply,
    refiner_reply,
    seasonal_series,
)

VALUES = np.arange(12.0)  # one window: context [6..9], truth [10, 11]


def small_cfg(**kw):
    defaults = dict(
        context_length=4,
        horizon=2,
        sample_size=1,
        retrieval_enabled=False,
        refinement_enabled=True,
    )
    defaults.update(kw)
    return SessionConfig(**defaults)


def ordinal(*texts):
    return ScriptedBackend([ScriptEntry(reply=t) for t in texts])


def tagged(**replies):
    return ScriptedBackend(
        [ScriptEntry(reply=text, tag=tag) for tag, text in replies.items()]
    )


class SpyBackend(Backend):
    """Forwards to an inner backend while keeping every request."""

    backend_id = "spy"

    def __init__(self, inner):
        self.inner = inner
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)


class TokenStampingBackend(Backend):
    """Forwards to an inner backend, stamping fixed token counts."""

    backend_id = "stamping"

    def __init__(self, inner):
        self.inner = inner

    def complete(self, request):
        reply = self.inner.complete(request)
        return CompletionReply(text=reply.text, token_counts=(10, 3))


def record_for(iteration, instructions, batch_mae):
    return RefinementRecord(
        iteration=iteration,
        instructions=instructions,
        batch_mae=batch_mae,
        per_sample=[
            SampleRecord(
                origin=10,
                predictions=(1.0, 2.0),
                truth=(1.5, 2.5),
                mae=0.5,
                prompt="sample prompt",
            )
        ],
    )


# --- config and windows -----------------------------------------------------


def test_session_config_defaults():
    cfg = SessionConfig(context_length=96, horizon=24)
    assert cfg.max_iterations == 5
    assert cfg.stop_threshold_pct == 5.0
    assert cfg.sample_size == 3
    assert cfg.analog_count == 2
    assert cfg.precision == 4
    assert cfg.parse_retries == 3
    assert cfg.retrieval_enabled and cfg.refinement_enabled


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(context_length=1, horizon=2)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=0)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=2, max_iterations=0)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=2, stop_threshold_pct=0.0)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=2, sample_size=0)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=2, analog_count=0)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=2, parse_retries=-1)


def test_analog_count_only_matters_while_retrieval_is_on():
    cfg = SessionConfig(
        context_length=4, horizon=2, analog_count=0, retrieval_enabled=False
    )
    assert cfg.effective_analog_count == 0
    on = SessionConfig(context_length=4, horizon=2, analog_count=5)
    assert on.effective_analog_count == 5


def test_make_validation_windows_tiles_the_series_end():
    cfg = small_cfg(sample_size=3)
    windows = make_validation_windows(np.arange(30.0), cfg)
    assert [w.origin for w in windows] == [16, 22, 28]  # chronological
    assert windows[0].context.tolist() == [12.0, 13.0, 14.0, 15.0]
    assert windows[-1].truth.tolist() == [28.0, 29.0]


def test_make_validation_windows_needs_enough_points():
    cfg = small_cfg(sample_size=3)
    with pytest.raises(ValueError, match="cannot host"):
        make_validation_windows(np.arange(17.0), cfg)
    assert len(make_validation_windows(np.arange(18.0), cfg)) == 3


# --- evaluate_prompt --------------------------------------------------------


def test_evaluate_prompt_averages_per_sample_mae():
    cfg = small_cfg(sample_size=3)
    values = np.arange(30.0)
    windows = make_validation_windows(values, cfg)
    backend = ordinal(
        forecast_reply([16.5, 17.5]),  # +0.5 on truth [16, 17]
        forecast_reply([23.0, 24.0]),  # +1.0 on truth [22, 23]
        forecast_reply([29.5, 30.5]),  # +1.5 on truth [28, 29]
    )
    outcome = evaluate_prompt(None, windows, cfg, None, backend)
    assert [s.mae for s in outcome.per_sample] == pytest.approx([0.5, 1.0, 1.5])
    assert outcome.batch_mae == pytest.approx(1.0)
    assert [s.origin for s in outcome.per_sample] == [16, 22, 28]
    assert outcome.parse_failures == 0 and outcome.skipped_samples == 0
    assert all(s.prompt for s in outcome.per_sample)


def test_evaluate_prompt_without_retrieval_has_no_analog_section():
    cfg = small_cfg()
    windows = make_validation_windows(VALUES, cfg)
    backend = ordinal(forecast_reply([10.0, 11.0]))
    outcome = evaluate_prompt(None, windows, cfg, None, backend)
    assert "Retrieved Historical Segments" not in outcome.per_sample[0].prompt


def test_evaluate_prompt_with_retrieval_embeds_analogs():
    cfg = small_cfg(retrieval_enabled=True, analog_count=2)
    values = np.arange(30.0)
    windows = make_validation_windows(values, cfg)
    db = build_hist_db(values[:24], cfg.context_length, cfg.horizon)
    backend = ordinal(forecast_reply([28.0, 29.0]))
    outcome = evaluate_prompt(None, windows, cfg, db, backend)
    prompt = outcome.per_sample[0].prompt
    assert "Retrieved Historical Segments" in prompt
    assert "Segment 1 (similarity " in prompt
    assert "Segment 2 (similarity " in prompt


def test_evaluate_prompt_retries_with_corrective_suffix():
    cfg = small_cfg(parse_retries=1)
    windows = make_validation_windows(VALUES, cfg)
    spy = SpyBackend(ordinal("Predicted Values: [broken", forecast_reply([10.0, 11.0])))
    outcome = evaluate_prompt(None, windows, cfg, None, spy)
    assert outcome.parse_failures == 1
    assert outcome.skipped_samples == 0
    assert len(spy.requests) == 2
    assert spy.requests[1].prompt == spy.requests[0].prompt + FORMAT_RETRY_SUFFIX


def test_evaluate_prompt_retries_a_non_finite_forecast():
    cfg = small_cfg(parse_retries=1)
    windows = make_validation_windows(VALUES, cfg)
    spy = SpyBackend(ordinal("Predicted Values: [nan, inf]", forecast_reply([10.0, 11.0])))
    outcome = evaluate_prompt(None, windows, cfg, None, spy)
    assert outcome.parse_failures == 1
    assert outcome.per_sample[0].predictions == (10.0, 11.0)
    assert spy.requests[1].prompt == spy.requests[0].prompt + FORMAT_RETRY_SUFFIX


def test_evaluate_prompt_skips_a_hopeless_sample():
    cfg = small_cfg(sample_size=2, parse_retries=1)
    values = np.arange(30.0)
    windows = make_validation_windows(values, cfg)[:2]
    backend = ordinal(
        "garbage",  # window 1, attempt 1
        "garbage again",  # window 1, attempt 2 -> skipped
        forecast_reply([29.0, 30.0]),  # window 2 succeeds (truth [28, 29])
    )
    outcome = evaluate_prompt(None, windows, cfg, None, backend)
    assert outcome.skipped_samples == 1
    assert outcome.parse_failures == 2  # the skipped sample burned both attempts
    assert len(outcome.per_sample) == 1
    assert outcome.per_sample[0].origin == 28
    assert outcome.batch_mae == pytest.approx(1.0)


def test_evaluate_prompt_fails_when_every_sample_fails():
    cfg = small_cfg(parse_retries=1)
    windows = make_validation_windows(VALUES, cfg)
    backend = ordinal("bad", "still bad")
    with pytest.raises(ParseRetryError, match="all 1 validation samples"):
        evaluate_prompt(None, windows, cfg, None, backend)


def test_evaluate_prompt_rejects_empty_batch():
    with pytest.raises(ValueError):
        evaluate_prompt(None, [], small_cfg(), None, ordinal("x"))


def test_evaluate_prompt_token_accounting():
    cfg = small_cfg(sample_size=2)
    values = np.arange(30.0)
    windows = make_validation_windows(values, cfg)[:2]
    backend = TokenStampingBackend(
        ordinal(forecast_reply([22.0, 23.0]), forecast_reply([28.0, 29.0]))
    )
    outcome = evaluate_prompt(None, windows, cfg, None, backend)
    assert outcome.tokens_in == 20 and outcome.tokens_out == 6


# --- refine_step ------------------------------------------------------------


def test_refine_step_synthesizes_next_instructions():
    backend = tagged(
        refiner=refiner_reply("lean on the trend", done=False),
        synthesis=instructions_reply(["Lean on the recent trend."]),
    )
    outcome = refine_step([record_for(0, None, 1.0)], small_cfg(), backend)
    assert outcome.done is False
    assert outcome.next_instructions.items == ("Lean on the recent trend.",)
    assert outcome.next_instructions.source_iteration == 1
    assert outcome.reply.learnings == "lean on the trend"


def test_refine_step_done_skips_synthesis():
    backend = tagged(refiner=refiner_reply("converged", done=True))
    history = [record_for(0, None, 1.0), record_for(1, None, 0.99)]
    outcome = refine_step(history, small_cfg(), backend)
    assert outcome.done is True
    assert outcome.next_instructions is None
    # the script had no synthesis entry, so reaching here proves it wasn't asked


def test_refine_step_overrides_done_on_first_iteration():
    backend = tagged(
        refiner=refiner_reply("already stable", done=True),
        synthesis=instructions_reply(["Hold the line."]),
    )
    outcome = refine_step([record_for(0, None, 1.0)], small_cfg(), backend)
    assert outcome.reply.done is True  # what the refiner said
    assert outcome.done is False  # what the loop does with it
    assert outcome.next_instructions.items == ("Hold the line.",)


def test_refine_step_override_with_no_learnings_keeps_current():
    block = InstructionBlock(items=("existing rule",))
    backend = tagged(refiner="Done: True")
    outcome = refine_step([record_for(0, block, 1.0)], small_cfg(), backend)
    assert outcome.done is False
    assert outcome.next_instructions is block


def test_refine_step_prompt_carries_full_history():
    history = [
        record_for(0, None, 0.9),
        record_for(1, InstructionBlock(items=("rule a",)), 0.5),
        record_for(2, InstructionBlock(items=("rule b", "rule c")), 0.7),
    ]
    spy = SpyBackend(
        tagged(
            refiner=refiner_reply("more work", done=False),
            synthesis=instructions_reply(["next rule"]),
        )
    )
    refine_step(history, small_cfg(), spy)
    prompt = spy.requests[0].prompt
    assert "for this Iteration 3:" in prompt
    assert "- Iteration 1 | MAE 0.9000 | Instructions: (none - the base forecasting prompt)" in prompt
    assert "- Iteration 2 | MAE 0.5000 | Instructions: rule a" in prompt
    assert "- Iteration 3 | MAE 0.7000 | Instructions: rule b; rule c" in prompt
    assert prompt.count("- Iteration ") == 3


def test_refine_step_needs_history():
    with pytest.raises(ValueError):
        refine_step([], small_cfg(), ordinal("x"))


def test_refine_step_retries_placeholder_leak_in_synthesis():
    from flairr.prompts import render_synthesis_prompt

    leaky = instructions_reply(["use {previous_data} here"])
    clean = instructions_reply(["use the recent values"])
    backend = SpyBackend(
        ScriptedBackend(
            [
                ScriptEntry(reply=refiner_reply("fix it", done=False), tag="refiner"),
                ScriptEntry(reply=leaky, prompt=render_synthesis_prompt("fix it")),
                ScriptEntry(reply=clean, contains=FORMAT_RETRY_SUFFIX),
            ]
        )
    )
    outcome = refine_step([record_for(0, None, 1.0)], small_cfg(parse_retries=1), backend)
    assert outcome.next_instructions.items == ("use the recent values",)
    assert outcome.parse_failures == 1


# --- run_session traces -----------------------------------------------------


def test_session_early_stop_returns_current_instructions_not_best():
    cfg = small_cfg(max_iterations=5)
    backend = ordinal(
        forecast_reply([10.2, 11.2]),  # iteration 0: MAE 0.2 (the best)
        refiner_reply("push on", done=False),
        instructions_reply(["block A"]),
        forecast_reply([10.9, 11.9]),  # iteration 1: MAE 0.9 (worse)
        refiner_reply("plateaued", done=True),
    )
    result = run_session(cfg, VALUES, backend)
    assert result.early_stop is True
    assert result.iterations_used == 2
    assert result.final_instructions.items == ("block A",)  # current, not best
    assert result.best_iteration == 0
    assert result.best_mae == pytest.approx(0.2)
    assert backend.remaining == 0


def test_session_exhaustion_falls_back_to_best_instructions():
    cfg = small_cfg(max_iterations=3)
    backend = ordinal(
        forecast_reply([10.9, 11.9]),  # iteration 0: MAE 0.9, no instructions
        refiner_reply("l0", done=False),
        instructions_reply(["block A"]),
        forecast_reply([10.4, 11.4]),  # iteration 1: MAE 0.4 with block A
        refiner_reply("l1", done=False),
        instructions_reply(["block B"]),
        forecast_reply([10.7, 11.7]),  # iteration 2: MAE 0.7 with block B
        refiner_reply("l2", done=False),
        instructions_reply(["block C"]),  # synthesized, then discarded
    )
    result = run_session(cfg, VALUES, backend)
    assert result.early_stop is False
    assert result.iterations_used == 3
    assert result.best_iteration == 1
    assert result.best_mae == pytest.approx(0.4)
    assert result.final_instructions.items == ("block A",)
    assert backend.remaining == 0  # the last pass still consulted both agents
    assert [rec.instructions.items if rec.instructions else None for rec in result.history] == [
        None,
        ("block A",),
        ("block B",),
    ]


def test_session_equal_maes_keep_the_earliest_best():
    cfg = small_cfg(max_iterations=3)
    backend = ordinal(
        forecast_reply([10.5, 11.5]),
        refiner_reply("l0", done=False),
        instructions_reply(["block A"]),
        forecast_reply([10.5, 11.5]),
        refiner_reply("l1", done=False),
        instructions_reply(["block B"]),
        forecast_reply([10.5, 11.5]),
        refiner_reply("l2", done=False),
        instructions_reply(["block C"]),
    )
    result = run_session(cfg, VALUES, backend)
    assert result.best_iteration == 0
    assert result.final_instructions is None  # iteration 0 ran the bare prompt


def test_session_without_refinement_is_a_single_pass():
    cfg = small_cfg(refinement_enabled=False)
    backend = ordinal(forecast_reply([10.0, 11.0]))
    result = run_session(cfg, VALUES, backend)
    assert result.iterations_used == 1
    assert result.early_stop is False
    assert result.final_instructions is None
    assert result.history[0].refiner_reply is None
    assert result.best_mae == pytest.approx(0.0)


def test_session_respects_max_iterations():
    cfg = small_cfg(max_iterations=2)
    backend = ordinal(
        forecast_reply([10.1, 11.1]),
        refiner_reply("l0", done=False),
        instructions_reply(["block A"]),
        forecast_reply([10.1, 11.1]),
        refiner_reply("l1", done=False),
        instructions_reply(["block B"]),
        forecast_reply([10.1, 11.1]),  # never requested
    )
    result = run_session(cfg, VALUES, backend)
    assert result.iterations_used == 2
    assert backend.remaining == 1


def test_session_aborts_carry_partial_history():
    cfg = small_cfg(max_iterations=3)
    backend = ordinal(
        forecast_reply([10.2, 11.2]),
        refiner_reply("l0", done=False),
        instructions_reply(["block A"]),
        forecast_reply([10.3, 11.3]),
        # script ends: the iteration-1 refiner call must fail
    )
    with pytest.raises(BackendError) as excinfo:
        run_session(cfg, VALUES, backend)
    partial = excinfo.value.partial_history
    assert len(partial) == 2
    assert partial[0].batch_mae == pytest.approx(0.2)
    assert partial[1].batch_mae == pytest.approx(0.3)


def test_session_retrieval_database_stops_before_validation_contexts():
    cfg = small_cfg(retrieval_enabled=True, sample_size=2, refinement_enabled=False)
    values = np.arange(30.0)  # value == index, so leakage would be visible
    backend = ordinal(forecast_reply([22.0, 23.0]), forecast_reply([28.0, 29.0]))
    result = run_session(cfg, values, backend)
    prompt = result.history[0].per_sample[0].prompt
    analog_block = prompt.split("Retrieved Historical Segments")[1].split("Input Data")[0]
    floats = [float(tok) for tok in re.findall(r"-?\d+\.\d+", analog_block)]
    numbers = [v for v in floats if v > 1.0]  # drop similarity scores
    # validation origins are 22 and 28; the earliest context starts at 18,
    # so nothing from index 18 onward may appear in any analog
    assert numbers and max(numbers) < 18.0


def test_session_errors_when_no_room_for_retrieval():
    cfg = small_cfg(retrieval_enabled=True, sample_size=3)
    with pytest.raises(ValueError, match="too short"):
        run_session(cfg, np.arange(18.0), ordinal(forecast_reply([1.0, 2.0])))


def test_session_uses_leading_slice_of_provided_windows():
    cfg = small_cfg(sample_size=2)
    values = np.arange(40.0)
    windows = [window_at(values, t, 4, 2) for t in (10, 20, 30)]
    backend = ordinal(
        forecast_reply([10.0, 11.0]),
        forecast_reply([20.0, 21.0]),
        refiner_reply("done enough", done=False),
        instructions_reply(["rule"]),
    )
    result = run_session(
        small_cfg(sample_size=2, max_iterations=1), values, backend, validation_windows=windows
    )
    assert [s.origin for s in result.history[0].per_sample] == [10, 20]
    with pytest.raises(ValueError, match="at least sample_size"):
        run_session(cfg, values, ordinal("x"), validation_windows=windows[:1])


def test_session_refiner_sees_one_pair_per_completed_iteration():
    cfg = SessionConfig(
        context_length=16,
        horizon=4,
        sample_size=2,
        analog_count=2,
        max_iterations=3,
        seed=1,
    )
    values = seasonal_series(200, period=20, trend=0.01, amplitude=0.5, seed=4)
    spy = SpyBackend(SyntheticOracleBackend(seed=9))
    run_session(cfg, values, spy)
    refiner_prompts = [r.prompt for r in spy.requests if r.tag == "refiner"]
    assert len(refiner_prompts) == 3
    for k, prompt in enumerate(refiner_prompts):
        assert prompt.count("- Iteration ") == k + 1
        assert f"for this Iteration {k + 1}:" in prompt


def test_session_log_is_json_lines_with_header_and_result(tmp_path):
    log_path = tmp_path / "session.jsonl"
    cfg = small_cfg(max_iterations=2)
    backend = ordinal(
        forecast_reply([10.1, 11.1]),
        refiner_reply("l0", done=False),
        instructions_reply(["block A"]),
        forecast_reply([10.2, 11.2]),
        refiner_reply("plateaued", done=True),
    )
    result = run_session(cfg, VALUES, backend, log_path=log_path)
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [entry["kind"] for entry in lines] == ["session", "iteration", "iteration", "result"]
    header = lines[0]
    assert header["config"]["max_iterations"] == 2
    assert header["config"]["retrieval_enabled"] is False
    assert header["validation_origins"] == [10]
    assert lines[1]["iteration"] == 0
    assert lines[1]["refiner"]["done"] is False
    assert lines[2]["refiner"]["done"] is True
    tail = lines[-1]
    assert tail["early_stop"] is True
    assert tail["iterations_used"] == 2
    assert tail["final_instructions"] == ["block A"]
    assert result.early_stop is True


def _strict_json_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_session_log_is_strict_json_without_a_finite_mae(tmp_path):
    log_path = tmp_path / "session.jsonl"
    cfg = small_cfg(max_iterations=1, refinement_enabled=False)
    # finite predictions whose absolute errors sum past the float range
    reply = "Predicted Values: [1e308, 1e308]"
    result = run_session(cfg, VALUES, ordinal(reply), log_path=log_path)
    assert result.best_mae == float("inf")
    lines = [_strict_json_loads(line) for line in log_path.read_text().splitlines()]
    assert lines[1]["batch_mae"] is None
    assert lines[1]["per_sample"][0]["predictions"] == [1e308, 1e308]
    assert lines[-1]["best_mae"] is None


def test_session_is_deterministic_with_the_oracle():
    cfg = SessionConfig(context_length=16, horizon=8, sample_size=2, max_iterations=2, seed=7)
    values = seasonal_series(120, period=24, trend=0.02, amplitude=0.3, seed=2)

    def one_run():
        result = run_session(cfg, values, SyntheticOracleBackend(seed=5))
        return (
            [rec.batch_mae for rec in result.history],
            result.final_instructions.items if result.final_instructions else None,
        )

    assert one_run() == one_run()


def test_session_result_token_totals_sum_history():
    records = [record_for(0, None, 1.0), record_for(1, None, 0.9)]
    records[0].tokens_in, records[0].tokens_out = 5, 2
    records[1].tokens_in, records[1].tokens_out = 7, 4
    result = SessionResult(
        base_template_id="forecaster-base",
        final_instructions=None,
        early_stop=False,
        best_iteration=0,
        best_mae=1.0,
        history=records,
    )
    assert result.tokens_in == 12 and result.tokens_out == 6
    assert result.prompt_out == ("forecaster-base", None)


# --- single-window forecasting ----------------------------------------------


def test_forecast_reply_for_returns_full_reply():
    cfg = small_cfg()
    window = make_validation_windows(VALUES, cfg)[0]
    reply = forecast_reply_for(window, cfg, None, SyntheticOracleBackend(seed=1, noise_scale=0.0))
    assert len(reply.values) == 2
    assert reply.values == pytest.approx((10.0, 11.0), abs=1e-6)
    assert reply.reasoning
    assert reply.certainty == 80.0


def test_forecast_with_accepts_result_or_pair():
    cfg = small_cfg()
    window = make_validation_windows(VALUES, cfg)[0]
    backend = SyntheticOracleBackend(seed=1, noise_scale=0.0)
    from_pair = forecast_with(("forecaster-base", None), window, cfg, None, backend)
    result = SessionResult(
        base_template_id="forecaster-base",
        final_instructions=None,
        early_stop=False,
        best_iteration=0,
        best_mae=0.0,
        history=[],
    )
    from_result = forecast_with(result, window, cfg, None, backend)
    assert from_pair == from_result
    assert len(from_pair) == 2
