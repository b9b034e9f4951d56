"""Refinement loop: validation windows, prompt evaluation, the refiner
consultation, and full session traces with controlled error sequences."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flairr.backends import (
    Backend,
    CallMeter,
    CompletionReply,
    CompletionRequest,
    ReplyStore,
    ScriptedBackend,
    ScriptEntry,
    load_script,
)
from flairr.errors import BackendError, ParseRetryError
from flairr.prompts import (
    SAMPLE_ANALOGS_MARKER,
    SAMPLE_HISTORY_MARKER,
    DatasetMeta,
    InstructionBlock,
    format_numbers,
    parse_forecast_reply,
    render_forecaster_prompt,
    render_refiner_prompt,
)
from flairr.retrieval import build_hist_db, format_analogs, retrieve
from flairr.series import window_at
from flairr.session import (
    DEFAULT_META,
    FORMAT_RETRY_SUFFIX,
    RefinementRecord,
    SampleRecord,
    SessionConfig,
    SessionResult,
    _complete_parsed,
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


def record_for(instructions, batch_mae):
    return RefinementRecord(
        instructions=instructions,
        batch_mae=batch_mae,
        per_sample=[
            SampleRecord(
                origin=10,
                predictions=(1.0, 2.0),
                truth=(1.5, 2.5),
                mae=0.5,
                history="1.0000, 2.0000",
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
    for threshold in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="stop_threshold_pct must be a finite number > 0"):
            SessionConfig(context_length=4, horizon=2, stop_threshold_pct=threshold)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=2, sample_size=0)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=2, analog_count=0)
    with pytest.raises(ValueError):
        SessionConfig(context_length=4, horizon=2, parse_retries=-1)
    with pytest.raises(ValueError, match="analog_count must be >= 0"):
        SessionConfig(context_length=4, horizon=2, analog_count=-1, retrieval_enabled=False)
    for precision in (-1, 11):
        with pytest.raises(ValueError, match="precision must be in 0..10"):
            SessionConfig(context_length=4, horizon=2, precision=precision)


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
    spy = SpyBackend(backend)
    meter = CallMeter(spy)
    outcome = evaluate_prompt(None, windows, cfg, None, meter)
    assert [s.mae for s in outcome.per_sample] == pytest.approx([0.5, 1.0, 1.5])
    assert outcome.batch_mae == pytest.approx(1.0)
    assert [s.origin for s in outcome.per_sample] == [16, 22, 28]
    assert meter.reasks == 0 and outcome.skipped_samples == 0
    assert [r.tag for r in spy.requests] == ["forecaster"] * 3
    for sample, request in zip(outcome.per_sample, spy.requests):
        assert sample.history and f"- Historical Data: {sample.history}\n" in request.prompt


def test_evaluate_prompt_without_retrieval_has_no_analog_section():
    cfg = small_cfg()
    windows = make_validation_windows(VALUES, cfg)
    spy = SpyBackend(ordinal(forecast_reply([10.0, 11.0])))
    outcome = evaluate_prompt(None, windows, cfg, None, spy)
    assert "Retrieved Historical Segments" not in spy.requests[0].prompt
    assert outcome.per_sample[0].analogs == ()


def test_evaluate_prompt_with_retrieval_embeds_analogs():
    cfg = small_cfg(retrieval_enabled=True, analog_count=2)
    values = np.arange(30.0)
    windows = make_validation_windows(values, cfg)
    db = build_hist_db(values[:24], cfg.context_length, cfg.horizon)
    spy = SpyBackend(ordinal(forecast_reply([28.0, 29.0])))
    outcome = evaluate_prompt(None, windows, cfg, db, spy)
    prompt = spy.requests[0].prompt
    segments = retrieve(db, windows[0].context, 2)
    assert outcome.per_sample[0].analogs == tuple(
        (seg.score, tuple(seg.outcome.tolist())) for seg in segments
    )
    assert format_analogs(segments, cfg.precision) in prompt
    assert "Retrieved Historical Segments" in prompt
    assert "Segment 1 (similarity " in prompt
    assert "Segment 2 (similarity " in prompt


def test_evaluate_prompt_retries_with_corrective_suffix():
    cfg = small_cfg(parse_retries=1)
    windows = make_validation_windows(VALUES, cfg)
    spy = SpyBackend(ordinal("Predicted Values: [broken", forecast_reply([10.0, 11.0])))
    meter = CallMeter(spy)
    outcome = evaluate_prompt(None, windows, cfg, None, meter)
    assert meter.reasks == 1
    assert outcome.skipped_samples == 0
    assert len(spy.requests) == 2
    assert spy.requests[1].prompt == spy.requests[0].prompt + FORMAT_RETRY_SUFFIX


def test_evaluate_prompt_retries_a_non_finite_forecast():
    cfg = small_cfg(parse_retries=1)
    windows = make_validation_windows(VALUES, cfg)
    spy = SpyBackend(ordinal("Predicted Values: [nan, inf]", forecast_reply([10.0, 11.0])))
    meter = CallMeter(spy)
    outcome = evaluate_prompt(None, windows, cfg, None, meter)
    assert meter.reasks == 1
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
    meter = CallMeter(backend)
    outcome = evaluate_prompt(None, windows, cfg, None, meter)
    assert outcome.skipped_samples == 1
    # the skipped sample burned both attempts: one re-ask, then the skip
    assert meter.reasks + outcome.skipped_samples == 2
    assert len(outcome.per_sample) == 1
    assert outcome.per_sample[0].origin == 28
    assert outcome.batch_mae == pytest.approx(1.0)


def test_session_record_counts_the_tokens_of_a_skipped_sample():
    cfg = small_cfg(sample_size=2, parse_retries=1, refinement_enabled=False)
    backend = ordinal("garbage", "garbage again", forecast_reply([29.0, 30.0]))
    (record,) = run_session(cfg, np.arange(30.0), TokenStampingBackend(backend)).history
    assert record.skipped_samples == 1
    assert (record.tokens_in, record.tokens_out) == (30, 9)  # three calls were made


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
    cfg = small_cfg(sample_size=2, refinement_enabled=False)
    backend = TokenStampingBackend(
        ordinal(forecast_reply([22.0, 23.0]), forecast_reply([28.0, 29.0]))
    )
    (record,) = run_session(cfg, np.arange(30.0), backend).history
    assert len(record.per_sample) == 2
    assert record.tokens_in == 20 and record.tokens_out == 6


def test_recorded_parse_retries_replay_attempt_by_attempt(tmp_path):
    # attempts 1 and 2 resend one prompt; only the attempt tells them apart
    class MalformedTwice(Backend):
        def complete(self, request):
            if request.attempt < 2:
                return CompletionReply(text=f"malformed {request.attempt}")
            return CompletionReply(text=forecast_reply([10.0, 11.0]))

    cfg = small_cfg(parse_retries=2)
    parser = lambda text: parse_forecast_reply(text, cfg.horizon)
    sink = tmp_path / "transcript.jsonl"
    live = _complete_parsed(
        ReplyStore(MalformedTwice(), sink), "prompt", "forecaster", parser, cfg
    )
    replayed = _complete_parsed(load_script(sink), "prompt", "forecaster", parser, cfg)
    assert replayed == live
    assert replayed.values == (10.0, 11.0)


class MalformedAt(Backend):
    """Answers ``{malformed}`` (which no agent grammar accepts) at the
    seeded call positions and forwards every other call to ``inner``;
    ``sent`` keeps (tag, malformed) per call, in order."""

    def __init__(self, inner, positions):
        self.inner = inner
        self.positions = positions
        self.sent = []

    def complete(self, request):
        malformed = len(self.sent) in self.positions
        self.sent.append((request.tag, malformed))
        if malformed:
            return CompletionReply(text="{malformed}")
        return self.inner.complete(request)


def malformed_per_iteration(sent):
    """Malformed replies per iteration, counted from the call sequence: an
    iteration runs from its first forecaster call up to the next forecaster
    call that follows a refiner or synthesis call."""
    counts = []
    previous = None
    for tag, malformed in sent:
        if tag == "forecaster" and previous in (None, "refiner", "synthesis"):
            counts.append(0)
        counts[-1] += malformed
        previous = tag
    return counts


@settings(max_examples=120, deadline=None)
@given(
    positions=st.frozensets(st.integers(0, 15), max_size=6),
    parse_retries=st.integers(0, 2),
    sample_size=st.integers(1, 2),
    max_iterations=st.integers(1, 3),
    refinement=st.booleans(),
)
def test_logged_parse_failures_equal_the_malformed_replies_sent(
    positions, parse_retries, sample_size, max_iterations, refinement
):
    cfg = small_cfg(
        parse_retries=parse_retries,
        sample_size=sample_size,
        max_iterations=max_iterations,
        refinement_enabled=refinement,
    )
    backend = MalformedAt(SyntheticOracleBackend(seed=3), positions)
    with tempfile.TemporaryDirectory() as tmp:
        log_path = Path(tmp) / "session.jsonl"
        try:
            run_session(cfg, np.arange(30.0), backend, log_path=log_path)
        except Exception as exc:
            # the one way bad replies end a session: a sample batch or an
            # agent reply that stays malformed past its retry budget
            assert isinstance(exc, ParseRetryError), exc
            return
        lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    logged = [line["parse_failures"] for line in lines if line["kind"] == "iteration"]
    assert logged == malformed_per_iteration(backend.sent)


# --- refine_step ------------------------------------------------------------


def test_refine_step_synthesizes_next_instructions():
    backend = tagged(
        refiner=refiner_reply("lean on the trend", done=False),
        synthesis=instructions_reply(["Lean on the recent trend."]),
    )
    outcome = refine_step([record_for(None, 1.0)], small_cfg(), backend)
    assert outcome.done is False
    assert outcome.next_instructions.items == ("Lean on the recent trend.",)
    assert outcome.next_instructions.source_iteration == 1
    assert outcome.reply.learnings == "lean on the trend"


def test_refine_step_done_skips_synthesis():
    backend = tagged(refiner=refiner_reply("converged", done=True))
    history = [record_for(None, 1.0), record_for(None, 0.99)]
    outcome = refine_step(history, small_cfg(), backend)
    assert outcome.done is True
    assert outcome.next_instructions is None
    # the script had no synthesis entry, so reaching here proves it wasn't asked


def test_refine_step_overrides_done_on_first_iteration():
    backend = tagged(
        refiner=refiner_reply("already stable", done=True),
        synthesis=instructions_reply(["Hold the line."]),
    )
    outcome = refine_step([record_for(None, 1.0)], small_cfg(), backend)
    assert outcome.reply.done is True  # what the refiner said
    assert outcome.done is False  # what the loop does with it
    assert outcome.next_instructions.items == ("Hold the line.",)


def test_refine_step_override_with_no_learnings_keeps_current():
    block = InstructionBlock(items=("existing rule",))
    backend = tagged(refiner="Done: True")
    outcome = refine_step([record_for(block, 1.0)], small_cfg(), backend)
    assert outcome.done is False
    assert outcome.next_instructions is block


def test_refine_step_prompt_carries_full_history():
    history = [
        record_for(None, 0.9),
        record_for(InstructionBlock(items=("rule a",)), 0.5),
        record_for(InstructionBlock(items=("rule b", "rule c")), 0.7),
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


def test_refine_step_states_the_forecaster_prompt_once():
    meta = DatasetMeta(name="power", description="hourly readings", target="OT")
    cfg = small_cfg(sample_size=2, strategy="deep-stl")
    block = InstructionBlock(items=("rule a",))
    analogs = ((0.9, (1.0, 1.25)), (0.75, (2.0, 2.5)))
    samples = [
        SampleRecord(10, (1.0, 2.0), (1.5, 2.5), 0.5, history="1.0000, 2.0000", analogs=analogs),
        # retrieval found no segment for this window
        SampleRecord(16, (3.0, 4.0), (3.5, 4.5), 0.5, history="3.0000, 4.0000"),
    ]
    record = RefinementRecord(instructions=block, batch_mae=0.5, per_sample=samples)
    replies = dict(refiner=refiner_reply("more", done=False), synthesis=instructions_reply(["x"]))
    spy = SpyBackend(tagged(**replies))
    refine_step([record_for(None, 0.9), record], cfg, spy, meta)
    prompt = spy.requests[0].prompt
    shared = render_forecaster_prompt(
        meta,
        cfg.horizon,
        SAMPLE_HISTORY_MARKER,
        instructions=block,
        raft_context=SAMPLE_ANALOGS_MARKER,
        strategy="deep-stl",
    )
    assert f"Forecaster Prompt:\n{shared.strip()}\n\nSample 1:\n" in prompt
    assert re.findall(r"^Objective$", prompt, re.M) == ["Objective"]
    assert (
        "Sample 1:\nRetrieved Segments:\n"
        "Segment 1 (similarity 0.9000):\noutcome: 1.0000, 1.2500\n"
        "Segment 2 (similarity 0.7500):\noutcome: 2.0000, 2.5000\n"
        "Historical Data: 1.0000, 2.0000\n"
        "Predictions: [1.0000, 2.0000]\nGround Truth: [1.5000, 2.5000]\n\n"
        "Sample 2:\nHistorical Data: 3.0000, 4.0000\n" in prompt
    )
    # with no sample's segments to stand for, the shared prompt has no section
    spy = SpyBackend(tagged(**replies))
    refine_step([record_for(None, 0.9)], cfg, spy, meta)
    assert "Retrieved Historical Segments" not in spy.requests[0].prompt
    assert "Retrieved Segments:" not in spy.requests[0].prompt


@pytest.mark.parametrize(
    "context_length, horizon", [(96, 48), (336, 24), (512, 24), (336, 96)]
)
def test_every_sample_history_reaches_the_refiner(context_length, horizon):
    # two retrieved segments (the default), each quoted whole beside the
    # history however long the window
    cfg = SessionConfig(context_length=context_length, horizon=horizon, max_iterations=2)
    values = seasonal_series(4000, period=24, trend=0.01, amplitude=0.4, noise=0.05, seed=5)
    meta = DatasetMeta(name="power", description="hourly readings", target="OT")
    spy = SpyBackend(SyntheticOracleBackend(seed=2))
    run_session(cfg, values, spy, meta=meta)
    histories, outcomes, refiner_prompts = [], [], 0
    for request in spy.requests:
        if request.tag == "forecaster":
            histories.append(re.search(r"^- Historical Data: (.*)$", request.prompt, re.M)[1])
            outcomes.append(re.findall(r"^outcome: .*$", request.prompt, re.M))
        elif request.tag == "refiner":
            refiner_prompts += 1
            assert "- Dataset: power, hourly readings\n" in request.prompt
            assert len(histories) == cfg.sample_size
            for history in histories:
                assert f"\nHistorical Data: {history}\n" in request.prompt
            assert [len(lines) for lines in outcomes] == [cfg.analog_count] * cfg.sample_size
            for line in sum(outcomes, []):
                assert f"\n{line}\n" in request.prompt
            assert "\ncontext: " not in request.prompt
            histories, outcomes = [], []
    assert refiner_prompts == 2


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
    meter = CallMeter(backend)
    outcome = refine_step([record_for(None, 1.0)], small_cfg(parse_retries=1), meter)
    assert outcome.next_instructions.items == ("use the recent values",)
    assert meter.reasks == 1


# --- run_session traces -----------------------------------------------------


LEAKY_LEARNINGS = refiner_reply("Separate the {trend} from the noise.", done=False)


def test_session_re_asks_a_refiner_reply_with_a_placeholder_token(tmp_path):
    backend = ordinal(
        forecast_reply([10.2, 11.2]),
        LEAKY_LEARNINGS,
        refiner_reply("Separate the trend from the noise.", done=False),
        instructions_reply(["Separate the trend from the noise."]),
    )
    log_path = tmp_path / "session.jsonl"
    cfg = small_cfg(max_iterations=1, parse_retries=1)
    result = run_session(cfg, VALUES, backend, log_path=log_path)
    assert backend.remaining == 0
    assert result.history[0].refiner_reply.learnings == "Separate the trend from the noise."
    assert result.history[0].parse_failures == 1
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert [line["parse_failures"] for line in lines if line["kind"] == "iteration"] == [1]


def test_session_fails_on_a_refiner_placeholder_token_that_stays():
    backend = ordinal(forecast_reply([10.2, 11.2]), LEAKY_LEARNINGS, LEAKY_LEARNINGS)
    cfg = small_cfg(max_iterations=1, parse_retries=1)
    with pytest.raises(ParseRetryError, match=r"refiner reply still malformed after 2 attempts.*\{trend\}"):
        run_session(cfg, VALUES, backend)


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


# finite values with ties, +inf (an overflowed batch) and NaN (a NaN truth)
BATCH_MAES = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0]),
    st.floats(0.0, 10.0),
    st.just(math.inf),
    st.just(math.nan),
)


@settings(max_examples=300, deadline=None)
@given(maes=st.lists(BATCH_MAES, min_size=1, max_size=6), early_stop=st.booleans())
@example(maes=[math.inf, math.inf], early_stop=False)
@example(maes=[math.nan, 0.5, math.nan, 0.5], early_stop=False)
@example(maes=[0.5, 0.25, 0.25], early_stop=True)
def test_session_result_selection_is_the_strict_improvement_fold(maes, early_stop):
    blocks = [None] + [InstructionBlock(items=(f"rule {k}",)) for k in range(1, len(maes))]
    result = SessionResult(
        history=[record_for(block, m) for block, m in zip(blocks, maes)],
        early_stop=early_stop,
    )
    # the selection rule as a running fold: start at +inf, take strictly lower
    best_mae, best_instructions, best_iteration = math.inf, None, 0
    for k, (block, m) in enumerate(zip(blocks, maes)):
        if m < best_mae:
            best_mae, best_instructions, best_iteration = m, block, k
    assert result.best_iteration == best_iteration
    assert result.best_mae == best_mae
    assert result.final_instructions is (blocks[-1] if early_stop else best_instructions)

    pairs = [(block.flattened() if block else "", m) for block, m in zip(blocks, maes)]
    shared = render_forecaster_prompt(DEFAULT_META, 1, SAMPLE_HISTORY_MARKER)
    samples = [("1.0000", (), [1.0], [1.5])]
    prompt = render_refiner_prompt(pairs, shared, samples, 5.0)
    # a non-finite MAE reads inf or nan, so the refiner still sees the pair
    shown = [format_numbers([m]) if math.isfinite(m) else str(m) for m in maes]
    assert f"for this Iteration {len(maes)}:" in prompt
    assert f"for this batch of samples: {shown[-1]}" in prompt
    assert prompt.count("- Iteration ") == len(maes)
    for k, text in enumerate(shown, start=1):
        assert f"- Iteration {k} | MAE {text} |" in prompt


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
        run_session(cfg, VALUES, TokenStampingBackend(backend))
    partial = excinfo.value.partial_history
    assert len(partial) == 2
    assert partial[0].batch_mae == pytest.approx(0.2)
    assert partial[1].batch_mae == pytest.approx(0.3)
    # iteration 0 made three calls; iteration 1 keeps its evaluation's one
    assert [(r.tokens_in, r.tokens_out) for r in partial] == [(30, 9), (10, 3)]


def test_session_retrieval_database_stops_before_validation_contexts():
    cfg = small_cfg(retrieval_enabled=True, sample_size=2, refinement_enabled=False)
    values = np.arange(30.0)  # value == index, so leakage would be visible
    spy = SpyBackend(ordinal(forecast_reply([22.0, 23.0]), forecast_reply([28.0, 29.0])))
    run_session(cfg, values, spy)
    prompt = spy.requests[0].prompt
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
    # the strategy is logged beside the config, not in it
    assert list(header["config"]) == [
        f.name for f in dataclasses.fields(SessionConfig) if f.name != "strategy"
    ]
    assert header["strategy"] is None
    assert header["config"]["max_iterations"] == 2
    assert header["config"]["retrieval_enabled"] is False
    assert header["config"]["analog_count"] == 0  # the effective count
    assert header["base_template"] == "forecaster-base"
    assert header["validation_origins"] == [10]
    assert lines[1]["iteration"] == 0
    assert lines[1]["refiner"] == {
        "learnings": "l0",
        "done": False,
        "confidence": "Medium",
        "rationale": "fixture rationale",
    }
    assert lines[2]["refiner"]["done"] is True
    tail = lines[-1]
    assert tail["early_stop"] is True
    assert tail["iterations_used"] == 2
    assert tail["final_instructions"] == ["block A"]
    assert result.early_stop is True


def test_session_log_flags_instructions_over_the_item_limit(tmp_path):
    log_path = tmp_path / "session.jsonl"
    backend = ordinal(
        forecast_reply([10.1, 11.1]),
        refiner_reply("l0", done=False),
        instructions_reply(["a", "b", "c", "d"]),
        forecast_reply([10.2, 11.2]),
        refiner_reply("plateaued", done=True),
    )
    run_session(small_cfg(max_iterations=2), VALUES, backend, log_path=log_path)
    lines = [json.loads(line) for line in log_path.read_text().splitlines()]
    iterations = [line for line in lines if line["kind"] == "iteration"]
    assert [line["instructions_over_limit"] for line in iterations] == [None, True]
    assert iterations[1]["instructions"] == ["a", "b", "c", "d"]


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


def test_session_completes_with_huge_finite_forecasts():
    cfg = small_cfg(max_iterations=2)
    huge = "Predicted Values: [1e300, 1e300]"  # finite, so the parser accepts it
    backend = ordinal(
        huge,
        refiner_reply("push on", done=False),
        instructions_reply(["block A"]),
        huge,
        refiner_reply("plateaued", done=True),
    )
    result = run_session(cfg, VALUES, backend)
    assert result.early_stop is True and result.iterations_used == 2
    assert result.best_mae == pytest.approx(1e300)
    assert backend.remaining == 0


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


def test_the_oracle_refiner_reads_only_the_iteration():
    """What a refiner prompt quotes of its samples cannot move an oracle
    session: the oracle's refiner reply depends on the displayed iteration
    alone."""
    shared = render_forecaster_prompt(
        DEFAULT_META, 2, SAMPLE_HISTORY_MARKER, raft_context=SAMPLE_ANALOGS_MARKER
    )
    sample_sets = (
        [("1.0000, 2.0000", (), [1.0, 2.0], [1.5, 2.5])],
        [
            ("5.0000, 6.0000", ((0.9, (7.0, 8.0)), (0.5, (1.0, 0.0))), [5.0, 5.5], [6.5, 7.5]),
            ("3.0000, 2.0000", (), [3.0, 3.5], [4.0, 4.5]),
        ],
    )
    oracle = SyntheticOracleBackend(seed=3)
    replies = []
    for pairs in ([("", 0.9)], [("", 0.9), ("rule a", 0.5)]):
        texts = {
            oracle.complete(
                CompletionRequest(
                    prompt=render_refiner_prompt(pairs, shared, samples, 5.0),
                    tag="refiner",
                    seed=7,
                )
            ).text
            for samples in sample_sets
        }
        assert len(texts) == 1
        replies.append(texts.pop())
    assert replies[0] != replies[1]  # the iteration itself does change the reply


def test_session_result_token_totals_sum_history():
    cfg = small_cfg(max_iterations=2)
    spy = SpyBackend(SyntheticOracleBackend(seed=1))
    result = run_session(cfg, VALUES, TokenStampingBackend(spy))
    # two evaluations, two refiner consultations, two syntheses
    assert len(spy.requests) == 6
    assert sum(rec.tokens_in for rec in result.history) == 10 * len(spy.requests)
    assert sum(rec.tokens_out for rec in result.history) == 3 * len(spy.requests)


# --- single-window forecasting ----------------------------------------------


def test_forecast_reply_for_returns_full_reply():
    cfg = small_cfg()
    window = make_validation_windows(VALUES, cfg)[0]
    reply = forecast_reply_for(window, cfg, None, SyntheticOracleBackend(seed=1, noise_scale=0.0))
    assert len(reply.values) == 2
    assert reply.values == pytest.approx((10.0, 11.0), abs=1e-6)
    assert reply.reasoning
    assert reply.certainty == 80.0


def test_validation_and_test_forecasts_send_the_same_prompt():
    cfg = SessionConfig(
        context_length=16, horizon=4, sample_size=1, analog_count=2, strategy="deep-stl"
    )
    values = seasonal_series(120, period=12, trend=0.01, amplitude=0.4, noise=0.05, seed=3)
    window = window_at(values, 100, cfg.context_length, cfg.horizon)
    db = build_hist_db(values[:80], cfg.context_length, cfg.horizon)
    instructions = InstructionBlock(items=("Track the daily cycle.",), source_iteration=1)
    validation = SpyBackend(SyntheticOracleBackend(seed=4))
    outcome = evaluate_prompt(instructions, [window], cfg, db, validation)
    test_time = SpyBackend(SyntheticOracleBackend(seed=4))
    forecast_reply_for(window, cfg, db, test_time, instructions=instructions)
    prompt = validation.requests[0].prompt
    assert outcome.per_sample[0].history in prompt
    for score, values in outcome.per_sample[0].analogs:
        assert f" (similarity {format_numbers([score])}):\n" in prompt
        assert f"\noutcome: {format_numbers(values)}\n" in prompt
    assert "Segment 2 (similarity " in prompt and "Track the daily cycle." in prompt
    assert [r.prompt for r in validation.requests] == [prompt]
    assert [r.prompt for r in test_time.requests] == [prompt]


def test_the_config_strategy_reaches_every_forecaster_prompt(tmp_path):
    cfg = small_cfg(max_iterations=2, strategy="deep-stl")
    spy = SpyBackend(SyntheticOracleBackend(seed=1))
    log_path = tmp_path / "session.jsonl"
    result = run_session(cfg, VALUES, spy, log_path=log_path)
    window = make_validation_windows(VALUES, cfg)[0]
    forecast_with(result, window, cfg, None, spy)
    forecaster = [r.prompt for r in spy.requests if r.tag == "forecaster"]
    assert len(forecaster) == 3  # two validation passes and the test forecast
    assert all("Forecasting Strategy\nPerform an STL-style" in p for p in forecaster)
    header = json.loads(log_path.read_text().splitlines()[0])
    assert header["strategy"] == "deep-stl" and "strategy" not in header["config"]


def test_forecast_with_uses_the_session_instructions():
    cfg = SessionConfig(context_length=16, horizon=4, sample_size=1, strategy="deep-stl")
    values = seasonal_series(120, period=12, trend=0.01, amplitude=0.4, noise=0.05, seed=3)
    block = InstructionBlock(items=("Track the daily cycle.",), source_iteration=1)
    result = SessionResult(history=[record_for(None, 0.0), record_for(block, 0.5)], early_stop=True)
    window = window_at(values, 110, cfg.context_length, cfg.horizon)
    db = build_hist_db(values[:80], cfg.context_length, cfg.horizon)
    via_result = SpyBackend(SyntheticOracleBackend(seed=4))
    values_out = forecast_with(result, window, cfg, db, via_result)
    direct = SpyBackend(SyntheticOracleBackend(seed=4))
    reply = forecast_reply_for(window, cfg, db, direct, instructions=result.final_instructions)
    assert values_out == tuple(reply.values)
    assert len(values_out) == cfg.horizon
    assert [r.prompt for r in via_result.requests] == [r.prompt for r in direct.requests]
    assert "Track the daily cycle." in via_result.requests[0].prompt
