"""Prompt engine: template library, renderers, number formatting, parsers."""

from __future__ import annotations

import json
import random

import pytest

from flairr.errors import ReplyParseError, TemplateError
from flairr.prompts import (
    SYNTHESIS_CUE,
    DatasetMeta,
    ForecastReply,
    InstructionBlock,
    PromptTemplate,
    RefinerReply,
    TemplateLibrary,
    format_numbers,
    parse_forecast_reply,
    parse_instructions_reply,
    parse_refiner_reply,
    render_forecaster_prompt,
    render_refiner_prompt,
    render_synthesis_prompt,
)

META = DatasetMeta(name="power", description="hourly transformer readings", target="OT")


# --- template library -------------------------------------------------------


def test_builtin_library_contents():
    lib = TemplateLibrary.builtin()
    for tid in ("forecaster-base", "refiner", "synthesis"):
        assert tid in lib
    asps = lib.list_asps()
    assert asps == sorted(asps)
    assert len(asps) == 14
    for expected in ("simple", "deep-stl", "monte-hall", "many-worlds-ensemble"):
        assert expected in asps
    assert lib.get_asp("simple").body.strip() == ""


def test_library_lookup_errors():
    lib = TemplateLibrary.builtin()
    with pytest.raises(TemplateError, match="unknown template 'nope'"):
        lib.get("nope")
    with pytest.raises(TemplateError, match="unknown strategy 'refiner'"):
        lib.get_asp("refiner")  # exists, but is not a strategy
    with pytest.raises(TemplateError, match="available"):
        lib.get_asp("missing-strategy")


def test_library_from_dir(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps(
            {
                "version": 2,
                "templates": [
                    {"id": "only", "kind": "synthesis", "file": "only.txt"}
                ],
            }
        )
    )
    (tmp_path / "only.txt").write_text(
        "Learnings: {current_learnings}\n" + SYNTHESIS_CUE
    )
    lib = TemplateLibrary.from_dir(tmp_path)
    assert lib.version == 2
    assert "only" in lib and list(lib) == ["only"]


def test_library_from_dir_errors(tmp_path):
    with pytest.raises(TemplateError, match="cannot read template manifest"):
        TemplateLibrary.from_dir(tmp_path / "missing")
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(TemplateError, match="malformed template manifest"):
        TemplateLibrary.from_dir(tmp_path)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"templates": [{"id": "x", "kind": "synthesis"}]})
    )
    with pytest.raises(TemplateError, match="missing key"):
        TemplateLibrary.from_dir(tmp_path)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"templates": [{"id": "x", "kind": "synthesis", "file": "gone.txt"}]})
    )
    with pytest.raises(TemplateError, match="cannot read template file"):
        TemplateLibrary.from_dir(tmp_path)


def test_template_rejects_undocumented_placeholder():
    with pytest.raises(TemplateError, match=r"\{mystery\}"):
        PromptTemplate(id="bad", kind="synthesis", body="{mystery}")
    with pytest.raises(TemplateError, match="unknown kind"):
        PromptTemplate(id="bad", kind="other", body="x")


# --- number formatting ------------------------------------------------------


def test_format_numbers_half_up_ties_away_from_zero():
    assert format_numbers([1.23456]) == "1.2346"
    assert format_numbers([0.00005]) == "0.0001"
    assert format_numbers([-0.00005]) == "-0.0001"
    assert format_numbers([2.5], precision=0) == "3"
    assert format_numbers([-2.5], precision=0) == "-3"


def test_format_numbers_negative_zero_normalized():
    assert format_numbers([-0.00004]) == "0.0000"
    assert format_numbers([-0.0]) == "0.0000"


def test_format_numbers_join_and_fixed_width():
    assert format_numbers([1.0, 2.5, -3.25]) == "1.0000, 2.5000, -3.2500"
    assert format_numbers([0.1 + 0.2]) == "0.3000"
    assert format_numbers([], precision=4) == ""
    assert format_numbers([1.5], precision=2) == "1.50"


def test_format_numbers_precision_bounds():
    with pytest.raises(ValueError):
        format_numbers([1.0], precision=-1)
    with pytest.raises(ValueError):
        format_numbers([1.0], precision=11)


def test_format_numbers_round_trip_error_bound():
    rng = random.Random(99)
    for _ in range(300):
        v = rng.uniform(-1000.0, 1000.0)
        back = float(format_numbers([v], precision=4))
        assert abs(back - v) <= 5e-5


# --- forecaster renderer ----------------------------------------------------


def test_forecaster_prompt_minimal_shape():
    prompt = render_forecaster_prompt(META, horizon=24, history_text="1.0000, 2.0000")
    assert prompt.startswith("Objective\n")
    assert "- Dataset: power, hourly transformer readings" in prompt
    assert "- Variable to Predict: OT." in prompt
    assert "next 24 steps" in prompt
    assert "- Historical Data: 1.0000, 2.0000" in prompt
    assert "Predicted Values: [predicted_value_1, ...]" in prompt
    assert "Certainty Reasoning:" in prompt
    # conditional sections absent
    assert "Forecasting Strategy" not in prompt
    assert "Forecasting Instructions:" not in prompt
    assert "Retrieved Historical Segments" not in prompt
    assert "{" not in prompt and "}" not in prompt
    # deterministic
    assert prompt == render_forecaster_prompt(META, 24, "1.0000, 2.0000")


def test_forecaster_prompt_with_instructions():
    block = InstructionBlock(items=("Watch the daily cycle.", "Damp the noise."))
    prompt = render_forecaster_prompt(META, 8, "1.0", instructions=block)
    assert "Forecasting Instructions:\n- Watch the daily cycle.\n- Damp the noise." in prompt


def test_forecaster_prompt_with_analogs():
    raft = "Segment 1 (similarity 0.9000):\ncontext: 1.0\noutcome: 2.0"
    prompt = render_forecaster_prompt(META, 8, "1.0", raft_context=raft)
    assert "Retrieved Historical Segments" in prompt
    assert "closest analogs" in prompt
    assert "comma-separated text strings" in prompt
    assert raft in prompt


def test_forecaster_prompt_with_strategy():
    prompt = render_forecaster_prompt(META, 12, "1.0", strategy="deep-stl")
    assert "Forecasting Strategy\n" in prompt
    assert "{sequence_length}" not in prompt
    # the strategy body refers to the horizon by value
    assert "12" in prompt


def test_forecaster_prompt_simple_strategy_adds_nothing():
    plain = render_forecaster_prompt(META, 8, "1.0")
    simple = render_forecaster_prompt(META, 8, "1.0", strategy="simple")
    assert simple == plain


def test_forecaster_prompt_section_order():
    block = InstructionBlock(items=("a",))
    prompt = render_forecaster_prompt(
        META, 8, "1.0", instructions=block, raft_context="ctx block", strategy="deep-stl"
    )
    i_strategy = prompt.index("Forecasting Strategy")
    i_instr = prompt.index("Forecasting Instructions:")
    i_analog = prompt.index("Retrieved Historical Segments")
    i_input = prompt.index("Input Data")
    assert i_strategy < i_instr < i_analog < i_input


def test_forecaster_prompt_input_validation():
    with pytest.raises(ValueError, match="history_text"):
        render_forecaster_prompt(META, 8, "   ")
    with pytest.raises(ValueError, match="horizon"):
        render_forecaster_prompt(META, 0, "1.0")
    with pytest.raises(TemplateError, match="unknown strategy"):
        render_forecaster_prompt(META, 8, "1.0", strategy="not-a-strategy")


def test_forecaster_prompt_rejects_leftover_placeholder():
    block = InstructionBlock(items=("use {previous_data} here",))
    with pytest.raises(TemplateError, match="unresolved placeholder"):
        render_forecaster_prompt(META, 8, "1.0", instructions=block)


# --- refiner renderer -------------------------------------------------------

SAMPLES = [("the forecaster prompt", [1.0, 2.0], [1.5, 2.5])]


def test_refiner_prompt_core_fields():
    prompt = render_refiner_prompt(
        iteration=0,
        current_instructions="",
        batch_mae=0.25,
        samples=SAMPLES,
        stop_threshold=5.0,
    )
    assert "for this Iteration 1:" in prompt
    assert "Current Forecasting Instructions Under Review: (none - the base forecasting prompt)" in prompt
    assert "for this batch of samples: 0.2500" in prompt
    assert "stopping threshold (5%)" in prompt
    assert (
        "- Iteration 1 | MAE 0.2500 | Instructions: (none - the base forecasting prompt)"
        in prompt
    )
    assert (
        "Sample 1:\nPrompt:\nthe forecaster prompt\n"
        "Predictions: [1.0000, 2.0000]\nGround Truth: [1.5000, 2.5000]" in prompt
    )
    assert "Done: <True or False>" in prompt
    assert "{" not in prompt


def test_refiner_prompt_iteration_is_displayed_one_based():
    prompt = render_refiner_prompt(3, "keep it smooth", 0.5, SAMPLES, 5.0)
    assert "for this Iteration 4:" in prompt
    assert "Under Review: keep it smooth" in prompt


def test_refiner_prompt_full_history_section():
    history = [("", 0.9), ("lean on the trend", 0.5), ("damp the\nnoise", 0.7)]
    prompt = render_refiner_prompt(
        2, "damp the\nnoise", 0.7, SAMPLES, 5.0, history=history
    )
    assert "- Iteration 1 | MAE 0.9000 | Instructions: (none - the base forecasting prompt)" in prompt
    assert "- Iteration 2 | MAE 0.5000 | Instructions: lean on the trend" in prompt
    assert "- Iteration 3 | MAE 0.7000 | Instructions: damp the noise" in prompt
    assert prompt.count("- Iteration ") == 3


def test_refiner_prompt_threshold_rendering():
    prompt = render_refiner_prompt(0, "", 1.0, SAMPLES, 2.5)
    assert "stopping threshold (2.5%)" in prompt


def test_refiner_prompt_truncates_long_sample_prompts():
    long_prompt = "x" * 5000
    prompt = render_refiner_prompt(
        0, "", 1.0, [(long_prompt, [1.0], [1.0])], 5.0, sample_prompt_budget=4000
    )
    assert "... [truncated]" in prompt
    assert "x" * 4001 not in prompt


def test_refiner_prompt_validation():
    with pytest.raises(ValueError, match="sample batch"):
        render_refiner_prompt(0, "", 1.0, [], 5.0)
    with pytest.raises(ValueError, match="iteration"):
        render_refiner_prompt(-1, "", 1.0, SAMPLES, 5.0)


# --- synthesis renderer -----------------------------------------------------


def test_synthesis_prompt_embeds_learnings_and_ends_with_cue():
    prompt = render_synthesis_prompt("The forecaster over-shoots peaks.")
    assert "The forecaster over-shoots peaks." in prompt
    assert prompt.rstrip("\n").endswith(SYNTHESIS_CUE)
    assert "maximum 3 actionable items" in prompt
    assert "curly braces" in prompt


def test_synthesis_prompt_rejects_empty_learnings():
    with pytest.raises(ValueError):
        render_synthesis_prompt("  \n ")


# --- forecast reply parser --------------------------------------------------


def test_parse_forecast_reply_full():
    text = (
        "Predicted Values: [1.5, -2.0, 3.25]\n"
        "Reasoning: flat trend\nwith mild noise\n"
        "Certainty Estimate: 85%\n"
        "Certainty Reasoning: stable history\n"
    )
    reply = parse_forecast_reply(text, horizon=3)
    assert reply.values == (1.5, -2.0, 3.25)
    assert reply.reasoning == "flat trend with mild noise"
    assert reply.certainty == 85.0
    assert reply.certainty_reasoning == "stable history"


def test_parse_forecast_reply_values_only():
    reply = parse_forecast_reply("Predicted Values: [1.0, 2.0]", horizon=2)
    assert reply.values == (1.0, 2.0)
    assert reply.reasoning == ""
    assert reply.certainty is None
    assert reply.certainty_reasoning is None


def test_parse_forecast_reply_bracket_across_lines():
    reply = parse_forecast_reply("Predicted Values:\n[1.0,\n 2.0]", horizon=2)
    assert reply.values == (1.0, 2.0)


def test_parse_forecast_reply_certainty_variants():
    base = "Predicted Values: [1.0]\nCertainty Estimate: "
    assert parse_forecast_reply(base + "70", 1).certainty == 70.0
    assert parse_forecast_reply(base + "roughly 42.5 percent", 1).certainty == 42.5
    assert parse_forecast_reply(base + "high", 1).certainty is None
    assert parse_forecast_reply(base + "150", 1).certainty is None
    assert parse_forecast_reply(base + "-5", 1).certainty is None


def test_parse_forecast_reply_certainty_reasoning_not_swallowed():
    text = "Predicted Values: [1.0]\nCertainty Reasoning: because stable\n"
    reply = parse_forecast_reply(text, 1)
    assert reply.reasoning == ""
    assert reply.certainty_reasoning == "because stable"


def test_parse_forecast_reply_errors():
    with pytest.raises(ReplyParseError, match="missing 'Predicted Values:'"):
        parse_forecast_reply("no marker here", 2)
    with pytest.raises(ReplyParseError, match="expected 2 predicted values, got 3"):
        parse_forecast_reply("Predicted Values: [1, 2, 3]", 2)
    with pytest.raises(ReplyParseError, match="unbalanced bracket"):
        parse_forecast_reply("Predicted Values: [1.0, 2.0", 2)
    with pytest.raises(ReplyParseError, match="non-numeric"):
        parse_forecast_reply("Predicted Values: [1.0, abc]", 2)
    with pytest.raises(ReplyParseError, match="expected '\\['"):
        parse_forecast_reply("Predicted Values: none\n[1.0, 2.0]", 2)
    # prose between marker and '[' on the same line is tolerated
    assert parse_forecast_reply("Predicted Values: approx [1.0]", 1).values == (1.0,)


def test_parse_forecast_reply_rejects_non_finite_values():
    for tok in ("nan", "inf", "-Infinity", "1e400"):
        with pytest.raises(ReplyParseError, match="non-finite") as info:
            parse_forecast_reply(f"Predicted Values: [1.0, {tok}]", 2)
        assert info.value.offending == tok


def test_parse_forecast_reply_error_carries_offending_text():
    try:
        parse_forecast_reply("Predicted Values: [1.0, oops]", 2)
    except ReplyParseError as exc:
        assert exc.offending == "oops"
    else:
        pytest.fail("expected ReplyParseError")


# --- refiner reply parser ---------------------------------------------------


def test_parse_refiner_reply_full():
    text = (
        "Learnings: The forecaster lags the peaks.\n"
        "Shift attention to the last cycle.\n\n"
        "Done: False\n\n"
        "Confidence in output: High - clear error pattern.\n"
    )
    reply = parse_refiner_reply(text)
    assert reply.learnings == "The forecaster lags the peaks.\nShift attention to the last cycle."
    assert reply.done is False
    assert reply.confidence == "High"
    assert reply.rationale == "clear error pattern."


def test_parse_refiner_reply_done_casing_and_trailing_period():
    assert parse_refiner_reply("Learnings: x\ndone: TRUE.").done is True
    assert parse_refiner_reply("Learnings: x\nDONE:   false").done is False


def test_parse_refiner_reply_done_true_allows_empty_learnings():
    reply = parse_refiner_reply("Done: True")
    assert reply.done is True and reply.learnings == ""


def test_parse_refiner_reply_learnings_without_header():
    reply = parse_refiner_reply("the errors cluster at night\nDone: False")
    assert reply.learnings == "the errors cluster at night"


def test_parse_refiner_reply_confidence_variants():
    assert parse_refiner_reply("Learnings: x\nDone: False\nConfidence in output: LOW").confidence == "Low"
    assert parse_refiner_reply("Learnings: x\nDone: False").confidence is None
    reply = parse_refiner_reply("Learnings: x\nDone: False\nConfidence in output: Medium - thin evidence")
    assert reply.confidence == "Medium" and reply.rationale == "thin evidence"


def test_parse_refiner_reply_errors():
    with pytest.raises(ReplyParseError, match="missing 'Done:'"):
        parse_refiner_reply("Learnings: something")
    with pytest.raises(ReplyParseError, match="True or False"):
        parse_refiner_reply("Learnings: x\nDone: maybe")
    with pytest.raises(ReplyParseError, match="non-empty when Done is False"):
        parse_refiner_reply("Done: False")


# --- instructions reply parser ----------------------------------------------


def test_parse_instructions_bullets():
    block = parse_instructions_reply("- first rule\n- second rule\n- third rule")
    assert block.items == ("first rule", "second rule", "third rule")
    assert block.over_limit is False
    assert block.render() == "- first rule\n- second rule\n- third rule"
    assert block.flattened() == "first rule; second rule; third rule"


def test_parse_instructions_numbered_and_star_bullets():
    block = parse_instructions_reply("1. alpha\n2) beta\n* gamma")
    assert block.items == ("alpha", "beta", "gamma")


def test_parse_instructions_wrapped_continuations():
    block = parse_instructions_reply("- first line\n  continues here\n- second")
    assert block.items == ("first line continues here", "second")


def test_parse_instructions_preamble_dropped_when_bulleted():
    block = parse_instructions_reply("Sure, here are the rules:\n- only rule")
    assert block.items == ("only rule",)


def test_parse_instructions_plain_lines_fallback():
    block = parse_instructions_reply("Watch the cycle.\nDamp the noise.")
    assert block.items == ("Watch the cycle.", "Damp the noise.")


def test_parse_instructions_strips_echoed_cue():
    text = f"Some preamble.\n{SYNTHESIS_CUE}\n- real item"
    assert parse_instructions_reply(text).items == ("real item",)


def test_parse_instructions_over_limit_flag():
    block = parse_instructions_reply("- a\n- b\n- c\n- d\n- e")
    assert block.items == ("a", "b", "c", "d", "e")
    assert block.over_limit is True


def test_parse_instructions_rejects_placeholder_tokens():
    with pytest.raises(ReplyParseError, match=r"\{previous_data\}"):
        parse_instructions_reply("- use {previous_data} for the forecast")


def test_parse_instructions_rejects_empty():
    with pytest.raises(ReplyParseError, match="empty instructions"):
        parse_instructions_reply("   \n ")
    with pytest.raises(ReplyParseError, match="empty instructions"):
        parse_instructions_reply(f"preamble\n{SYNTHESIS_CUE}\n   ")


def test_instruction_block_validation_and_equality():
    with pytest.raises(ValueError):
        InstructionBlock(items=())
    a = InstructionBlock(items=("x",), source_iteration=1, over_limit=False)
    b = InstructionBlock(items=("x",), source_iteration=1, over_limit=True)
    assert a == b  # the soft-limit flag does not affect identity


def test_reply_dataclasses_are_frozen():
    reply = ForecastReply(values=(1.0,))
    with pytest.raises(AttributeError):
        reply.values = (2.0,)
    refiner = RefinerReply(learnings="x", done=False)
    with pytest.raises(AttributeError):
        refiner.done = True
