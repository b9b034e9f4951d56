"""Prompt engine: built-in templates, renderers, number formatting, parsers."""

from __future__ import annotations

import decimal
import random
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flairr.errors import ReplyParseError, TemplateError
from flairr.prompts import (
    SAMPLE_ANALOGS_MARKER,
    SAMPLE_HISTORY_MARKER,
    SYNTHESIS_CUE,
    DatasetMeta,
    ForecastReply,
    InstructionBlock,
    RefinerReply,
    _PLACEHOLDER_RE,
    _substitute,
    _template,
    format_numbers,
    list_strategies,
    parse_forecast_reply,
    parse_instructions_reply,
    parse_refiner_reply,
    render_forecaster_prompt,
    render_refiner_prompt,
    render_synthesis_prompt,
    strategy_template,
)
from flairr.retrieval import AnalogSegment, format_analogs
from flairr.testing import instructions_reply, refiner_reply

META = DatasetMeta(name="power", description="hourly transformer readings", target="OT")


# --- built-in templates ------------------------------------------------------


def test_builtin_library_contents():
    names = list_strategies()
    assert list(names) == sorted(names)
    assert len(names) == 14
    for expected in ("simple", "deep-stl", "monte-hall", "many-worlds-ensemble"):
        assert expected in names
    assert strategy_template("simple").strip() == ""
    assert "{sequence_length}" in strategy_template("deep-stl")


def test_builtin_library_is_loaded_once():
    assert _template("refiner") is _template("refiner")
    assert strategy_template("monte-hall") is strategy_template("monte-hall")


def test_library_lookup_errors():
    available = re.escape(str(list(list_strategies())))
    # a template that is not a strategy, the file spelling, and no file at all
    for name in ("refiner", "forecaster-base", "deep_stl", "missing"):
        message = rf"^unknown strategy '{name}'; available: {available}$"
        with pytest.raises(TemplateError, match=message):
            strategy_template(name)


def test_every_builtin_template_renders_without_placeholders():
    block = InstructionBlock(items=("Track the last cycle.", "Damp spikes."))
    prompts = [
        render_forecaster_prompt(
            META, 12, "1.0, 2.0", instructions=block, raft_context="analog 1", strategy=name
        )
        for name in [None, *list_strategies()]
    ]
    prompts.append(render_refiner_prompt([("", 0.5)], SHARED, [("1.0", (), [1.0], [1.5])], 5.0))
    prompts.append(render_synthesis_prompt("the trend steepens"))
    assert len(prompts) == 17
    for prompt in prompts:
        assert _PLACEHOLDER_RE.search(prompt) is None, prompt


def test_substitute_names_the_template_and_the_missing_placeholder():
    assert _substitute("t", "{a} and {b}", {"a": "{b}", "b": "x"}) == "{b} and x"
    message = r"^template 'refiner': no value supplied for placeholder \{mystery\}$"
    with pytest.raises(TemplateError, match=message):
        _substitute("refiner", "{batch_mae} {mystery}", {"batch_mae": "0.5"})


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


def test_format_numbers_renders_huge_finite_values_exactly():
    assert format_numbers([1e76]) == "1" + "0" * 76 + ".0000"
    top = 1.7976931348623157e308
    digits = "17976931348623157" + "0" * 292
    assert format_numbers([top, -top], precision=10) == (
        f"{digits}.{'0' * 10}, -{digits}.{'0' * 10}"
    )
    assert float(format_numbers([top], precision=0)) == top


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_format_numbers_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match=repr(value)):
        format_numbers([1.0, value])


def test_format_numbers_round_trip_error_bound():
    rng = random.Random(99)
    for _ in range(300):
        v = rng.uniform(-1000.0, 1000.0)
        back = float(format_numbers([v], precision=4))
        assert abs(back - v) <= 5e-5


def _half_up_reference(values, precision):
    """The rendering contract spelled out: repr(x) rounded half-up through
    Decimal, negative zero shown as zero."""
    quantum = Decimal(1).scaleb(-precision)
    tokens = []
    with decimal.localcontext() as ctx:
        ctx.prec = 330
        for x in values:
            q = Decimal(repr(x)).quantize(quantum, rounding=decimal.ROUND_HALF_UP)
            tokens.append(f"{abs(q) if q == 0 else q:f}")
    return ", ".join(tokens)


# Values k/10^p + 1/(2*10^p) whose repr is an exact decimal tie at some
# precision, so the half-up and the correctly rounded binary answer can differ.
_ties = st.builds(
    lambda k, p: (2 * k + 1) / (2 * 10**p), st.integers(-(10**16), 10**16), st.integers(0, 11)
)
_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(
    values=st.lists(st.one_of(_finite, _ties), max_size=48),
    precision=st.integers(0, 10),
)
@example(values=[0.00005, -0.00005, 2.5, -2.5, 1e15 + 0.5, 0.0, -0.0], precision=4)
@example(values=[0.00005, 2.5, -2.5, 1e15 + 0.5, 0.5, -0.5], precision=0)
@example(values=[5e-324, -5e-324, 2.2250738585072014e-308, -1e-300], precision=10)
@example(values=[1.7976931348623157e308, -1.7976931348623157e308, 2.0**49, 2.0**53], precision=10)
@example(values=[0.125 + i for i in range(40)], precision=2)  # ties, vectorized
def test_format_numbers_equals_half_up_of_repr(values, precision):
    rendered = format_numbers(values, precision)
    assert rendered == _half_up_reference(values, precision)
    if values:
        reply = parse_forecast_reply(f"Predicted Values: [{rendered}]", len(values))
        assert list(reply.values) == [float(t) for t in rendered.split(", ")]


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

SHARED = render_forecaster_prompt(META, 2, SAMPLE_HISTORY_MARKER)
SAMPLES = [("1.0000, 2.0000", (), [1.0, 2.0], [1.5, 2.5])]


def test_refiner_prompt_core_fields():
    prompt = render_refiner_prompt(
        history=[("", 0.25)], forecaster_prompt=SHARED, samples=SAMPLES, stop_threshold=5.0
    )
    assert "for this Iteration 1:" in prompt
    assert "Current Forecasting Instructions Under Review: (none - the base forecasting prompt)" in prompt
    assert "for this batch of samples: 0.2500" in prompt
    assert "stopping threshold (5%)" in prompt
    assert (
        "- Iteration 1 | MAE 0.2500 | Instructions: (none - the base forecasting prompt)"
        in prompt
    )
    assert f"Forecaster Prompt:\n{SHARED}" in prompt
    assert (
        "Sample 1:\nHistorical Data: 1.0000, 2.0000\n"
        "Predictions: [1.0000, 2.0000]\nGround Truth: [1.5000, 2.5000]" in prompt
    )
    assert "Done: <True or False>" in prompt
    assert "{" not in prompt


def test_refiner_prompt_iteration_is_displayed_one_based():
    history = [("", 0.9), ("a", 0.8), ("b", 0.7), ("keep it smooth", 0.5)]
    prompt = render_refiner_prompt(history, SHARED, SAMPLES, 5.0)
    assert "for this Iteration 4:" in prompt
    assert "Under Review: keep it smooth" in prompt


def test_refiner_prompt_full_history_section():
    history = [("", 0.9), ("lean on the trend", 0.5), ("damp the\nnoise", 0.7)]
    prompt = render_refiner_prompt(history, SHARED, SAMPLES, 5.0)
    assert "- Iteration 1 | MAE 0.9000 | Instructions: (none - the base forecasting prompt)" in prompt
    assert "- Iteration 2 | MAE 0.5000 | Instructions: lean on the trend" in prompt
    assert "- Iteration 3 | MAE 0.7000 | Instructions: damp the noise" in prompt
    assert prompt.count("- Iteration ") == 3


def test_refiner_prompt_threshold_rendering():
    prompt = render_refiner_prompt([("", 1.0)], SHARED, SAMPLES, 2.5)
    assert "stopping threshold (2.5%)" in prompt


def _analogs(segments) -> tuple:
    """Retrieved segments as a refiner sample carries them."""
    return tuple((seg.score, tuple(seg.outcome.tolist())) for seg in segments)


def _quoted(forecaster_text: str) -> list[str]:
    """``format_analogs`` blocks without their context lines: each segment
    as the refiner quotes it."""
    return [
        "\n".join(line for line in block.split("\n") if not line.startswith("context: "))
        for block in forecaster_text.split("\n\n")
    ]


_BLOCK_RE = re.compile(r"^Sample (\d+):\n(.*?)(?=\n\n|\Z)", re.M | re.S)


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(
        st.tuples(
            st.integers(1, 700),  # history values, up to about 7,600 characters
            st.lists(st.integers(1, 400), max_size=4),  # segment outcome lengths
            st.integers(0, 2**32 - 1),  # seed of the values
        ),
        min_size=1,
        max_size=5,
    ),
    precision=st.integers(0, 6),
)
def test_refiner_prompt_states_the_prompt_once_and_keeps_every_history(samples, precision):
    """Each sample block keeps its history whole and quotes every one of
    its segments, in rank order, by the header and outcome line its
    forecaster prompt carried, never a context line and never a note."""
    rendered, forecaster_texts = [], []
    for n, lengths, seed in samples:
        rng = np.random.default_rng(seed)
        history = format_numbers(rng.normal(size=n) * 10.0, precision)
        segments = [
            AnalogSegment(
                start=k,
                context=rng.normal(size=4),
                outcome=rng.normal(size=m) * 10.0,
                score=float(rng.uniform(-1.0, 1.0)),
            )
            for k, m in enumerate(lengths)
        ]
        rendered.append((history, _analogs(segments), [1.0], [2.0]))
        forecaster_texts.append(format_analogs(segments, precision))
    marker = SAMPLE_ANALOGS_MARKER if any(analogs for _, analogs, _, _ in rendered) else None
    shared = render_forecaster_prompt(META, 1, SAMPLE_HISTORY_MARKER, raft_context=marker)
    prompt = render_refiner_prompt([("", 1.0)], shared, rendered, 5.0, precision)

    assert re.findall(r"^Objective$", prompt, re.M) == ["Objective"]
    assert "left out" not in prompt
    blocks = _BLOCK_RE.findall(prompt)
    assert [int(k) for k, _ in blocks] == list(range(1, len(rendered) + 1))
    for (_, block), (history, analogs, _, _), text in zip(blocks, rendered, forecaster_texts):
        lines = block.split("\n")
        assert not any(line.startswith("context:") for line in lines)
        head = lines[: lines.index(f"Historical Data: {history}")]
        if not analogs:
            assert head == []
            continue
        assert head[0] == "Retrieved Segments:"
        assert len(head) == 1 + 2 * len(analogs)
        for (_, outcome), line in zip(analogs, head[2::2]):
            assert line == f"outcome: {format_numbers(outcome, precision)}"
        # every segment the forecaster saw, in its order, without its context
        assert "\n".join(head[1:]) == "\n".join(_quoted(text))


def test_refiner_prompt_validation():
    with pytest.raises(ValueError, match="sample batch"):
        render_refiner_prompt([("", 1.0)], SHARED, [], 5.0)
    with pytest.raises(ValueError, match="history"):
        render_refiner_prompt([], SHARED, SAMPLES, 5.0)


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


def test_parse_refiner_reply_rejects_placeholder_tokens():
    # the learnings reach the synthesis prompt, which refuses to render one
    with pytest.raises(ReplyParseError, match=r"learnings contain placeholder token \{trend\}"):
        parse_refiner_reply("Learnings: Separate the {trend} from the noise.\nDone: False")
    with pytest.raises(ReplyParseError, match=r"\{a1\}"):
        parse_refiner_reply("Learnings: keep {a1}\nDone: True")
    # braces around anything but a placeholder name stay legal
    reply = parse_refiner_reply("Learnings: keep {0, 1} and {Trend} apart\nDone: False")
    assert reply.learnings == "keep {0, 1} and {Trend} apart"


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


# One line of reply text inside the documented grammars: no line break, no
# surrounding whitespace, no braces (placeholder tokens are refused). The
# first alphabet holds the characters the parsers act on.
_line = (
    st.text(
        st.one_of(
            st.sampled_from("-*•.:)!?% 0123456789"),
            st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="{}"),
            st.characters(whitelist_categories=("L", "N", "P", "Zs"), blacklist_characters="{}"),
        ),
        min_size=1,
        max_size=40,
    )
    .map(str.strip)
    .filter(bool)
)


@settings(max_examples=300, deadline=None)
@given(
    learnings=st.lists(
        _line.filter(lambda line: not line.lower().startswith("done:")), max_size=3
    ),
    done=st.booleans(),
    confidence=st.sampled_from(["High", "Medium", "Low"]),
    rationale=_line,
)
def test_refiner_reply_round_trips(learnings, done, confidence, rationale):
    assume(learnings or done)  # empty learnings need Done: True
    text = "\n".join(learnings)
    reply = parse_refiner_reply(refiner_reply(text, done, confidence, rationale))
    assert reply == RefinerReply(
        learnings=text, done=done, confidence=confidence, rationale=rationale
    )


@settings(max_examples=300, deadline=None)
@given(
    items=st.lists(_line.filter(lambda item: SYNTHESIS_CUE not in item), min_size=1, max_size=5),
    source_iteration=st.integers(0, 5),
)
def test_instructions_reply_round_trips(items, source_iteration):
    block = parse_instructions_reply(instructions_reply(items), source_iteration)
    assert block.items == tuple(items)
    assert block.source_iteration == source_iteration
    assert block.over_limit == (len(items) > 3)


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
