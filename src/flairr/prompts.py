"""Prompt engine: the built-in templates, the three renderers (forecaster,
refiner, synthesis), and marker-based parsers for the structured replies.

The templates are the text files under ``templates/``: ``forecaster_base``,
``refiner``, ``synthesis``, and one ``asp_<name>.txt`` per strategy. Each is
read once per process. Renderers are pure functions over them, and each
renderer's value dict is the one declaration of its template's placeholders.
No template placeholder can reach a backend: substitution is one pass over
the template text that fails on a placeholder without a value, so braces
inside substituted values, such as a dataset name, are text.
Parsers are line-anchored marker scans; violations raise
:class:`ReplyParseError`, which the session layer treats as retryable.
"""

from __future__ import annotations

import decimal
import functools
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from importlib import resources
from itertools import repeat

import numpy as np

from .errors import ReplyParseError, TemplateError

__all__ = [
    "list_strategies",
    "strategy_template",
    "DatasetMeta",
    "ForecastReply",
    "RefinerReply",
    "InstructionBlock",
    "SYNTHESIS_CUE",
    "SAMPLE_HISTORY_MARKER",
    "SAMPLE_ANALOGS_MARKER",
    "render_forecaster_prompt",
    "render_refiner_prompt",
    "render_synthesis_prompt",
    "parse_forecast_reply",
    "parse_refiner_reply",
    "parse_instructions_reply",
    "format_numbers",
]

# Placeholders are brace-wrapped lowercase snake-case names; the same pattern
# drives substitution, the instruction-item check, and reply rejection.
_PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")

SYNTHESIS_CUE = "Refined Prompt Forecasting Instructions:"

NO_INSTRUCTIONS_DISPLAY = "(none - the base forecasting prompt)"

_TEMPLATES = resources.files(__package__) / "templates"


@functools.cache
def _template(stem: str) -> str:
    """The text of ``templates/<stem>.txt``, read once per process."""
    return (_TEMPLATES / f"{stem}.txt").read_text(encoding="utf-8")


@functools.cache
def list_strategies() -> tuple[str, ...]:
    """Sorted strategy names: the ``asp_<name>.txt`` files, ``_`` read as ``-``."""
    return tuple(
        sorted(
            entry.name[len("asp_") : -len(".txt")].replace("_", "-")
            for entry in _TEMPLATES.iterdir()
            if entry.name.startswith("asp_") and entry.name.endswith(".txt")
        )
    )


def strategy_template(name: str) -> str:
    """The text of strategy ``name``; an unknown name raises
    :class:`TemplateError` listing the available ones."""
    available = list_strategies()
    if name not in available:
        raise TemplateError(f"unknown strategy {name!r}; available: {list(available)}")
    return _template("asp_" + name.replace("-", "_"))


# what the forecaster prompt says of a dataset that has no description
DEFAULT_DESCRIPTION = "a time series dataset"


@dataclass(frozen=True)
class DatasetMeta:
    """What the forecaster prompt says about the dataset."""

    name: str
    description: str
    target: str


@dataclass(frozen=True)
class ForecastReply:
    """Parsed forecaster output. ``certainty`` is a percentage when the model
    supplied a usable one."""

    values: tuple[float, ...]
    reasoning: str = ""
    certainty: float | None = None
    certainty_reasoning: str | None = None


@dataclass(frozen=True)
class RefinerReply:
    """Parsed refiner output: free-text learnings plus the stop decision."""

    learnings: str
    done: bool
    confidence: str | None = None
    rationale: str | None = None


@dataclass(frozen=True)
class InstructionBlock:
    """Synthesized forecasting instructions as bullet items.

    More than three items sets ``over_limit`` instead of failing: live models
    overrun soft limits routinely and the loop should keep moving.
    """

    items: tuple[str, ...]
    source_iteration: int = 0
    over_limit: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not self.items:
            raise ValueError("instruction block needs at least one item")
        object.__setattr__(self, "items", tuple(self.items))

    def render(self) -> str:
        return "\n".join(f"- {item}" for item in self.items)

    def flattened(self) -> str:
        """Single-line form for history rows and logs."""
        return "; ".join(self.items)


def format_numbers(values, precision: int = 4) -> str:
    """Fixed-point rendering, ", "-separated, ties rounded away from zero.

    Each value renders as ``repr(x)`` rounded half-up to ``precision``
    places. Negative zero is normalized to plain zero so a sign bit can
    never leak into prompt text. Every finite float renders exactly; a NaN
    or an infinity raises ValueError.
    """
    if not 0 <= precision <= 10:
        raise ValueError(f"precision must be in 0..10, got {precision}")
    xs = list(map(float, values))
    scale = 10.0**precision
    if len(xs) < 32:  # below about 32 values numpy's fixed cost dominates
        clear = [_clear_of_tie(abs(x) * scale) for x in xs]
    else:
        # clipped so the product cannot overflow; a clipped value is not clear
        clear = _clear_of_tie(np.minimum(np.abs(np.array(xs)), 2.0**50) * scale)
        clear = clear.tolist()
    spec = f".{precision}f"
    rendered = list(map(format, xs, repeat(spec)))
    if not all(clear):
        quantum = Decimal(1).scaleb(-precision)
        with decimal.localcontext() as ctx:
            # the largest finite float has 309 integer digits, plus up to 10 places
            ctx.prec = 309 + 10
            for i, (x, ok) in enumerate(zip(xs, clear)):
                if ok:
                    continue
                if not math.isfinite(x):
                    raise ValueError(f"cannot render non-finite value {x!r}")
                q = Decimal(repr(x)).quantize(quantum, rounding=decimal.ROUND_HALF_UP)
                rendered[i] = f"{q:f}"
    # every token has exactly `precision` places, so this only matches a
    # whole token that rounds to zero
    negative_zero = "-" + format(0.0, spec)
    return ", ".join(rendered).replace(negative_zero, negative_zero[1:])


def _clear_of_tie(y):
    """Whether ``format(x, f".{p}f")`` equals ``repr(x)`` rounded half-up to
    ``p`` places, given ``y = fl(|x| * 10**p)``; works on a float or an array.

    Let t = |x| 10^p exactly and s = |repr(x)| 10^p. Both roundings give the
    integer nearest the value they round (``format`` rounds t correctly,
    the half-up rule rounds s) whenever t and s lie strictly inside the same
    interval (k - 1/2, k + 1/2). Their distances from y are small:

    - |y - t| <= 2^-53 y, the rounding of the product (10^p <= 10^10 is
      exact);
    - |t - s| = 10^p |x - repr(x)| <= 2^-53 t, because ``repr`` gives a
      decimal that rounds back to x, so within half an ulp of x.

    Their sum is below 2^-51 y, half the band b = 2^-50 y. The test is
    d > b with d = |y mod 1 - 1/2|, y's distance from the nearest tie.
    ``y % 1`` is exact. Where d <= 1/4 the subtraction is exact too
    (Sterbenz); above 1/4 it is off by a relative 2^-53. Either way the true
    distance exceeds b/2, so t and s fall on y's side of the tie. A value
    with y >= 2^49 never passes (b >= 1/2 >= d), so every step above is in
    range. NaN and infinities fail the comparison. For y < 1/4 (including
    subnormal x) both t and s are below 1/2 and round to zero.
    """
    return abs(y % 1.0 - 0.5) > y * 2.0**-50


def _substitute(name: str, body: str, values: dict[str, str]) -> str:
    """``body`` with every placeholder replaced in one pass; a placeholder
    without a value raises :class:`TemplateError` naming template ``name``."""

    def repl(match: re.Match) -> str:
        placeholder = match.group(1)
        if placeholder not in values:
            raise TemplateError(
                f"template {name!r}: no value supplied for placeholder {{{placeholder}}}"
            )
        return values[placeholder]

    return _PLACEHOLDER_RE.sub(repl, body)


def _tidy(text: str) -> str:
    """Collapse runs of blank lines left by empty conditional sections."""
    return re.sub(r"\n{3,}", "\n\n", text).strip("\n") + "\n"


def render_forecaster_prompt(
    meta: DatasetMeta,
    horizon: int,
    history_text: str,
    instructions: InstructionBlock | None = None,
    raft_context: str | None = None,
    strategy: str | None = None,
) -> str:
    """Render the forecaster prompt.

    The strategy section, the "Forecasting Instructions:" section, and the
    retrieved-analog section each appear only when their input is present;
    the objective, dataset block, input data, and output-format block are
    always emitted.
    """
    if not history_text or not history_text.strip():
        raise ValueError("history_text must be non-empty")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    strategy_section = ""
    if strategy is not None:
        body = _substitute(
            strategy, strategy_template(strategy), {"sequence_length": str(horizon)}
        ).strip()
        if body:
            strategy_section = f"Forecasting Strategy\n{body}\n\n"

    instructions_section = ""
    if instructions is not None:
        items = instructions.render()
        leftover = _PLACEHOLDER_RE.search(items)
        if leftover:
            raise TemplateError(
                f"forecaster prompt: unresolved placeholder {leftover.group(0)} "
                "in the instructions"
            )
        instructions_section = f"Forecasting Instructions:\n{items}\n\n"

    analog_section = ""
    if raft_context is not None and raft_context.strip():
        analog_section = (
            "Retrieved Historical Segments\n"
            "The following historical segments were retrieved as the closest analogs "
            "to the current context window. Each segment and its corresponding "
            "ground-truth outcome are formatted as comma-separated text strings.\n"
            f"{raft_context}\n\n"
        )

    text = _substitute(
        "forecaster_base",
        _template("forecaster_base"),
        {
            "target_variable": meta.target,
            "dataset_name": meta.name,
            "dataset_description": meta.description,
            "prediction_length": str(horizon),
            "strategy_section": strategy_section,
            "instructions_section": instructions_section,
            "analog_section": analog_section,
            "history_text": history_text,
        },
    )
    return _tidy(text)


# The refiner prompt states the forecaster prompt once, rendered with these
# notes where each sample's own history and retrieved segments went.
SAMPLE_HISTORY_MARKER = "[given with each sample below]"
SAMPLE_ANALOGS_MARKER = (
    "[the forecaster saw each segment's context and outcome; "
    "each sample below gives their similarity and outcome, if it had any]"
)


def _sample_block(
    idx: int, history_text: str, analogs, predictions, truth, precision: int
) -> str:
    """One sample of the refiner prompt: its retrieved segments by
    similarity and outcome (none when ``analogs`` is empty), its history,
    its predictions and its truth."""
    lines = [f"Sample {idx}:"]
    if analogs:
        lines.append("Retrieved Segments:")
        for rank, (score, outcome) in enumerate(analogs, start=1):
            # the header and outcome lines of format_analogs, character for character
            lines.append(
                f"Segment {rank} (similarity {format_numbers([score], precision)}):\n"
                f"outcome: {format_numbers(outcome, precision)}"
            )
    lines.append(f"Historical Data: {history_text}")
    lines.append(f"Predictions: [{format_numbers(predictions, precision)}]")
    lines.append(f"Ground Truth: [{format_numbers(truth, precision)}]")
    return "\n".join(lines)


def _mae_text(value: float, precision: int) -> str:
    """A batch MAE as prompt text; one that overflowed to inf, or is NaN,
    reads ``inf`` or ``nan``, since a session scores and selects those too."""
    return format_numbers([value], precision) if math.isfinite(value) else str(float(value))


def render_refiner_prompt(
    history: list[tuple[str, float]],
    forecaster_prompt: str,
    samples: list[tuple[str, tuple, list[float], list[float]]],
    stop_threshold: float,
    precision: int = 4,
) -> str:
    """Render the refiner prompt for the session so far.

    ``history`` carries every (instructions, MAE) pair evaluated so far in
    session order. The last pair is the one under review, and its 1-based
    position, ``len(history)``, is the displayed iteration. A non-finite
    MAE reads ``inf`` or ``nan``.

    ``forecaster_prompt`` is the forecaster prompt the samples share,
    stated once: rendered with :data:`SAMPLE_HISTORY_MARKER` as its history
    and, when any sample has retrieved segments,
    :data:`SAMPLE_ANALOGS_MARKER` as its analog text. Each sample is
    (history text, its retrieved segments as (similarity, outcome values)
    pairs best first, empty for none, predictions, ground truth). Each
    segment is quoted by its header and its outcome line, as the
    forecaster prompt rendered them; the context lines are not repeated.
    """
    if not samples:
        raise ValueError("refiner prompt needs a non-empty sample batch")
    if not history:
        raise ValueError("refiner prompt needs a non-empty history")
    current_instructions, batch_mae = history[-1]
    shown_instructions = current_instructions.strip() or NO_INSTRUCTIONS_DISPLAY

    history_lines = []
    for idx, (instr, pair_mae) in enumerate(history, start=1):
        flat = " ".join(instr.split()) or NO_INSTRUCTIONS_DISPLAY
        history_lines.append(
            f"- Iteration {idx} | MAE {_mae_text(pair_mae, precision)} | Instructions: {flat}"
        )

    blocks = [f"Forecaster Prompt:\n{forecaster_prompt.strip()}"]
    for idx, sample in enumerate(samples, start=1):
        blocks.append(_sample_block(idx, *sample, precision))

    text = _substitute(
        "refiner",
        _template("refiner"),
        {
            "iteration_display": str(len(history)),
            "current_instructions": shown_instructions,
            "batch_mae": _mae_text(batch_mae, precision),
            "stop_threshold": f"{stop_threshold:g}%",
            "history_section": "\n".join(history_lines),
            "samples_section": "\n\n".join(blocks),
        },
    )
    return _tidy(text)


def render_synthesis_prompt(learnings: str) -> str:
    """Render the instruction-synthesis prompt; its last line is the cue the
    reply parser strips when echoed."""
    if not learnings or not learnings.strip():
        raise ValueError("learnings must be non-empty")
    text = _substitute(
        "synthesis", _template("synthesis"), {"current_learnings": learnings.strip()}
    )
    text = _tidy(text)
    if not text.rstrip("\n").endswith(SYNTHESIS_CUE):
        raise TemplateError("synthesis template must end with the instruction cue line")
    return text


def _reject_placeholders(text: str, what: str) -> None:
    """A brace-wrapped placeholder token in a reply is template text the
    model echoed instead of answering, which the reply grammar forbids."""
    leak = _PLACEHOLDER_RE.search(text)
    if leak:
        raise ReplyParseError(
            f"{what} contain placeholder token {leak.group(0)}", offending=leak.group(0)
        )


def _excerpt(text: str, limit: int = 120) -> str:
    snippet = " ".join(text.split())
    return snippet[:limit] + ("..." if len(snippet) > limit else "")


def parse_forecast_reply(text: str, horizon: int) -> ForecastReply:
    """Parse a forecaster reply against the output-format grammar.

    Locates "Predicted Values:", reads the bracketed comma-separated reals
    (brackets may span lines), then captures the optional Reasoning /
    Certainty Estimate / Certainty Reasoning sections by line-anchored scan.
    """
    marker = "Predicted Values:"
    pos = text.find(marker)
    if pos < 0:
        raise ReplyParseError(
            f"missing {marker!r} marker", offending=_excerpt(text)
        )
    after = pos + len(marker)
    open_idx = text.find("[", after)
    newline_idx = text.find("\n", after)
    if open_idx < 0 or (0 <= newline_idx < open_idx and text[after:newline_idx].strip()):
        raise ReplyParseError(
            "expected '[' after the Predicted Values marker",
            offending=_excerpt(text[after : after + 80]),
        )
    close_idx = text.find("]", open_idx)
    if close_idx < 0:
        raise ReplyParseError(
            "unbalanced bracket in Predicted Values",
            offending=_excerpt(text[open_idx : open_idx + 80]),
        )
    inner = text[open_idx + 1 : close_idx]
    tokens = [tok.strip() for tok in inner.split(",")] if inner.strip() else []
    values = []
    for tok in tokens:
        try:
            value = float(tok)
        except ValueError:
            raise ReplyParseError(
                f"non-numeric predicted value {tok!r}", offending=tok
            ) from None
        if not math.isfinite(value):
            raise ReplyParseError(f"non-finite predicted value {tok!r}", offending=tok)
        values.append(value)
    if len(values) != horizon:
        raise ReplyParseError(
            f"expected {horizon} predicted values, got {len(values)}",
            offending=_excerpt(inner),
        )

    sections = {"Reasoning:": [], "Certainty Estimate:": [], "Certainty Reasoning:": []}
    current: list[str] | None = None
    for line in text[close_idx + 1 :].splitlines():
        stripped = line.strip()
        matched = False
        for header in ("Certainty Reasoning:", "Certainty Estimate:", "Reasoning:"):
            if stripped.startswith(header):
                current = sections[header]
                remainder = stripped[len(header) :].strip()
                if remainder:
                    current.append(remainder)
                matched = True
                break
        if not matched and current is not None and stripped:
            current.append(stripped)

    reasoning = " ".join(sections["Reasoning:"])
    certainty: float | None = None
    certainty_text = " ".join(sections["Certainty Estimate:"])
    if certainty_text:
        number = re.search(r"[-+]?\d+(?:\.\d+)?", certainty_text)
        if number:
            candidate = float(number.group(0))
            if 0.0 <= candidate <= 100.0:
                certainty = candidate
    certainty_reasoning = " ".join(sections["Certainty Reasoning:"]) or None
    return ForecastReply(
        values=tuple(values),
        reasoning=reasoning,
        certainty=certainty,
        certainty_reasoning=certainty_reasoning,
    )


_CONFIDENCE_RE = re.compile(r"\b(high|medium|low)\b", re.IGNORECASE)


def parse_refiner_reply(text: str) -> RefinerReply:
    """Parse a refiner reply: Learnings section, then the Done verdict, then
    an optional confidence line. Learnings must precede Done; an empty
    learnings section is only legal when Done is True, and learnings with a
    brace-wrapped placeholder token are never legal."""
    lines = text.splitlines()
    done_line_idx: int | None = None
    for idx, line in enumerate(lines):
        if line.strip().lower().startswith("done:"):
            done_line_idx = idx
            break
    if done_line_idx is None:
        raise ReplyParseError("missing 'Done:' marker", offending=_excerpt(text))

    raw_value = lines[done_line_idx].strip()[len("done:") :].strip().rstrip(".")
    if raw_value.lower() == "true":
        done = True
    elif raw_value.lower() == "false":
        done = False
    else:
        raise ReplyParseError(
            f"Done must be True or False, got {raw_value!r}", offending=raw_value
        )

    head = lines[:done_line_idx]
    learnings_lines = []
    header_seen = False
    for line in head:
        stripped = line.strip()
        if not header_seen and stripped.lower().startswith("learnings:"):
            header_seen = True
            remainder = stripped[len("learnings:") :].strip()
            if remainder:
                learnings_lines.append(remainder)
            continue
        if stripped:
            learnings_lines.append(stripped)
    learnings = "\n".join(learnings_lines).strip()
    _reject_placeholders(learnings, "learnings")
    if not learnings and not done:
        raise ReplyParseError(
            "learnings must be non-empty when Done is False", offending=_excerpt(text)
        )

    confidence: str | None = None
    rationale: str | None = None
    for line in lines[done_line_idx + 1 :]:
        stripped = line.strip()
        if stripped.lower().startswith("confidence in output:"):
            payload = stripped[len("confidence in output:") :].strip()
            match = _CONFIDENCE_RE.search(payload.split("-", 1)[0] or payload)
            if match:
                confidence = match.group(1).capitalize()
            if "-" in payload:
                tail = payload.split("-", 1)[1].strip()
                rationale = tail or None
            break
    return RefinerReply(
        learnings=learnings, done=done, confidence=confidence, rationale=rationale
    )


_BULLET_RE = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s+(.*)$")


def parse_instructions_reply(text: str, source_iteration: int = 0) -> InstructionBlock:
    """Parse synthesized instructions: strip an echoed cue line, reject
    brace-wrapped placeholder tokens, split into bullet items (falling back
    to one item per non-empty line), and flag more than three items."""
    body = text
    cue_pos = body.rfind(SYNTHESIS_CUE)
    if cue_pos >= 0:
        body = body[cue_pos + len(SYNTHESIS_CUE) :]
    _reject_placeholders(body, "instructions")
    body = body.strip()
    if not body:
        raise ReplyParseError("empty instructions reply", offending=_excerpt(text))

    lines = [line for line in body.splitlines() if line.strip()]
    has_bullets = any(_BULLET_RE.match(line) for line in lines)
    items: list[str] = []
    if has_bullets:
        # Bullet lines start items; wrapped continuations attach to the item
        # above; prose before the first bullet is preamble and dropped.
        for line in lines:
            bullet = _BULLET_RE.match(line)
            if bullet:
                items.append(bullet.group(1).strip())
            elif items:
                items[-1] = f"{items[-1]} {line.strip()}"
    else:
        items = [line.strip() for line in lines]
    return InstructionBlock(
        items=tuple(items),
        source_iteration=source_iteration,
        over_limit=len(items) > 3,
    )
