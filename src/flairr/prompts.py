"""Prompt engine: template library, the three renderers (forecaster,
refiner, synthesis), and marker-based parsers for the structured replies.

Renderers are pure functions over an immutable template library; every
renderer finishes with a scan that rejects any leftover brace-wrapped
placeholder, so an unresolved token can never reach a backend. Parsers are
line-anchored marker scans; violations raise :class:`ReplyParseError`, which
the session layer treats as retryable.
"""

from __future__ import annotations

import decimal
import json
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from importlib import resources
from pathlib import Path

from .errors import ReplyParseError, TemplateError

__all__ = [
    "TEMPLATE_KINDS",
    "PromptTemplate",
    "TemplateLibrary",
    "DatasetMeta",
    "ForecastReply",
    "RefinerReply",
    "InstructionBlock",
    "SYNTHESIS_CUE",
    "render_forecaster_prompt",
    "render_refiner_prompt",
    "render_synthesis_prompt",
    "parse_forecast_reply",
    "parse_refiner_reply",
    "parse_instructions_reply",
    "format_numbers",
]

TEMPLATE_KINDS = ("forecaster-base", "refiner", "synthesis", "asp-strategy")

# Placeholders are brace-wrapped lowercase snake-case names; the same pattern
# drives substitution, the post-render scan, and instruction-reply rejection.
_PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")

_ALLOWED_PLACEHOLDERS = {
    "forecaster-base": {
        "target_variable",
        "dataset_name",
        "dataset_description",
        "prediction_length",
        "strategy_section",
        "instructions_section",
        "analog_section",
        "history_text",
    },
    "refiner": {
        "iteration_display",
        "current_instructions",
        "batch_mae",
        "stop_threshold",
        "history_section",
        "samples_section",
    },
    "synthesis": {"current_learnings"},
    "asp-strategy": {"sequence_length"},
}

SYNTHESIS_CUE = "Refined Prompt Forecasting Instructions:"

NO_INSTRUCTIONS_DISPLAY = "(none - the base forecasting prompt)"


@dataclass(frozen=True)
class PromptTemplate:
    """One template: a stable id, its kind, and the body text."""

    id: str
    kind: str
    body: str

    def __post_init__(self):
        if self.kind not in TEMPLATE_KINDS:
            raise TemplateError(
                f"template {self.id!r}: unknown kind {self.kind!r}; expected one of {TEMPLATE_KINDS}"
            )
        allowed = _ALLOWED_PLACEHOLDERS[self.kind]
        for name in _PLACEHOLDER_RE.findall(self.body):
            if name not in allowed:
                raise TemplateError(
                    f"template {self.id!r}: placeholder {{{name}}} not in the documented set for kind {self.kind!r}"
                )


class TemplateLibrary:
    """Immutable id -> template map loaded from a manifest directory."""

    def __init__(self, templates: dict[str, PromptTemplate], version: int = 1):
        self._templates = dict(templates)
        self.version = version

    @classmethod
    def from_dir(cls, path) -> "TemplateLibrary":
        root = Path(path)
        manifest_path = root / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise TemplateError(f"cannot read template manifest {manifest_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise TemplateError(f"malformed template manifest {manifest_path}: {exc}") from exc
        templates: dict[str, PromptTemplate] = {}
        for entry in manifest.get("templates", []):
            try:
                tid, kind, fname = entry["id"], entry["kind"], entry["file"]
            except KeyError as exc:
                raise TemplateError(f"manifest entry {entry!r} missing key {exc}") from None
            try:
                body = (root / fname).read_text(encoding="utf-8")
            except OSError as exc:
                raise TemplateError(f"cannot read template file {fname!r}: {exc}") from exc
            if tid in templates:
                raise TemplateError(f"duplicate template id {tid!r} in manifest")
            templates[tid] = PromptTemplate(id=tid, kind=kind, body=body)
        return cls(templates, version=int(manifest.get("version", 1)))

    @classmethod
    def builtin(cls) -> "TemplateLibrary":
        """The library shipped inside the package."""
        return cls.from_dir(resources.files("flairr") / "templates")

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise TemplateError(
                f"unknown template {template_id!r}; available: {sorted(self._templates)}"
            ) from None

    def get_asp(self, name: str) -> PromptTemplate:
        tpl = self._templates.get(name)
        if tpl is None or tpl.kind != "asp-strategy":
            raise TemplateError(
                f"unknown strategy {name!r}; available: {self.list_asps()}"
            )
        return tpl

    def list_asps(self) -> list[str]:
        return sorted(t.id for t in self._templates.values() if t.kind == "asp-strategy")

    def __contains__(self, template_id: str) -> bool:
        return template_id in self._templates

    def __iter__(self):
        return iter(sorted(self._templates))


_builtin_library: TemplateLibrary | None = None


def _default_library() -> TemplateLibrary:
    global _builtin_library
    if _builtin_library is None:
        _builtin_library = TemplateLibrary.builtin()
    return _builtin_library


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

    Negative zero is normalized to plain zero so a sign bit can never leak
    into prompt text.
    """
    if not 0 <= precision <= 10:
        raise ValueError(f"precision must be in 0..10, got {precision}")
    quantum = Decimal(1).scaleb(-precision)
    rendered = []
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for v in values:
            q = Decimal(repr(float(v))).quantize(quantum, rounding=decimal.ROUND_HALF_UP)
            if q == 0:
                q = abs(q)
            rendered.append(f"{q:f}")
    return ", ".join(rendered)


def _substitute(template: PromptTemplate, values: dict[str, str]) -> str:
    def repl(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise TemplateError(
                f"template {template.id!r}: no value supplied for placeholder {{{name}}}"
            )
        return values[name]

    return _PLACEHOLDER_RE.sub(repl, template.body)


def _assert_resolved(text: str, origin: str) -> str:
    leftover = _PLACEHOLDER_RE.search(text)
    if leftover:
        raise TemplateError(
            f"{origin}: unresolved placeholder {leftover.group(0)} survived rendering"
        )
    return text


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
    library: TemplateLibrary | None = None,
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
    lib = library if library is not None else _default_library()

    strategy_section = ""
    if strategy is not None:
        body = lib.get_asp(strategy).body.strip()
        if body:
            body = body.replace("{sequence_length}", str(horizon))
            strategy_section = f"Forecasting Strategy\n{body}\n\n"

    instructions_section = ""
    if instructions is not None:
        instructions_section = f"Forecasting Instructions:\n{instructions.render()}\n\n"

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
        lib.get("forecaster-base"),
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
    return _assert_resolved(_tidy(text), "forecaster prompt")


def _truncate(text: str, budget: int) -> str:
    if budget <= 0 or len(text) <= budget:
        return text
    return text[:budget] + "\n... [truncated]"


def render_refiner_prompt(
    iteration: int,
    current_instructions: str,
    batch_mae: float,
    samples: list[tuple[str, list[float], list[float]]],
    stop_threshold: float,
    history: list[tuple[str, float]] | None = None,
    precision: int = 4,
    sample_prompt_budget: int = 4000,
    library: TemplateLibrary | None = None,
) -> str:
    """Render the refiner prompt for a 0-based ``iteration`` (displayed
    1-based).

    ``history`` carries every (instructions, MAE) pair evaluated so far in
    session order, the current pair last; it defaults to just the current
    pair. Each sample is (forecaster prompt, predictions, ground truth);
    prompts longer than ``sample_prompt_budget`` characters are truncated.
    """
    if not samples:
        raise ValueError("refiner prompt needs a non-empty sample batch")
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    lib = library if library is not None else _default_library()

    shown_instructions = current_instructions.strip() or NO_INSTRUCTIONS_DISPLAY
    if history is None:
        history = [(current_instructions, batch_mae)]

    history_lines = []
    for idx, (instr, pair_mae) in enumerate(history, start=1):
        flat = " ".join(instr.split()) or NO_INSTRUCTIONS_DISPLAY
        history_lines.append(
            f"- Iteration {idx} | MAE {format_numbers([pair_mae], precision)} | Instructions: {flat}"
        )

    sample_blocks = []
    for idx, (prompt, predictions, truth) in enumerate(samples, start=1):
        sample_blocks.append(
            f"Sample {idx}:\n"
            f"Prompt:\n{_truncate(prompt, sample_prompt_budget)}\n"
            f"Predictions: [{format_numbers(predictions, precision)}]\n"
            f"Ground Truth: [{format_numbers(truth, precision)}]"
        )

    text = _substitute(
        lib.get("refiner"),
        {
            "iteration_display": str(iteration + 1),
            "current_instructions": shown_instructions,
            "batch_mae": format_numbers([batch_mae], precision),
            "stop_threshold": f"{stop_threshold:g}%",
            "history_section": "\n".join(history_lines),
            "samples_section": "\n\n".join(sample_blocks),
        },
    )
    return _assert_resolved(_tidy(text), "refiner prompt")


def render_synthesis_prompt(
    learnings: str, library: TemplateLibrary | None = None
) -> str:
    """Render the instruction-synthesis prompt; its last line is the cue the
    reply parser strips when echoed."""
    if not learnings or not learnings.strip():
        raise ValueError("learnings must be non-empty")
    lib = library if library is not None else _default_library()
    text = _substitute(lib.get("synthesis"), {"current_learnings": learnings.strip()})
    text = _assert_resolved(_tidy(text), "synthesis prompt")
    if not text.rstrip("\n").endswith(SYNTHESIS_CUE):
        raise TemplateError("synthesis template must end with the instruction cue line")
    return text


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
    learnings section is only legal when Done is True."""
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
    leak = _PLACEHOLDER_RE.search(body)
    if leak:
        raise ReplyParseError(
            f"instructions contain placeholder token {leak.group(0)}",
            offending=leak.group(0),
        )
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
    if not items:
        raise ReplyParseError("empty instructions reply", offending=_excerpt(text))
    return InstructionBlock(
        items=tuple(items),
        source_iteration=source_iteration,
        over_limit=len(items) > 3,
    )
