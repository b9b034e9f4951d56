"""Refinement orchestrator: the test-time loop that evaluates the current
prompt on recent validation windows, asks the refiner whether to stop, and
otherwise synthesizes the next instruction block.

The loop runs at most ``max_iterations`` times. Each pass evaluates the
current instructions on ``sample_size`` windows, tracks the best batch MAE
under strict improvement, then consults the refiner with the session's full
(instructions, MAE) history. A Done verdict ends the session immediately
with the *current* instructions — deliberately not the best-scoring ones;
exhausting the loop falls back to the best-MAE instructions.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backends import DEFAULT_TEMPERATURES, Backend, CompletionRequest
from .errors import ParseRetryError, ReplyParseError
from .prompts import (
    DatasetMeta,
    InstructionBlock,
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
from .retrieval import HistDB, build_hist_db, format_analogs, retrieve
from .series import WindowPair, mae, window_at

__all__ = [
    "SessionConfig",
    "SampleRecord",
    "RefinementRecord",
    "SessionResult",
    "EvaluationOutcome",
    "RefineOutcome",
    "FORMAT_RETRY_SUFFIX",
    "DEFAULT_META",
    "make_validation_windows",
    "evaluate_prompt",
    "refine_step",
    "run_session",
    "forecast_reply_for",
    "forecast_with",
]

log = logging.getLogger(__name__)

FORMAT_RETRY_SUFFIX = (
    "\n\nYour previous reply violated the output format; "
    "emit exactly the specified format."
)

DEFAULT_META = DatasetMeta(
    name="series", description="a univariate time series", target="target"
)


@dataclass(frozen=True)
class SessionConfig:
    """Knobs for one refinement session.

    ``analog_count`` applies only while retrieval is enabled; the effective
    count is 0 whenever retrieval is switched off.
    """

    context_length: int
    horizon: int
    analog_count: int = 2
    max_iterations: int = 5
    stop_threshold_pct: float = 5.0
    sample_size: int = 3
    precision: int = 4
    parse_retries: int = 3
    retrieval_enabled: bool = True
    refinement_enabled: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.context_length < 2:
            raise ValueError(f"context_length must be >= 2, got {self.context_length}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.stop_threshold_pct <= 0:
            raise ValueError(
                f"stop_threshold_pct must be > 0, got {self.stop_threshold_pct}"
            )
        if self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.retrieval_enabled and self.analog_count < 1:
            raise ValueError(
                "analog_count must be >= 1 while retrieval is enabled "
                f"(got {self.analog_count})"
            )
        if self.analog_count < 0:
            raise ValueError(f"analog_count must be >= 0, got {self.analog_count}")
        if not 0 <= self.precision <= 10:
            raise ValueError(f"precision must be in 0..10, got {self.precision}")
        if self.parse_retries < 0:
            raise ValueError(f"parse_retries must be >= 0, got {self.parse_retries}")

    @property
    def effective_analog_count(self) -> int:
        return self.analog_count if self.retrieval_enabled else 0


@dataclass
class SampleRecord:
    """One validation window's evaluation within an iteration."""

    origin: int
    predictions: tuple[float, ...]
    truth: tuple[float, ...]
    mae: float
    prompt: str = ""


@dataclass
class RefinementRecord:
    """Everything one loop iteration produced (0-based ``iteration``)."""

    iteration: int
    instructions: InstructionBlock | None
    batch_mae: float
    per_sample: list[SampleRecord]
    refiner_reply: RefinerReply | None = None
    parse_failures: int = 0
    skipped_samples: int = 0
    tokens_in: int = 0
    tokens_out: int = 0


@dataclass
class SessionResult:
    """Outcome of a refinement session.

    ``final_instructions`` is None when the selected prompt is the bare base
    prompt. ``best_forecast`` keeps the best iteration's per-sample
    prediction vectors; nothing downstream consumes it, it is retained for
    inspection.
    """

    base_template_id: str
    final_instructions: InstructionBlock | None
    early_stop: bool
    best_iteration: int
    best_mae: float
    history: list[RefinementRecord]
    best_forecast: tuple[tuple[float, ...], ...] = ()

    @property
    def prompt_out(self) -> tuple[str, InstructionBlock | None]:
        return (self.base_template_id, self.final_instructions)

    @property
    def iterations_used(self) -> int:
        return len(self.history)

    @property
    def tokens_in(self) -> int:
        return sum(rec.tokens_in for rec in self.history)

    @property
    def tokens_out(self) -> int:
        return sum(rec.tokens_out for rec in self.history)


@dataclass
class EvaluationOutcome:
    """Result of evaluating one instruction block on the validation batch."""

    batch_mae: float
    per_sample: list[SampleRecord]
    parse_failures: int = 0
    skipped_samples: int = 0
    tokens_in: int = 0
    tokens_out: int = 0


@dataclass
class RefineOutcome:
    """Result of one refiner consultation."""

    next_instructions: InstructionBlock | None
    done: bool
    reply: RefinerReply
    parse_failures: int = 0
    tokens_in: int = 0
    tokens_out: int = 0


def make_validation_windows(values, cfg: SessionConfig) -> list[WindowPair]:
    """The ``sample_size`` most recent non-overlapping (context, truth)
    windows at the end of ``values``, in chronological order."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    L, H = cfg.context_length, cfg.horizon
    span = L + H
    if n < cfg.sample_size * span:
        raise ValueError(
            f"series of length {n} cannot host {cfg.sample_size} non-overlapping "
            f"validation windows of {span} points each"
        )
    origins = [n - H - j * span for j in range(cfg.sample_size)]
    return [window_at(arr, t, L, H) for t in sorted(origins)]


def _complete_parsed(
    backend: Backend,
    prompt: str,
    tag: str,
    parser,
    cfg: SessionConfig,
):
    """Issue a completion and parse it, re-asking with a corrective suffix on
    grammar violations, up to ``parse_retries`` extra attempts.

    Returns (parsed, failures, tokens_in, tokens_out).
    """
    attempts = 1 + cfg.parse_retries
    failures = 0
    tokens_in = 0
    tokens_out = 0
    last: ReplyParseError | None = None
    current_prompt = prompt
    for _ in range(attempts):
        request = CompletionRequest(
            prompt=current_prompt,
            tag=tag,
            temperature=DEFAULT_TEMPERATURES[tag],
            seed=cfg.seed,
        )
        reply = backend.complete(request)
        if reply.token_counts is not None:
            tokens_in += reply.token_counts[0]
            tokens_out += reply.token_counts[1]
        try:
            return parser(reply.text), failures, tokens_in, tokens_out
        except ReplyParseError as exc:
            failures += 1
            last = exc
            current_prompt = prompt + FORMAT_RETRY_SUFFIX
    raise ParseRetryError(
        f"{tag} reply still malformed after {attempts} attempts: {last}",
        last_error=last,
    )


def _sample_analogs(
    window: WindowPair, cfg: SessionConfig, db: HistDB | None
) -> str | None:
    if not cfg.retrieval_enabled or db is None:
        return None
    segments = retrieve(db, window.context, cfg.effective_analog_count)
    text = format_analogs(segments, cfg.precision)
    return text or None


def evaluate_prompt(
    instructions: InstructionBlock | None,
    windows: list[WindowPair],
    cfg: SessionConfig,
    db: HistDB | None,
    backend: Backend,
    library: TemplateLibrary | None = None,
    meta: DatasetMeta | None = None,
    strategy: str | None = None,
) -> EvaluationOutcome:
    """Evaluate one instruction block over the validation windows.

    A sample whose reply stays malformed past the retry budget is skipped
    and counted; the evaluation only fails when every sample does.
    """
    if not windows:
        raise ValueError("evaluate_prompt needs a non-empty window batch")
    meta = meta if meta is not None else DEFAULT_META
    per_sample: list[SampleRecord] = []
    failures = 0
    skipped = 0
    tokens_in = 0
    tokens_out = 0
    last_error: ParseRetryError | None = None
    for window in windows:
        raft = _sample_analogs(window, cfg, db)
        prompt = render_forecaster_prompt(
            meta,
            cfg.horizon,
            format_numbers(window.context, cfg.precision),
            instructions=instructions,
            raft_context=raft,
            strategy=strategy,
            library=library,
        )
        try:
            parsed, sample_failures, tin, tout = _complete_parsed(
                backend,
                prompt,
                "forecaster",
                lambda text: parse_forecast_reply(text, cfg.horizon),
                cfg,
            )
        except ParseRetryError as exc:
            failures += 1 + cfg.parse_retries
            skipped += 1
            last_error = exc
            log.warning("skipping window at %d: %s", window.origin, exc)
            continue
        failures += sample_failures
        tokens_in += tin
        tokens_out += tout
        per_sample.append(
            SampleRecord(
                origin=window.origin,
                predictions=tuple(parsed.values),
                truth=tuple(float(v) for v in window.truth),
                mae=mae(parsed.values, window.truth),
                prompt=prompt,
            )
        )
    if not per_sample:
        raise ParseRetryError(
            f"all {len(windows)} validation samples failed to parse",
            last_error=last_error.last_error if last_error else None,
        )
    batch_mae = float(np.mean([s.mae for s in per_sample]))
    return EvaluationOutcome(
        batch_mae=batch_mae,
        per_sample=per_sample,
        parse_failures=failures,
        skipped_samples=skipped,
        tokens_in=tokens_in,
        tokens_out=tokens_out,
    )


def _instructions_text(block: InstructionBlock | None) -> str:
    return block.flattened() if block is not None else ""


def refine_step(
    history: list[RefinementRecord],
    cfg: SessionConfig,
    backend: Backend,
    library: TemplateLibrary | None = None,
) -> RefineOutcome:
    """Consult the refiner on the session so far; on a continue verdict,
    synthesize the next instruction block.

    The refiner prompt embeds one (instructions, MAE) pair per completed
    iteration, oldest first, current last. A Done verdict on the very first
    iteration is overridden to continue — there is no previous MAE for a
    reduction to be measured against; if that override leaves no usable
    learnings, the current instructions are kept for the next pass.
    """
    if not history:
        raise ValueError("refine_step needs at least one completed iteration")
    latest = history[-1]
    pairs = [(_instructions_text(rec.instructions), rec.batch_mae) for rec in history]
    prompt = render_refiner_prompt(
        iteration=latest.iteration,
        current_instructions=_instructions_text(latest.instructions),
        batch_mae=latest.batch_mae,
        samples=[
            (s.prompt, list(s.predictions), list(s.truth))
            for s in latest.per_sample
        ],
        stop_threshold=cfg.stop_threshold_pct,
        history=pairs,
        precision=cfg.precision,
        library=library,
    )
    reply, failures, tokens_in, tokens_out = _complete_parsed(
        backend, prompt, "refiner", parse_refiner_reply, cfg
    )

    done = reply.done
    if done and latest.iteration == 0:
        log.info("overriding Done at the first iteration: no prior MAE to compare")
        done = False
    if done:
        return RefineOutcome(
            next_instructions=None,
            done=True,
            reply=reply,
            parse_failures=failures,
            tokens_in=tokens_in,
            tokens_out=tokens_out,
        )

    if not reply.learnings.strip():
        # only reachable via the first-iteration override: Done=True with
        # empty learnings is legal grammar, but there is nothing to
        # synthesize from, so the current instructions carry over
        return RefineOutcome(
            next_instructions=latest.instructions,
            done=False,
            reply=reply,
            parse_failures=failures,
            tokens_in=tokens_in,
            tokens_out=tokens_out,
        )

    synth_prompt = render_synthesis_prompt(reply.learnings, library=library)
    block, synth_failures, stin, stout = _complete_parsed(
        backend,
        synth_prompt,
        "synthesis",
        lambda text: parse_instructions_reply(text, source_iteration=latest.iteration + 1),
        cfg,
    )
    return RefineOutcome(
        next_instructions=block,
        done=False,
        reply=reply,
        parse_failures=failures + synth_failures,
        tokens_in=tokens_in + stin,
        tokens_out=tokens_out + stout,
    )


def strict_json(value, **kwargs) -> str:
    """``json.dumps`` with every non-finite float written as ``null``, so
    artifacts never carry the non-standard ``NaN``/``Infinity`` tokens."""
    return json.dumps(_finite_or_null(value), allow_nan=False, **kwargs)


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


class _SessionLog:
    """Incremental JSON-lines audit trail; a no-op when no path is given."""

    def __init__(self, path):
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("", encoding="utf-8")

    def write(self, record: dict) -> None:
        if self.path is None:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(strict_json(record, ensure_ascii=False) + "\n")


def _iteration_log_record(rec: RefinementRecord) -> dict:
    return {
        "kind": "iteration",
        "iteration": rec.iteration,
        "instructions": list(rec.instructions.items) if rec.instructions else None,
        "batch_mae": rec.batch_mae,
        "per_sample": [
            {
                "origin": s.origin,
                "mae": s.mae,
                "predictions": list(s.predictions),
                "truth": list(s.truth),
            }
            for s in rec.per_sample
        ],
        "refiner": None
        if rec.refiner_reply is None
        else {
            "learnings": rec.refiner_reply.learnings,
            "done": rec.refiner_reply.done,
            "confidence": rec.refiner_reply.confidence,
            "rationale": rec.refiner_reply.rationale,
        },
        "parse_failures": rec.parse_failures,
        "skipped_samples": rec.skipped_samples,
        "tokens_in": rec.tokens_in,
        "tokens_out": rec.tokens_out,
    }


def run_session(
    cfg: SessionConfig,
    train_values,
    backend: Backend,
    validation_windows: list[WindowPair] | None = None,
    library: TemplateLibrary | None = None,
    meta: DatasetMeta | None = None,
    strategy: str | None = None,
    log_path=None,
    base_template_id: str = "forecaster-base",
) -> SessionResult:
    """Run one refinement session over ``train_values``.

    Validation windows default to the most recent non-overlapping windows of
    the series; the retrieval database is built strictly from the region
    before the earliest validation context, so no window can retrieve
    itself or its future.
    """
    arr = np.asarray(train_values, dtype=np.float64)
    if validation_windows is None:
        windows = make_validation_windows(arr, cfg)
    else:
        if len(validation_windows) < cfg.sample_size:
            raise ValueError(
                f"need at least sample_size={cfg.sample_size} validation windows, "
                f"got {len(validation_windows)}"
            )
        windows = list(validation_windows)[: cfg.sample_size]

    db: HistDB | None = None
    if cfg.retrieval_enabled:
        boundary = min(w.origin for w in windows) - cfg.context_length
        db = build_hist_db(arr[:boundary], cfg.context_length, cfg.horizon)
        if len(db) == 0:
            raise ValueError(
                "training series too short to build a retrieval database "
                "before the validation windows"
            )

    session_log = _SessionLog(log_path)
    session_log.write(
        {
            "kind": "session",
            "config": {
                "context_length": cfg.context_length,
                "horizon": cfg.horizon,
                "analog_count": cfg.effective_analog_count,
                "max_iterations": cfg.max_iterations,
                "stop_threshold_pct": cfg.stop_threshold_pct,
                "sample_size": cfg.sample_size,
                "precision": cfg.precision,
                "parse_retries": cfg.parse_retries,
                "retrieval_enabled": cfg.retrieval_enabled,
                "refinement_enabled": cfg.refinement_enabled,
                "seed": cfg.seed,
            },
            "base_template": base_template_id,
            "strategy": strategy,
            "validation_origins": [w.origin for w in windows],
        }
    )

    records: list[RefinementRecord] = []
    current: InstructionBlock | None = None
    best_mae = float("inf")
    best_instructions: InstructionBlock | None = None
    best_iteration = 0
    best_forecast: tuple[tuple[float, ...], ...] = ()
    early_stop = False

    try:
        for k in range(cfg.max_iterations):
            outcome = evaluate_prompt(
                current, windows, cfg, db, backend, library, meta, strategy
            )
            record = RefinementRecord(
                iteration=k,
                instructions=current,
                batch_mae=outcome.batch_mae,
                per_sample=outcome.per_sample,
                parse_failures=outcome.parse_failures,
                skipped_samples=outcome.skipped_samples,
                tokens_in=outcome.tokens_in,
                tokens_out=outcome.tokens_out,
            )
            records.append(record)
            if outcome.batch_mae < best_mae:
                best_mae = outcome.batch_mae
                best_instructions = current
                best_iteration = k
                best_forecast = tuple(s.predictions for s in outcome.per_sample)

            if not cfg.refinement_enabled:
                session_log.write(_iteration_log_record(record))
                break

            refinement = refine_step(records, cfg, backend, library)
            record.refiner_reply = refinement.reply
            record.parse_failures += refinement.parse_failures
            record.tokens_in += refinement.tokens_in
            record.tokens_out += refinement.tokens_out
            session_log.write(_iteration_log_record(record))

            if refinement.done:
                early_stop = True
                break
            if refinement.next_instructions is not None:
                current = refinement.next_instructions
    except Exception as exc:
        # aborted sessions keep their completed iterations inspectable
        exc.partial_history = records
        raise

    final = current if early_stop else best_instructions
    result = SessionResult(
        base_template_id=base_template_id,
        final_instructions=final,
        early_stop=early_stop,
        best_iteration=best_iteration,
        best_mae=best_mae,
        history=records,
        best_forecast=best_forecast,
    )
    session_log.write(
        {
            "kind": "result",
            "early_stop": result.early_stop,
            "best_iteration": result.best_iteration,
            "best_mae": result.best_mae,
            "iterations_used": result.iterations_used,
            "final_instructions": list(final.items) if final else None,
        }
    )
    return result


def forecast_reply_for(
    window: WindowPair,
    cfg: SessionConfig,
    db: HistDB | None,
    backend: Backend,
    instructions: InstructionBlock | None = None,
    library: TemplateLibrary | None = None,
    meta: DatasetMeta | None = None,
    strategy: str | None = None,
):
    """One retrieve-augment-forecast-parse pass; returns the full parsed
    reply (values, reasoning, certainty)."""
    meta = meta if meta is not None else DEFAULT_META
    raft = _sample_analogs(window, cfg, db)
    prompt = render_forecaster_prompt(
        meta,
        cfg.horizon,
        format_numbers(window.context, cfg.precision),
        instructions=instructions,
        raft_context=raft,
        strategy=strategy,
        library=library,
    )
    parsed, _, _, _ = _complete_parsed(
        backend,
        prompt,
        "forecaster",
        lambda text: parse_forecast_reply(text, cfg.horizon),
        cfg,
    )
    return parsed


def forecast_with(
    prompt_out,
    window: WindowPair,
    cfg: SessionConfig,
    db: HistDB | None,
    backend: Backend,
    library: TemplateLibrary | None = None,
    meta: DatasetMeta | None = None,
    strategy: str | None = None,
) -> tuple[float, ...]:
    """Forecast one window with the selected prompt.

    ``prompt_out`` is a (base template id, instructions) pair or a
    :class:`SessionResult`; returns the parsed H-step prediction vector.
    """
    if isinstance(prompt_out, SessionResult):
        instructions = prompt_out.final_instructions
    else:
        _, instructions = prompt_out
    reply = forecast_reply_for(
        window,
        cfg,
        db,
        backend,
        instructions=instructions,
        library=library,
        meta=meta,
        strategy=strategy,
    )
    return tuple(reply.values)
