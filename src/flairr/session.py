"""Refinement orchestrator: the test-time loop that evaluates the current
prompt on recent validation windows, asks the refiner whether to stop, and
otherwise synthesizes the next instruction block.

The loop runs at most ``max_iterations`` times. Each pass evaluates the
current instructions on ``sample_size`` windows into a record, then consults
the refiner with the (instructions, MAE) pairs of every record so far. The
records are the session's only state; the selected prompt is derived from
them. A Done verdict selects the *current* instructions — deliberately not
the best-scoring ones; exhausting the loop falls back to the best-MAE ones.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backends import Backend, CallMeter, CompletionRequest
from .errors import ParseRetryError, ReplyParseError
from .prompts import (
    SAMPLE_ANALOGS_MARKER,
    SAMPLE_HISTORY_MARKER,
    DatasetMeta,
    InstructionBlock,
    RefinerReply,
    format_numbers,
    parse_forecast_reply,
    parse_instructions_reply,
    parse_refiner_reply,
    render_forecaster_prompt,
    render_refiner_prompt,
    render_synthesis_prompt,
    strategy_template,
)
from .retrieval import HistDB, build_hist_db, format_analogs, retrieve
from .series import WindowPair, mae, window_at

__all__ = [
    "SessionConfig",
    "SampleRecord",
    "RefinementRecord",
    "SessionResult",
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
    count is 0 whenever retrieval is switched off. ``strategy`` names the
    alternate strategy preamble every forecaster prompt of the session
    carries, validation and test time alike; None means the base prompt,
    and a name with no strategy template raises :class:`TemplateError`.
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
    strategy: str | None = None

    def __post_init__(self):
        if self.context_length < 2:
            raise ValueError(f"context_length must be >= 2, got {self.context_length}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not 0 < self.stop_threshold_pct < math.inf:
            raise ValueError(
                f"stop_threshold_pct must be a finite number > 0, got {self.stop_threshold_pct}"
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
        if self.strategy is not None:
            strategy_template(self.strategy)  # an unknown name fails here

    @property
    def effective_analog_count(self) -> int:
        return self.analog_count if self.retrieval_enabled else 0


@dataclass
class SampleRecord:
    """One validation window's evaluation within an iteration, with the
    history text its forecaster prompt carried and the segments retrieved
    for it as (similarity, outcome values) pairs, best first (``()`` for
    none): what the refiner prompt quotes of the sample."""

    origin: int
    predictions: tuple[float, ...]
    truth: tuple[float, ...]
    mae: float
    history: str = ""
    analogs: tuple[tuple[float, tuple[float, ...]], ...] = ()


@dataclass
class RefinementRecord:
    """Everything one loop iteration produced. A record's index in the
    session's history is its (0-based) iteration; record 0 evaluates the
    base prompt, so its ``instructions`` are None."""

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
    """Outcome of a refinement session: its iteration records and whether
    the refiner stopped it. Everything else is derived from the records.

    The best iteration is the first whose batch MAE is strictly below every
    earlier one, starting from +inf: ties keep the earlier record, a NaN
    never wins, and when no MAE is below +inf it is iteration 0 with
    ``best_mae`` +inf. The selected prompt is the ``forecaster-base``
    template with ``final_instructions``: the last record's after an early
    stop, else the best record's; None is the bare base prompt.
    :func:`forecast_with` forecasts with it.
    """

    history: list[RefinementRecord]
    early_stop: bool

    @property
    def iterations_used(self) -> int:
        return len(self.history)

    @property
    def best_iteration(self) -> int:
        best, best_mae = 0, math.inf
        for k, rec in enumerate(self.history):
            if rec.batch_mae < best_mae:
                best, best_mae = k, rec.batch_mae
        return best

    @property
    def best_mae(self) -> float:
        mae = self.history[self.best_iteration].batch_mae
        return mae if mae < math.inf else math.inf  # no record beat +inf

    @property
    def final_instructions(self) -> InstructionBlock | None:
        selected = -1 if self.early_stop else self.best_iteration
        return self.history[selected].instructions


@dataclass
class RefineOutcome:
    """Result of one refiner consultation."""

    next_instructions: InstructionBlock | None
    done: bool
    reply: RefinerReply


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


def _retrieval_end(windows: list[WindowPair], cfg: SessionConfig) -> int:
    """Where the retrieval history ends: at the earliest validation context,
    so no window can retrieve itself or its future. A history too short for
    one analog is a :class:`ValueError`."""
    end = min(w.origin for w in windows) - cfg.context_length
    if end < cfg.context_length + cfg.horizon:
        raise ValueError(
            "training series too short to build a retrieval database "
            "before the validation windows"
        )
    return end


def check_session_fits(cfg: SessionConfig, train_values) -> None:
    """Raise the error :func:`run_session` would raise, before it sends a
    call, when ``train_values`` cannot host ``cfg``'s validation windows
    or, with retrieval, one analog before them."""
    windows = make_validation_windows(train_values, cfg)
    if cfg.retrieval_enabled:
        _retrieval_end(windows, cfg)


def _complete_parsed(
    backend: Backend,
    prompt: str,
    tag: str,
    parser,
    cfg: SessionConfig,
):
    """Issue a completion and parse it, re-asking with a corrective suffix on
    grammar violations, up to ``parse_retries`` extra attempts; returns the
    parsed reply. Each re-ask is a request with ``attempt > 0``, which is
    how a :class:`CallMeter` counts it.
    """
    attempts = 1 + cfg.parse_retries
    last: ReplyParseError | None = None
    current_prompt = prompt
    for attempt in range(attempts):
        request = CompletionRequest(
            prompt=current_prompt, tag=tag, seed=cfg.seed, attempt=attempt
        )
        reply = backend.complete(request)
        try:
            return parser(reply.text)
        except ReplyParseError as exc:
            last = exc
            current_prompt = prompt + FORMAT_RETRY_SUFFIX
    raise ParseRetryError(
        f"{tag} reply still malformed after {attempts} attempts: {last}",
        last_error=last,
    )


def _window_text(window: WindowPair, cfg: SessionConfig, db: HistDB | None, memo):
    """A forecaster prompt's text of ``window``: its history, the segments
    retrieved for it (none without retrieval or ``db``) and their
    ``format_analogs`` text. ``memo``, a grid's, makes each once per
    (index, query, analog count, precision)."""
    db = db if cfg.retrieval_enabled else None
    count, precision = cfg.effective_analog_count, cfg.precision

    def text():
        segments, analogs = [], ""
        if db is not None:
            segments = retrieve(db, window.context, count)
            analogs = format_analogs(segments, precision)
        return format_numbers(window.context, precision), segments, analogs

    if memo is None:
        return text()
    return memo.get(("window", db, window.context.tobytes(), count, precision), text)


def _forecast_window(
    window: WindowPair,
    instructions: InstructionBlock | None,
    cfg: SessionConfig,
    db: HistDB | None,
    backend: Backend,
    meta: DatasetMeta | None,
    memo,
):
    """The one retrieve-augment-forecast-parse pass behind both validation
    and test-time forecasts; returns the prompt's history text, its
    retrieved segments (possibly none) and the parsed reply."""
    history, segments, analogs = _window_text(window, cfg, db, memo)
    prompt = render_forecaster_prompt(
        meta if meta is not None else DEFAULT_META,
        cfg.horizon,
        history,
        instructions=instructions,
        raft_context=analogs,
        strategy=cfg.strategy,
    )
    parsed = _complete_parsed(
        backend,
        prompt,
        "forecaster",
        lambda text: parse_forecast_reply(text, cfg.horizon),
        cfg,
    )
    return history, segments, parsed


def evaluate_prompt(
    instructions: InstructionBlock | None,
    windows: list[WindowPair],
    cfg: SessionConfig,
    db: HistDB | None,
    backend: Backend,
    meta: DatasetMeta | None = None,
    memo=None,
) -> RefinementRecord:
    """Evaluate one instruction block over the validation windows; returns
    the iteration's record with its batch MAE and per-sample results.

    A sample whose reply stays malformed past the retry budget is skipped
    and counted in ``skipped_samples``; the evaluation only fails when every
    sample does. Re-asks and tokens are not counted here: a
    :class:`CallMeter` around ``backend`` sees them. ``memo`` is a grid's,
    as for :func:`run_session`.
    """
    if not windows:
        raise ValueError("evaluate_prompt needs a non-empty window batch")
    per_sample: list[SampleRecord] = []
    skipped = 0
    last_error: ParseRetryError | None = None
    for window in windows:
        try:
            history, segments, parsed = _forecast_window(
                window, instructions, cfg, db, backend, meta, memo
            )
        except ParseRetryError as exc:
            skipped += 1
            last_error = exc
            log.warning("skipping window at %d: %s", window.origin, exc)
            continue
        per_sample.append(
            SampleRecord(
                origin=window.origin,
                predictions=tuple(parsed.values),
                truth=tuple(float(v) for v in window.truth),
                mae=mae(parsed.values, window.truth),
                history=history,
                analogs=tuple((s.score, tuple(s.outcome.tolist())) for s in segments),
            )
        )
    if not per_sample:
        raise ParseRetryError(
            f"all {len(windows)} validation samples failed to parse",
            last_error=last_error.last_error if last_error else None,
        )
    return RefinementRecord(
        instructions=instructions,
        batch_mae=float(np.mean([s.mae for s in per_sample])),
        per_sample=per_sample,
        skipped_samples=skipped,
    )


def _instructions_text(block: InstructionBlock | None) -> str:
    return block.flattened() if block is not None else ""


def refine_step(
    history: list[RefinementRecord],
    cfg: SessionConfig,
    backend: Backend,
    meta: DatasetMeta | None = None,
) -> RefineOutcome:
    """Consult the refiner on the session so far; on a continue verdict,
    synthesize the next instruction block.

    The refiner prompt embeds one (instructions, MAE) pair per completed
    iteration, oldest first, current last. It then states the latest
    iteration's forecaster prompt once, with markers where a sample's
    history and retrieved segments go, and then each sample's own data:
    its segments' similarities and outcomes, its history, predictions and
    truth.
    A Done verdict on the very first iteration is overridden to continue —
    there is no previous MAE for a reduction to be measured against; if
    that override leaves no usable learnings, the current instructions are
    kept for the next pass.
    """
    if not history:
        raise ValueError("refine_step needs at least one completed iteration")
    latest, iteration = history[-1], len(history) - 1
    shared = render_forecaster_prompt(
        meta if meta is not None else DEFAULT_META,
        cfg.horizon,
        SAMPLE_HISTORY_MARKER,
        instructions=latest.instructions,
        raft_context=(
            SAMPLE_ANALOGS_MARKER if any(s.analogs for s in latest.per_sample) else None
        ),
        strategy=cfg.strategy,
    )
    prompt = render_refiner_prompt(
        history=[(_instructions_text(rec.instructions), rec.batch_mae) for rec in history],
        forecaster_prompt=shared,
        samples=[
            (s.history, s.analogs, list(s.predictions), list(s.truth))
            for s in latest.per_sample
        ],
        stop_threshold=cfg.stop_threshold_pct,
        precision=cfg.precision,
    )
    reply = _complete_parsed(backend, prompt, "refiner", parse_refiner_reply, cfg)

    done = reply.done
    if done and iteration == 0:
        log.info("overriding Done at the first iteration: no prior MAE to compare")
        done = False
    next_instructions = None
    if not done:
        # Empty learnings are legal grammar only with Done=True, so they get
        # here only via the first-iteration override: there is nothing to
        # synthesize from, and the current instructions carry over.
        next_instructions = latest.instructions
        if reply.learnings.strip():
            synth_prompt = render_synthesis_prompt(reply.learnings)
            next_instructions = _complete_parsed(
                backend,
                synth_prompt,
                "synthesis",
                lambda text: parse_instructions_reply(
                    text, source_iteration=iteration + 1
                ),
                cfg,
            )
    return RefineOutcome(next_instructions=next_instructions, done=done, reply=reply)


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
    """Incremental JSON-lines audit trail in a new file; a no-op without a path."""

    def __init__(self, path):
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            open(self.path, "x", encoding="utf-8").close()

    def write(self, record: dict) -> None:
        if self.path is None:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(strict_json(record, ensure_ascii=False) + "\n")


def _iteration_log_record(k: int, rec: RefinementRecord) -> dict:
    return {
        "kind": "iteration",
        "iteration": k,
        "instructions": list(rec.instructions.items) if rec.instructions else None,
        "instructions_over_limit": rec.instructions.over_limit if rec.instructions else None,
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
        "refiner": None if rec.refiner_reply is None else asdict(rec.refiner_reply),
        "parse_failures": rec.parse_failures,
        "skipped_samples": rec.skipped_samples,
        "tokens_in": rec.tokens_in,
        "tokens_out": rec.tokens_out,
    }


def _charge(record: RefinementRecord, meter: CallMeter) -> None:
    record.parse_failures = meter.reasks + record.skipped_samples
    record.tokens_in, record.tokens_out = meter.tokens_in, meter.tokens_out


def run_session(
    cfg: SessionConfig,
    train_values,
    backend: Backend,
    validation_windows: list[WindowPair] | None = None,
    meta: DatasetMeta | None = None,
    log_path=None,
    memo=None,
) -> SessionResult:
    """Run one refinement session over ``train_values``.

    Validation windows default to the most recent non-overlapping windows of
    the series; the retrieval database is built strictly from the region
    before the earliest validation context, so no window can retrieve
    itself or its future. ``memo``, shared by the cells of one grid over
    ``train_values``, builds that database and each window's prompt text
    once for all of them; without one the session builds its own.

    An exception raised once the log is started carries
    ``partial_history``: the records of the iterations begun so far. The
    log holds each finished iteration. The last record can be one whose
    refiner or synthesis call failed; that record is not in the log.
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
        end, L, H = _retrieval_end(windows, cfg), cfg.context_length, cfg.horizon

        def index():
            return build_hist_db(arr[:end], L, H)

        db = index() if memo is None else memo.get(("index", end, L, H), index)

    config = {**asdict(cfg), "analog_count": cfg.effective_analog_count}
    strategy = config.pop("strategy")  # logged beside the config, not in it
    session_log = _SessionLog(log_path)
    session_log.write(
        {
            "kind": "session",
            "config": config,
            "base_template": "forecaster-base",
            "strategy": strategy,
            "validation_origins": [w.origin for w in windows],
        }
    )

    records: list[RefinementRecord] = []
    current: InstructionBlock | None = None
    early_stop = False

    try:
        for k in range(cfg.max_iterations):
            # a fresh meter per iteration: its totals are the record's tokens,
            # its re-asks plus the skipped samples its parse failures
            meter = CallMeter(backend)
            record = evaluate_prompt(current, windows, cfg, db, meter, meta, memo)
            records.append(record)
            _charge(record, meter)
            refinement = refine_step(records, cfg, meter, meta) if cfg.refinement_enabled else None
            if refinement is not None:
                record.refiner_reply = refinement.reply
                _charge(record, meter)
            session_log.write(_iteration_log_record(k, record))
            if refinement is None or refinement.done:
                early_stop = refinement is not None
                break
            current = refinement.next_instructions
    except Exception as exc:
        # aborted sessions keep their completed iterations inspectable
        exc.partial_history = records
        raise

    result = SessionResult(history=records, early_stop=early_stop)
    final = result.final_instructions
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
    meta: DatasetMeta | None = None,
    memo=None,
):
    """One retrieve-augment-forecast-parse pass; returns the full parsed
    reply (values, reasoning, certainty). ``memo`` is a grid's, as for
    :func:`run_session`."""
    return _forecast_window(window, instructions, cfg, db, backend, meta, memo)[-1]


def forecast_with(
    result: SessionResult,
    window: WindowPair,
    cfg: SessionConfig,
    db: HistDB | None,
    backend: Backend,
    meta: DatasetMeta | None = None,
    memo=None,
) -> tuple[float, ...]:
    """Forecast one window with the prompt a session selected; returns the
    parsed H-step prediction vector. ``memo`` is a grid's, as for
    :func:`run_session`."""
    reply = forecast_reply_for(window, cfg, db, backend, result.final_instructions, meta, memo)
    return tuple(reply.values)
