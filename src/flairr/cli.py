"""Command-line entry point.

Subcommands: forecast | refine | bench | ablate | retrieve. Each error
class in :mod:`flairr.errors` declares the stable exit code it ends a run
with (1 configuration/template, 2 data, 3 backend, 4 replies still
malformed after the retry budget); usage errors and a ``ValueError`` exit 1.
The API credential is read only from the ``FLAIRR_API_KEY`` environment
variable, never from a flag, so shell history and logs stay shareable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .backends import DEFAULT_TIMEOUT_S, Backend, HttpBackend, ReplyStore, load_script
from .bench import (
    DEFAULT_CONTEXT_LENGTH,
    DEFAULT_JOBS,
    ExperimentConfig,
    run_ablation,
    run_experiment,
)
from .errors import ConfigError, DataError, FlairrError
from .prompts import DEFAULT_DESCRIPTION, DatasetMeta, format_numbers, list_strategies
from .retrieval import build_hist_db, retrieve
from .series import WindowPair, dataset_name, load_csv
from .session import SessionConfig, forecast_reply_for, run_session
from .testing import SyntheticOracleBackend

__all__ = ["build_parser", "main", "entrypoint"]

# the session flags default to the SessionConfig fields they set
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SessionConfig)}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; the default of 2 is reserved for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends a flag's default to its help only where there is one to
    show: not for a required flag, a switch, a None default, or help that
    already states its default."""

    def _get_help_string(self, action):
        if (
            action.required
            or action.nargs == 0
            or action.default is None
            or "(default:" in action.help
        ):
            return action.help
        return super()._get_help_string(action)


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("backend")
    group.add_argument(
        "--backend",
        choices=("scripted", "http", "oracle"),
        default="oracle",
        help="completion source",
    )
    group.add_argument("--script", help="JSON-lines script for --backend scripted")
    group.add_argument("--endpoint", help="chat-completion URL for --backend http")
    group.add_argument("--model", help="model name for --backend http")
    group.add_argument(
        "--timeout", type=float, default=DEFAULT_TIMEOUT_S, help="HTTP timeout in seconds"
    )
    group.add_argument(
        "--record", help="append each distinct request and its reply to this JSON-lines file"
    )


def _make_backend(args, seed: int) -> ReplyStore:
    """The backend the flags select, behind the store that writes the
    ``--record`` transcript; ``seed`` seeds the oracle."""
    if args.backend == "scripted":
        if not args.script:
            raise ConfigError("--backend scripted requires --script")
        backend: Backend = load_script(args.script)
    elif args.backend == "http":
        if not args.endpoint or not args.model:
            raise ConfigError("--backend http requires --endpoint and --model")
        backend = HttpBackend(args.endpoint, args.model, timeout_s=args.timeout)
    else:
        backend = SyntheticOracleBackend(seed=seed)
    return ReplyStore(backend, args.record or None)


def _add_series_flags(parser: argparse.ArgumentParser) -> None:
    """The data, window and analog flags of forecast, refine and retrieve."""
    parser.add_argument("--data", required=True, help="CSV file with a header row")
    parser.add_argument("--target", required=True, help="column to forecast")
    parser.add_argument(
        "--timestamp-column",
        help="timestamp column name (default: auto-detect a non-numeric first column)",
    )
    parser.add_argument(
        "--context", type=int, default=DEFAULT_CONTEXT_LENGTH, help="context length L"
    )
    parser.add_argument("--horizon", type=int, required=True, help="forecast horizon H")
    parser.add_argument(
        "--m", type=int, default=_DEFAULTS["analog_count"], help="retrieved analog count M"
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=_DEFAULTS["precision"],
        help="decimal places in prompts and printed values",
    )


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    """The series flags plus the seed and retrieval switch of a session."""
    _add_series_flags(parser)
    parser.add_argument("--seed", type=int, default=_DEFAULTS["seed"], help="session seed")
    parser.add_argument(
        "--no-retrieval",
        action="store_true",
        help="disable analog retrieval",
    )


class _ListStrategies(argparse.Action):
    """Print the strategy names and exit while parsing, before the required
    flags are checked."""

    def __init__(self, option_strings, dest, help=None):
        super().__init__(
            option_strings, argparse.SUPPRESS, default=argparse.SUPPRESS, nargs=0, help=help
        )

    def __call__(self, parser, namespace, values, option_string=None):
        print("\n".join(list_strategies()))
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flairr",
        description=(
            "Test-time prompt optimization for LLM time-series forecasting: "
            "analog retrieval, a forecaster/refiner agent loop, and a "
            "benchmark harness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formatter = _HelpFormatter

    p_forecast = sub.add_parser(
        "forecast",
        help="single-shot forecast with a strategy prompt",
        formatter_class=formatter,
    )
    _add_session_flags(p_forecast)
    p_forecast.add_argument(
        "--strategy",
        default="simple",
        help="strategy template name (see `flairr forecast --list-strategies`)",
    )
    p_forecast.add_argument(
        "--list-strategies",
        action=_ListStrategies,
        help="print available strategy names and exit",
    )
    _add_backend_flags(p_forecast)
    p_forecast.set_defaults(func=cmd_forecast)

    p_refine = sub.add_parser(
        "refine",
        help="run a refinement session and print the selected prompt",
        formatter_class=formatter,
    )
    _add_session_flags(p_refine)
    p_refine.add_argument(
        "--max-iter",
        type=int,
        default=_DEFAULTS["max_iterations"],
        help="maximum refinement iterations",
    )
    p_refine.add_argument(
        "--stop-threshold",
        type=float,
        default=_DEFAULTS["stop_threshold_pct"],
        help="MAE-reduction percentage below which the refiner stops",
    )
    p_refine.add_argument(
        "--samples",
        type=int,
        default=_DEFAULTS["sample_size"],
        help="validation windows per iteration",
    )
    p_refine.add_argument(
        "--strategy", default=None, help="optional strategy template name"
    )
    p_refine.add_argument(
        "--out", default="flairr-out", help="directory for the session log"
    )
    _add_backend_flags(p_refine)
    p_refine.set_defaults(func=cmd_refine)

    for name, help_text, run, stem in (
        ("bench", "run the experiment grid from a JSON config", run_experiment, "report"),
        (
            "ablate",
            "run the four-condition ablation from a JSON config",
            run_ablation,
            "ablation",
        ),
    ):
        p_grid = sub.add_parser(name, help=help_text, formatter_class=formatter)
        p_grid.add_argument("--config", required=True, help="experiment JSON config")
        p_grid.add_argument("--runs", type=int, help="override the config run count")
        p_grid.add_argument("--out", help="override the config output directory")
        p_grid.add_argument("--seed", type=int, help="override the config seed")
        p_grid.add_argument(
            "--jobs",
            type=int,
            help=(
                "grid cells run at a time; each sends its calls in turn, so this "
                "bounds the calls in flight "
                f"(default: {DEFAULT_JOBS} if the grid's cheapest cell, run alone, "
                "mostly waits on its calls; else 1, and 1 over an ordinal script)"
            ),
        )
        _add_backend_flags(p_grid)
        p_grid.set_defaults(func=cmd_grid, run=run, stem=stem)

    p_retrieve = sub.add_parser(
        "retrieve",
        help="print the most similar historical windows as CSV",
        formatter_class=formatter,
    )
    _add_series_flags(p_retrieve)
    p_retrieve.add_argument(
        "--t",
        type=int,
        default=None,
        help="forecast origin index (default: the end of the series)",
    )
    p_retrieve.set_defaults(func=cmd_retrieve)

    return parser


def _meta_from_args(args) -> DatasetMeta:
    return DatasetMeta(
        name=dataset_name(args.data),
        description=DEFAULT_DESCRIPTION,
        target=args.target,
    )


def _session_config(args, **fields) -> SessionConfig:
    """The :class:`SessionConfig` of the session flags, plus ``fields``."""
    return SessionConfig(
        context_length=args.context,
        horizon=args.horizon,
        analog_count=args.m,
        precision=args.precision,
        retrieval_enabled=not args.no_retrieval,
        seed=args.seed,
        strategy=args.strategy,
        **fields,
    )


def cmd_forecast(args) -> int:
    cfg = _session_config(args)
    values = load_csv(args.data, args.target, timestamp_column=args.timestamp_column)
    if values.size < cfg.context_length:
        raise DataError(
            f"series of length {values.size} is shorter than context {cfg.context_length}"
        )
    backend = _make_backend(args, cfg.seed)
    context = values[-cfg.context_length :]
    window = WindowPair(
        context=context, truth=np.zeros(cfg.horizon), origin=values.size
    )
    db = None
    if cfg.retrieval_enabled:
        db = build_hist_db(
            values[: values.size - cfg.context_length], cfg.context_length, cfg.horizon
        )
    reply = forecast_reply_for(window, cfg, db, backend, meta=_meta_from_args(args))
    print(f"predicted_values: [{format_numbers(reply.values, args.precision)}]")
    if reply.reasoning:
        print(f"reasoning: {reply.reasoning}")
    if reply.certainty is not None:
        print(f"certainty: {reply.certainty:g}%")
    if reply.certainty_reasoning:
        print(f"certainty_reasoning: {reply.certainty_reasoning}")
    return 0


def cmd_refine(args) -> int:
    cfg = _session_config(
        args,
        max_iterations=args.max_iter,
        stop_threshold_pct=args.stop_threshold,
        sample_size=args.samples,
    )
    values = load_csv(args.data, args.target, timestamp_column=args.timestamp_column)
    backend = _make_backend(args, cfg.seed)
    out_dir = Path(args.out)
    log_path = out_dir / "session.jsonl"
    try:
        result = run_session(cfg, values, backend, meta=_meta_from_args(args), log_path=log_path)
    except Exception as exc:
        if hasattr(exc, "partial_history"):  # the log was started: say how far
            print(
                f"aborted after {_logged_iterations(log_path)} logged iteration(s); "
                f"session_log: {log_path}",
                file=sys.stderr,
            )
        raise
    print(f"session_log: {log_path}")
    print(f"early_stop: {'true' if result.early_stop else 'false'}")
    print(f"iterations_used: {result.iterations_used}")
    print(f"best_iteration: {result.best_iteration + 1}")
    print(f"best_mae: {result.best_mae!r}")
    if result.final_instructions is None:
        print("selected_instructions: (base prompt, no added instructions)")
    else:
        print("selected_instructions:")
        print(result.final_instructions.render())
    return 0


def _logged_iterations(log_path: Path) -> int:
    with open(log_path, encoding="utf-8") as fh:
        return sum(json.loads(line)["kind"] == "iteration" for line in fh)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.runs is not None:
        updates["runs"] = args.runs
    if args.out is not None:
        updates["output_dir"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    return dataclasses.replace(cfg, **updates) if updates else cfg


def cmd_grid(args) -> int:
    """``bench`` and ``ablate``: ``args.run`` is the grid runner and
    ``args.stem`` names the report it writes."""
    cfg = _apply_overrides(ExperimentConfig.from_json(args.config), args)
    backend = _make_backend(args, cfg.seed)
    rows, run_dir = args.run(cfg, backend, jobs=args.jobs)
    print(f"run_dir: {run_dir}")
    print(f"report: {run_dir / (args.stem + '.csv')}")
    for row in rows:
        print(
            f"{row.dataset} h={row.horizon} {row.method}: "
            f"median MAE {row.median_mae!r} over {len(row.run_maes)} runs"
        )
    return 0


def cmd_retrieve(args) -> int:
    format_numbers((), args.precision)  # a bad precision fails before any output
    values = load_csv(args.data, args.target, timestamp_column=args.timestamp_column)
    t = args.t if args.t is not None else values.size
    if t - args.context < 0 or t > values.size:
        raise DataError(
            f"origin {t} does not leave room for a context of {args.context} "
            f"in a series of length {values.size}"
        )
    context = values[t - args.context : t]
    db = build_hist_db(values[: t - args.context], args.context, args.horizon)
    segments = retrieve(db, context, args.m)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["rank", "start", "score", "context", "outcome"])
    for rank, seg in enumerate(segments, start=1):
        writer.writerow(
            [
                rank,
                seg.start,
                repr(seg.score),
                format_numbers(seg.context, args.precision),
                format_numbers(seg.outcome, args.precision),
            ]
        )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built on the first :func:`main` call and kept: a build costs ten parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FlairrError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    except OSError as exc:
        # each input is read where a failure becomes a FlairrError, so this
        # is an output: the run directory, a session log or a report
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
