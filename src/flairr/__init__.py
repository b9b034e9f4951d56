"""Test-time prompt optimization for LLM time-series forecasting.

The pipeline retrieves historical analog windows by Pearson correlation,
renders them into a forecaster prompt, and iteratively refines the prompt's
instruction block against recent ground truth, keeping the best-scoring
prompt unless the refiner declares the session done. A benchmark harness
runs method grids and the four-condition ablation with median-of-runs
aggregation.
"""

from .backends import (
    Backend,
    CompletionReply,
    CompletionRequest,
    HttpBackend,
    RecordingBackend,
    ScriptedBackend,
    load_script,
)
from .bench import (
    ExperimentConfig,
    ReportRow,
    emit_report,
    run_ablation,
    run_experiment,
)
from .errors import (
    BackendError,
    ConfigError,
    DataError,
    FlairrError,
    ParseRetryError,
    ReplyParseError,
    TemplateError,
)
from .prompts import (
    DatasetMeta,
    ForecastReply,
    InstructionBlock,
    RefinerReply,
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
from .retrieval import (
    AnalogSegment,
    HistDB,
    build_hist_db,
    format_analogs,
    pearson,
    retrieve,
)
from .series import (
    Scaler,
    TimeSeries,
    WindowPair,
    fit_scaler,
    invert_scaler,
    load_csv,
    mae,
    split,
    window_at,
)
from .session import (
    RefinementRecord,
    SessionConfig,
    SessionResult,
    evaluate_prompt,
    forecast_with,
    make_validation_windows,
    refine_step,
    run_session,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "Scaler",
    "TimeSeries",
    "WindowPair",
    "load_csv",
    "fit_scaler",
    "invert_scaler",
    "split",
    "window_at",
    "mae",
    # retrieval
    "AnalogSegment",
    "HistDB",
    "build_hist_db",
    "pearson",
    "retrieve",
    "format_analogs",
    # prompts
    "list_strategies",
    "strategy_template",
    "DatasetMeta",
    "ForecastReply",
    "RefinerReply",
    "InstructionBlock",
    "render_forecaster_prompt",
    "render_refiner_prompt",
    "render_synthesis_prompt",
    "parse_forecast_reply",
    "parse_refiner_reply",
    "parse_instructions_reply",
    "format_numbers",
    # backends
    "Backend",
    "CompletionRequest",
    "CompletionReply",
    "ScriptedBackend",
    "HttpBackend",
    "RecordingBackend",
    "load_script",
    # session
    "SessionConfig",
    "RefinementRecord",
    "SessionResult",
    "make_validation_windows",
    "evaluate_prompt",
    "refine_step",
    "run_session",
    "forecast_with",
    # bench
    "ExperimentConfig",
    "ReportRow",
    "run_experiment",
    "run_ablation",
    "emit_report",
    # errors
    "FlairrError",
    "ConfigError",
    "DataError",
    "TemplateError",
    "BackendError",
    "ReplyParseError",
    "ParseRetryError",
]
