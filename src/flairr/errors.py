"""Exception types shared across the package.

Each class declares the stable ``exit_code`` that the CLI ends a run with:
config and template problems exit 1, data problems 2, backend/transport
problems 3, and parse failures that survive all retries 4. A subclass
inherits its parent's code.
"""

from __future__ import annotations

__all__ = [
    "FlairrError",
    "ConfigError",
    "DataError",
    "TemplateError",
    "BackendError",
    "ReplyParseError",
    "ParseRetryError",
]


class FlairrError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(FlairrError):
    """Invalid or incomplete configuration (flags, config files, env)."""


class DataError(FlairrError):
    """Dataset ingestion or validation failure (CSV shape, bad cells)."""

    exit_code = 2


class TemplateError(FlairrError):
    """Unknown strategy, a template placeholder without a value, or an
    instruction item that holds a placeholder token."""


class BackendError(FlairrError):
    """Completion transport failure: HTTP errors, exhausted or ambiguous scripts."""

    exit_code = 3


class ReplyParseError(FlairrError):
    """A model reply violated the expected output grammar.

    Retryable: the orchestrator re-asks with a corrective suffix. ``offending``
    carries the substring that triggered the failure, for diagnostics.
    """

    def __init__(self, message: str, offending: str = ""):
        super().__init__(message)
        self.offending = offending


class ParseRetryError(FlairrError):
    """A reply could not be parsed even after all configured retries."""

    exit_code = 4

    def __init__(self, message: str, last_error: ReplyParseError | None = None):
        super().__init__(message)
        self.last_error = last_error
