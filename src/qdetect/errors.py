"""Exception hierarchy for the toolkit.

Everything raised on purpose derives from ToolkitError so callers (and the
command line front end) can distinguish "the check failed" from "the inputs
were unusable".
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(ToolkitError, ValueError):
    """Operand dimensions are incompatible or a product would be too large."""


class ValidationError(ToolkitError, ValueError):
    """A value failed one of its defining invariants (named in the message)."""


class CoMeasurabilityError(ToolkitError, ValueError):
    """An operation that needs commuting operators got a non-commuting pair."""


class PreconditionError(ToolkitError, ValueError):
    """A stated precondition of the requested check does not hold."""


class UndefinedConditionalError(ToolkitError, ZeroDivisionError):
    """The conditioning event has probability zero, so the ratio is undefined."""


class LemmaViolationError(ToolkitError, RuntimeError):
    """Two routes that must agree disagreed; indicates a numerics bug."""


class UnknownObservableError(ToolkitError, KeyError):
    """A name was requested that the scenario does not declare."""

    __str__ = Exception.__str__  # the message as written, not quoted as a key


class ScenarioFormatError(ToolkitError, ValueError):
    """A scenario file could not be parsed, or a scenario declares malformed data."""
