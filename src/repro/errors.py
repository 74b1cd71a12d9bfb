"""The library's exception types, and one input check per numeric quantity."""

from __future__ import annotations

import math
import numbers
from typing import Sequence


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class TraceError(ReproError):
    """Raised for malformed traces (non-monotonic timestamps, unknown
    signals, empty traces where data is required)."""

    #: Violations finalized before the error: set when
    #: ``OnlineMonitor.feed_block`` stops at a bad event mid-block.
    violations: Sequence[object] = ()

    #: Leading updates of a block stored before the error: set when
    #: ``Trace.extend``, the one block recorder, stops at a bad update.
    accepted: int = 0


class SpecError(ReproError):
    """Raised for specification-language problems (lex/parse/type errors)."""


class EvaluationError(ReproError):
    """Raised when a well-formed specification cannot be evaluated against
    a trace (unknown signal references, missing state machines)."""


class SimulationError(ReproError):
    """Raised for simulator misconfiguration (bad wiring, bad scenarios)."""


class InjectionError(ReproError):
    """Raised for invalid fault-injection requests."""


class ParameterError(ReproError, ValueError):
    """Raised for a numeric parameter outside its quantity's range.

    ``reason`` is the text after the parameter's name; the CLI prints it
    for the matching option, so both refuse a value with the same text.
    """

    def __init__(self, name: str, requirement: str, value: object) -> None:
        super().__init__(name, requirement, value)
        self.name = name
        self.reason = "%s, got %r" % (requirement, value)

    def __str__(self) -> str:
        return "%s %s" % (self.name, self.reason)


# One check per quantity: each returns its value or raises ParameterError.


def positive_seconds(name: str, value: float) -> float:
    """A sampling or message period, a hold, a simulated duration."""
    if value > 0 and math.isfinite(value):
        return float(value)
    raise ParameterError(name, "must be a positive number of seconds", value)


def non_negative_seconds(name: str, value: float) -> float:
    """A gap, a settle time, a retention, a jitter bound."""
    if value >= 0 and math.isfinite(value):
        return float(value)
    raise ParameterError(name, "must be a finite number of seconds >= 0", value)


def count(name: str, value: int) -> int:
    """A size, a budget, a number of repetitions: an integer >= 1."""
    if isinstance(value, numbers.Integral) and value >= 1:
        return int(value)
    raise ParameterError(name, "is a count and must be >= 1", value)


def tcp_port(name: str, value: int) -> int:
    """A TCP port; 0 asks the OS for an ephemeral one."""
    if isinstance(value, numbers.Integral) and 0 <= value <= 65535:
        return int(value)
    raise ParameterError(name, "must be a TCP port in 0-65535", value)


def non_negative_threshold(name: str, value: float) -> float:
    """A margin bar: ``inf`` is legal, NaN is not."""
    if value >= 0:
        return float(value)
    raise ParameterError(name, "must be >= 0", value)
