"""Top-level exception base for the whole library."""

from __future__ import annotations

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
    #: ``StreamTrace.extend`` stops at a bad update.
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
