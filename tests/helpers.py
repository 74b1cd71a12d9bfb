"""Shared helpers for building small, hand-authored traces in tests,
plus the O(n·w) window-kernel oracle."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Sequence
from unittest import mock

import numpy as np

from repro.core import windows
from repro.logs.trace import Trace

#: The default monitor period used throughout the tests.
PERIOD = 0.02


def uniform_trace(
    signals: Mapping[str, Sequence[float]],
    period: float = PERIOD,
    start: float = 0.0,
    name: str = "test",
) -> Trace:
    """Build a trace whose signals all update on the same uniform grid.

    ``signals`` maps signal names to value sequences; sample ``i`` of every
    signal lands at ``start + i * period``.
    """
    trace = Trace(name)
    for signal, values in signals.items():
        for index, value in enumerate(values):
            trace.record(signal, start + index * period, float(value))
    return trace


def multirate_trace(
    fast: Mapping[str, Sequence[float]],
    slow: Mapping[str, Sequence[float]],
    fast_period: float = PERIOD,
    ratio: int = 4,
    start: float = 0.0,
    name: str = "multirate",
) -> Trace:
    """Build a trace with fast signals and ``ratio``-times-slower signals."""
    trace = Trace(name)
    for signal, values in fast.items():
        for index, value in enumerate(values):
            trace.record(signal, start + index * fast_period, float(value))
    for signal, values in slow.items():
        for index, value in enumerate(values):
            trace.record(
                signal, start + index * fast_period * ratio, float(value)
            )
    return trace


def acc_row_defaults() -> Dict[str, float]:
    """Benign held values for every signal the paper rules reference."""
    return {
        "ACCEnabled": 1.0,
        "ServiceACC": 0.0,
        "BrakeRequested": 0.0,
        "TorqueRequested": 1.0,
        "RequestedTorque": 100.0,
        "RequestedDecel": 0.0,
        "Velocity": 25.0,
        "ACCSetSpeed": 30.0,
        "VehicleAhead": 1.0,
        "TargetRange": 50.0,
        "TargetRelVel": 0.0,
        "SelHeadway": 2.0,
    }


def rule_trace(
    n_rows: int,
    overrides: Mapping[str, Sequence[float]] = (),
    period: float = PERIOD,
) -> Trace:
    """A trace of ``n_rows`` benign ACC rows, with chosen signals overridden.

    ``overrides`` maps a signal name to a full per-row value sequence
    (length ``n_rows``).
    """
    defaults = acc_row_defaults()
    columns: Dict[str, Sequence[float]] = {
        name: [value] * n_rows for name, value in defaults.items()
    }
    for name, values in dict(overrides).items():
        if len(values) != n_rows:
            raise ValueError(
                "override %s has %d values, expected %d"
                % (name, len(values), n_rows)
            )
        columns[name] = list(values)
    return uniform_trace(columns, period=period)


def strided_extreme(values: np.ndarray, width: int, minimum: bool) -> np.ndarray:
    """The original O(n·w) strided-reduction window kernel: the oracle
    for :func:`repro.core.windows.sliding_extreme`."""
    views = np.lib.stride_tricks.sliding_window_view(values, width, axis=-1)
    return views.min(axis=-1) if minimum else views.max(axis=-1)


#: The window kernels the temporal aggregates can run on, by name.
KERNELS = {"block": windows.sliding_extreme, "strided": strided_extreme}


@contextmanager
def window_kernel(name: str) -> Iterator[None]:
    """Run the window aggregates on the named kernel inside a ``with``
    block, by patching the function they call."""
    with mock.patch.object(windows, "sliding_extreme", KERNELS[name]):
        yield
