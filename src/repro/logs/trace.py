"""Traces — timestamped signal update streams and their sampled views.

A :class:`Trace` is what the monitor actually consumes: for each signal, a
time-ordered sequence of observed updates (one per received CAN frame that
carried the signal).  Because different messages broadcast at different
periods, update streams are *not* aligned; the monitor evaluates rules on
a :class:`TraceView`, a uniform resampling of the trace at the monitor
period that keeps track of which samples are *fresh* (a new update arrived)
versus *held* (the last value repeated).

That freshness bookkeeping is the foundation for the paper's multi-rate
sampling fix (§V-C1): differencing a held value makes a steadily increasing
signal look constant for three samples out of four, so trend operators must
difference consecutive *fresh* samples instead.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from functools import cached_property
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError

#: One trace event: (timestamp, signal name, value).
TraceEvent = Tuple[float, str, float]


def _out_of_order(signal: str, timestamp: float, last: float) -> TraceError:
    return TraceError(
        "%s: update at t=%.6f precedes last update at t=%.6f"
        % (signal, timestamp, last)
    )


def non_finite_time(signal: str, timestamp: float) -> TraceError:
    """The error for an update stamped NaN or ±inf: such a time defeats
    every order check (``nan < t`` is false), so it is refused on entry."""
    return TraceError("%s: update at non-finite time t=%r" % (signal, timestamp))


class Trace:
    """Per-signal timestamped update streams.

    Values are stored as floats; booleans are carried as 0.0/1.0 and enums
    as their integer value.  NaN and infinities are legal values — they are
    precisely what robustness testing puts on the bus.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: Dict[str, List[float]] = {}
        self._values: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, signal: str, timestamp: float, value: float) -> None:
        """Append one observed update for ``signal``.

        Timestamps must be finite and non-decreasing per signal (the order
        frames were seen on the bus).
        """
        if not math.isfinite(timestamp):
            raise non_finite_time(signal, timestamp)
        times = self._times.setdefault(signal, [])
        if times and timestamp < times[-1] - 1e-12:
            raise _out_of_order(signal, timestamp, times[-1])
        times.append(float(timestamp))
        self._values.setdefault(signal, []).append(float(value))

    def record_many(
        self, timestamp: float, values: Dict[str, float]
    ) -> None:
        """Record several signal updates sharing one timestamp (one bus
        frame), with :meth:`record`'s per-signal order check."""
        timestamp = float(timestamp)
        if not math.isfinite(timestamp):
            raise non_finite_time(", ".join(values), timestamp)
        all_times, all_values = self._times, self._values
        for signal, value in values.items():
            times = all_times.get(signal)
            if times is None:
                times = all_times[signal] = []
                all_values[signal] = []
            elif times and timestamp < times[-1] - 1e-12:
                raise _out_of_order(signal, timestamp, times[-1])
            times.append(timestamp)
            all_values[signal].append(float(value))

    def _update_lists(self, signal: str) -> Tuple[List[float], List[float]]:
        """``signal``'s own ``(timestamps, values)`` lists, created empty
        on first use.

        Private to the CSV reader (:mod:`repro.logs.format`), its bulk
        path: the reader runs :meth:`record`'s finiteness and order checks
        itself, a block of updates at a time, and then extends these lists
        in place.  Nothing else may append through them.
        """
        times = self._times.get(signal)
        if times is None:
            times = self._times[signal] = []
            self._values[signal] = []
        return times, self._values[signal]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def signals(self) -> Tuple[str, ...]:
        """All signal names with at least one update, sorted."""
        return tuple(sorted(self._times))

    def __contains__(self, signal: str) -> bool:
        return signal in self._times

    def update_count(self, signal: Optional[str] = None) -> int:
        """Number of updates for one signal, or for the whole trace."""
        if signal is not None:
            return len(self._times.get(signal, ()))
        return sum(len(times) for times in self._times.values())

    def updates(self, signal: str) -> List[Tuple[float, float]]:
        """The ``(timestamp, value)`` updates of one signal, in order."""
        if signal not in self._times:
            raise TraceError("no updates recorded for signal %s" % signal)
        return list(zip(self._times[signal], self._values[signal]))

    def update_arrays(self, signal: str) -> Tuple[np.ndarray, np.ndarray]:
        """One signal's ``(timestamps, values)`` as float64 arrays.

        What :class:`TraceView` resamples from: one C-level list→array
        conversion per signal instead of a Python-level ``(t, v)`` tuple
        walk.
        """
        if signal not in self._times:
            raise TraceError("no updates recorded for signal %s" % signal)
        return (
            np.asarray(self._times[signal], dtype=np.float64),
            np.asarray(self._values[signal], dtype=np.float64),
        )

    @property
    def start_time(self) -> float:
        """Timestamp of the earliest update in the trace."""
        starts = [times[0] for times in self._times.values() if times]
        if not starts:
            raise TraceError("trace is empty")
        return min(starts)

    @property
    def end_time(self) -> float:
        """Timestamp of the latest update in the trace."""
        ends = [times[-1] for times in self._times.values() if times]
        if not ends:
            raise TraceError("trace is empty")
        return max(ends)

    @property
    def duration(self) -> float:
        """Time span covered by the trace, in seconds."""
        return self.end_time - self.start_time

    def is_empty(self) -> bool:
        """Whether the trace holds no updates at all."""
        return all(not times for times in self._times.values()) or not self._times

    def value_at(self, signal: str, timestamp: float) -> float:
        """Latest value of ``signal`` at or before ``timestamp``."""
        times = self._times.get(signal)
        if not times:
            raise TraceError("no updates recorded for signal %s" % signal)
        index = bisect.bisect_right(times, timestamp) - 1
        if index < 0:
            raise TraceError(
                "%s has no update at or before t=%.6f" % (signal, timestamp)
            )
        return self._values[signal][index]

    def events(self) -> Iterator[TraceEvent]:
        """All updates across signals, ordered by time (name-stable)."""
        merged: List[TraceEvent] = []
        for signal in self.signals():
            merged.extend(
                (t, signal, v)
                for t, v in zip(self._times[signal], self._values[signal])
            )
        merged.sort(key=lambda event: (event[0], event[1]))
        return iter(merged)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def sliced(self, t0: float, t1: float, name: str = "") -> "Trace":
        """A new trace containing only updates with ``t0 <= t <= t1``."""
        out = Trace(name or self.name)
        for signal in self.signals():
            times = self._times[signal]
            lo = bisect.bisect_left(times, t0)
            hi = bisect.bisect_right(times, t1)
            for i in range(lo, hi):
                out.record(signal, times[i], self._values[signal][i])
        return out

    def to_view(
        self,
        period: float,
        signals: Optional[Sequence[str]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> "TraceView":
        """Resample the trace onto a uniform grid at ``period`` seconds."""
        return TraceView(self, period, signals=signals, start=start, end=end)


class StreamTrace:
    """Bounded-memory update store for streaming monitors.

    Same recording/view protocol as :class:`Trace`, but designed for an
    unbounded stream with a moving *retention frontier*:

    * per-signal storage is a :class:`collections.deque`, so
      :meth:`record` appends in O(1);
    * :meth:`trim` advances the frontier and pops expired updates from
      the left — every update is popped at most once over the stream's
      lifetime, so buffer maintenance costs O(1) amortized per recorded
      event (re-recording the kept suffix into a fresh :class:`Trace`,
      the approach this replaces, was O(retained) *per trim*);
    * :meth:`to_view` materializes numpy arrays only for what is still
      buffered, never for the stream's full history.

    The store never deletes a signal's *name* — a signal whose updates
    have all expired still answers ``in`` but holds zero updates, which
    lets callers distinguish "never seen" from "seen but expired".
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: Dict[str, Deque[float]] = {}
        self._values: Dict[str, Deque[float]] = {}
        self._frontier = -math.inf

    # ------------------------------------------------------------------
    # Recording / trimming
    # ------------------------------------------------------------------

    @property
    def frontier(self) -> float:
        """Timestamp of the current retention frontier (-inf initially).

        Updates strictly before the frontier have been discarded; callers
        must not record below it (drop such late events explicitly).
        """
        return self._frontier

    def record(self, signal: str, timestamp: float, value: float) -> None:
        """Append one observed update for ``signal`` (O(1)).

        Timestamps must be finite and non-decreasing per signal, as on a
        real bus.
        """
        if not math.isfinite(timestamp):
            raise non_finite_time(signal, timestamp)
        times = self._times.setdefault(signal, deque())
        if times and timestamp < times[-1] - 1e-12:
            raise _out_of_order(signal, timestamp, times[-1])
        times.append(float(timestamp))
        self._values.setdefault(signal, deque()).append(float(value))

    def trim(self, before: float) -> int:
        """Drop every update with ``t < before``; returns the drop count.

        Advances the retention frontier to ``before`` (frontiers never
        move backwards).  Updates exactly at ``before`` are kept, matching
        ``Trace.sliced(before, inf)`` semantics.
        """
        dropped = 0
        for signal, times in self._times.items():
            values = self._values[signal]
            while times and times[0] < before:
                times.popleft()
                values.popleft()
                dropped += 1
        if before > self._frontier:
            self._frontier = before
        return dropped

    # ------------------------------------------------------------------
    # Inspection (the TraceView protocol)
    # ------------------------------------------------------------------

    def signals(self) -> Tuple[str, ...]:
        """All signal names ever recorded, sorted."""
        return tuple(sorted(self._times))

    def __contains__(self, signal: str) -> bool:
        return signal in self._times

    def update_count(self, signal: Optional[str] = None) -> int:
        """Buffered update count for one signal, or for the whole store."""
        if signal is not None:
            return len(self._times.get(signal, ()))
        return sum(len(times) for times in self._times.values())

    def updates(self, signal: str) -> List[Tuple[float, float]]:
        """The buffered ``(timestamp, value)`` updates of one signal."""
        if signal not in self._times:
            raise TraceError("no updates recorded for signal %s" % signal)
        return list(zip(self._times[signal], self._values[signal]))

    def update_arrays(self, signal: str) -> Tuple[np.ndarray, np.ndarray]:
        """Buffered ``(timestamps, values)`` as float64 arrays."""
        if signal not in self._times:
            raise TraceError("no updates recorded for signal %s" % signal)
        return (
            np.asarray(self._times[signal], dtype=np.float64),
            np.asarray(self._values[signal], dtype=np.float64),
        )

    def time_bounds(self, signal: str) -> Tuple[float, float]:
        """``(oldest, newest)`` buffered timestamps of one signal.

        O(1) — this is what lets a monitor assert its buffer-row bound
        on every chunk without walking the buffer.
        """
        times = self._times.get(signal)
        if not times:
            raise TraceError("no updates buffered for signal %s" % signal)
        return times[0], times[-1]

    def is_empty(self) -> bool:
        """Whether the store currently buffers no updates at all."""
        return all(not times for times in self._times.values()) or not self._times

    @property
    def start_time(self) -> float:
        """Timestamp of the earliest *buffered* update."""
        starts = [times[0] for times in self._times.values() if times]
        if not starts:
            raise TraceError("trace is empty")
        return min(starts)

    @property
    def end_time(self) -> float:
        """Timestamp of the latest buffered update."""
        ends = [times[-1] for times in self._times.values() if times]
        if not ends:
            raise TraceError("trace is empty")
        return max(ends)

    def to_view(
        self,
        period: float,
        signals: Optional[Sequence[str]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> "TraceView":
        """Resample the buffered window onto a uniform grid.

        A signal whose updates have all expired (buffered count zero)
        raises :class:`TraceError` exactly like a missing signal would —
        the caller cannot evaluate over data it no longer holds.
        """
        for signal in signals or ():
            if not self._times.get(signal):
                raise TraceError("trace has no signal %s" % signal)
        return TraceView(self, period, signals=signals, start=start, end=end)


class _SignalColumns:
    """Lazily computed per-signal arrays for one :class:`TraceView`.

    Construction stores only the signal's raw ``(timestamp, value)``
    update arrays; every derived column is computed on first access and
    cached (``cached_property``).  A rule set that never differences a
    signal therefore never pays for its ``delta``/``rate``/``fresh_age``
    columns — only the held values it actually reads.  The computations
    themselves are byte-for-byte the original eager ones, so views built
    lazily resample identically.
    """

    def __init__(
        self,
        n: int,
        t0: float,
        period: float,
        times: np.ndarray,
        vals: np.ndarray,
    ) -> None:
        self._n = n
        self._t0 = t0
        self._period = period
        self._raw_times = times
        self._raw_vals = vals

    @cached_property
    def _binned(self):
        """Updates dropped onto the grid: fresh/has flags plus the
        latest update value/timestamp at each fresh row."""
        n = self._n
        times = self._raw_times
        vals = self._raw_vals
        # Row at which each update becomes visible: the first grid time
        # at or after the update timestamp.
        bins = np.ceil((times - self._t0) / self._period - 1e-9).astype(int)
        bins = np.clip(bins, 0, None)
        keep = bins < n
        bins, times, vals = bins[keep], times[keep], vals[keep]

        fresh = np.zeros(n, dtype=bool)
        has = np.zeros(n, dtype=bool)
        val_at = np.zeros(n)
        time_at = np.zeros(n)
        if len(bins):
            fresh[bins] = True
            has[bins] = True
            # Later updates overwrite earlier ones in the same bin because
            # fancy-index assignment applies in order and bins are sorted.
            val_at[bins] = vals
            time_at[bins] = times
        first_value = vals[0] if len(vals) else 0.0
        first_time = times[0] if len(times) else self._t0
        return fresh, has, val_at, time_at, first_value, first_time

    @cached_property
    def fresh(self) -> np.ndarray:
        return self._binned[0]

    @cached_property
    def _held(self):
        """Sample-and-hold fill: values, ever_fresh, update_times."""
        _, has, val_at, time_at, first_value, first_time = self._binned
        n = self._n
        position = np.where(has, np.arange(n), -1)
        filled = np.maximum.accumulate(position)
        ever_fresh = filled >= 0
        safe = np.maximum(filled, 0)
        values = np.where(ever_fresh, val_at[safe], first_value)
        update_times = np.where(ever_fresh, time_at[safe], first_time)
        return values, ever_fresh, update_times

    @cached_property
    def values(self) -> np.ndarray:
        return self._held[0]

    @cached_property
    def ever_fresh(self) -> np.ndarray:
        return self._held[1]

    @cached_property
    def update_times(self) -> np.ndarray:
        return self._held[2]

    @cached_property
    def delta_naive(self) -> np.ndarray:
        n = self._n
        values = self.values
        delta_naive = np.zeros(n)
        if n > 1:
            with np.errstate(invalid="ignore"):
                delta_naive[1:] = values[1:] - values[:-1]
        return delta_naive

    @cached_property
    def _fresh_rows(self) -> np.ndarray:
        return np.flatnonzero(self.fresh)

    @cached_property
    def _trend(self):
        """Freshness-aware delta/rate: difference between the two most
        recent fresh values, held between updates."""
        n = self._n
        _, _, val_at, time_at, _, _ = self._binned
        fresh_rows = self._fresh_rows
        delta_fresh = np.zeros(n)
        rate = np.zeros(n)
        if len(fresh_rows) >= 2:
            fresh_vals = val_at[fresh_rows]
            fresh_times = time_at[fresh_rows]
            step_delta = np.zeros(len(fresh_rows))
            step_rate = np.zeros(len(fresh_rows))
            with np.errstate(invalid="ignore"):
                dv = fresh_vals[1:] - fresh_vals[:-1]
            dt = fresh_times[1:] - fresh_times[:-1]
            step_delta[1:] = dv
            with np.errstate(divide="ignore", invalid="ignore"):
                step_rate[1:] = np.where(
                    dt > 0, dv / np.where(dt > 0, dt, 1.0), 0.0
                )
            # Map each row to the index of the latest fresh row <= it.
            order = np.searchsorted(fresh_rows, np.arange(n), side="right") - 1
            valid = order >= 0
            safe_order = np.maximum(order, 0)
            delta_fresh = np.where(valid, step_delta[safe_order], 0.0)
            rate = np.where(valid, step_rate[safe_order], 0.0)
        return delta_fresh, rate

    @cached_property
    def delta_fresh(self) -> np.ndarray:
        return self._trend[0]

    @cached_property
    def rate(self) -> np.ndarray:
        return self._trend[1]

    @cached_property
    def fresh_age(self) -> np.ndarray:
        n = self._n
        fresh_rows = self._fresh_rows
        if len(fresh_rows):
            order = np.searchsorted(fresh_rows, np.arange(n), side="right") - 1
            valid = order >= 0
            safe_order = np.maximum(order, 0)
            return np.where(
                valid, np.arange(n) - fresh_rows[safe_order], np.arange(n)
            )
        return np.arange(n)


class TraceView:
    """A trace resampled onto a uniform time grid.

    Each row ``i`` corresponds to time ``times[i]``.  For every signal the
    view exposes:

    * ``values`` — the held (sample-and-hold) value at each row;
    * ``fresh`` — whether one or more updates arrived since the previous row;
    * ``ever_fresh`` — whether any update has arrived by this row;
    * ``update_times`` — the timestamp of the latest update at each row;
    * ``delta_fresh`` — difference between the two most recent *fresh*
      values (the paper's multi-rate-safe trend, held between updates);
    * ``delta_naive`` — difference between consecutive held rows (the
      naive trend the paper found misleading);
    * ``rate`` — ``delta_fresh`` divided by the time between those fresh
      updates (engineering units per second).
    """

    def __init__(
        self,
        trace: Trace,
        period: float,
        signals: Optional[Sequence[str]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise TraceError("view period must be positive")
        if trace.is_empty():
            raise TraceError("cannot build a view of an empty trace")
        self.period = float(period)
        self.signal_names: Tuple[str, ...] = tuple(signals or trace.signals())
        for signal in self.signal_names:
            if signal not in trace:
                raise TraceError("trace has no signal %s" % signal)
        t0 = trace.start_time if start is None else float(start)
        t1 = trace.end_time if end is None else float(end)
        if t1 < t0:
            raise TraceError("view end precedes start")
        n_rows = int(math.floor((t1 - t0) / period + 1e-9)) + 1
        self.times = t0 + period * np.arange(n_rows)
        # Snapshot each signal's raw update arrays now (cheap, and
        # isolates the view from later trace mutation); the O(n_rows)
        # column computations happen lazily on first access.
        self._columns: Dict[str, _SignalColumns] = {}
        t0_row = float(self.times[0])
        for signal in self.signal_names:
            raw_times, raw_vals = trace.update_arrays(signal)
            self._columns[signal] = _SignalColumns(
                n_rows, t0_row, self.period, raw_times, raw_vals
            )

    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows (uniform samples) in the view."""
        return len(self.times)

    @property
    def start_time(self) -> float:
        """Time of the first row."""
        return float(self.times[0])

    @property
    def end_time(self) -> float:
        """Time of the last row."""
        return float(self.times[-1])

    def __contains__(self, signal: str) -> bool:
        return signal in self._columns

    def _column(self, signal: str) -> _SignalColumns:
        try:
            return self._columns[signal]
        except KeyError:
            raise TraceError("view has no signal %s" % signal) from None

    def values(self, signal: str) -> np.ndarray:
        """Held value per row."""
        return self._column(signal).values

    def fresh(self, signal: str) -> np.ndarray:
        """Whether a new update arrived at each row."""
        return self._column(signal).fresh

    def ever_fresh(self, signal: str) -> np.ndarray:
        """Whether any update had arrived by each row."""
        return self._column(signal).ever_fresh

    def update_times(self, signal: str) -> np.ndarray:
        """Timestamp of the most recent update per row."""
        return self._column(signal).update_times

    def delta_fresh(self, signal: str) -> np.ndarray:
        """Freshness-aware difference (0 until two updates have arrived)."""
        return self._column(signal).delta_fresh

    def delta_naive(self, signal: str) -> np.ndarray:
        """Naive held-value difference between consecutive rows."""
        return self._column(signal).delta_naive

    def rate(self, signal: str) -> np.ndarray:
        """Freshness-aware rate of change, units per second."""
        return self._column(signal).rate

    def fresh_age(self, signal: str) -> np.ndarray:
        """Rows elapsed since the last fresh sample (0 on fresh rows)."""
        return self._column(signal).fresh_age

    def row_values(self, index: int) -> Dict[str, float]:
        """All held signal values at one row (handy for debugging)."""
        return {
            signal: float(self._columns[signal].values[index])
            for signal in self.signal_names
        }
