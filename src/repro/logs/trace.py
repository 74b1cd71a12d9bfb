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
from array import array
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError, positive_seconds

#: One trace event: (timestamp, signal name, value).
TraceEvent = Tuple[float, str, float]

#: Seconds by which an update may precede its signal's previous update
#: and still count as in order: float noise in logged timestamps.  Every
#: per-signal order check on recording allows exactly this much.
ORDER_SLACK = 1e-12


def _out_of_order(signal: str, timestamp: float, last: float) -> TraceError:
    return TraceError(
        "%s: update at t=%.6f precedes last update at t=%.6f"
        % (signal, timestamp, last)
    )


def non_finite_time(signal: str, timestamp: float) -> TraceError:
    """The error for an update stamped NaN or ±inf: such a time defeats
    every order check (``nan < t`` is false), so it is refused on entry."""
    return TraceError("%s: update at non-finite time t=%r" % (signal, timestamp))


def signal_runs(
    codes: np.ndarray, times: np.ndarray, newest: Callable[[int], float]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group a block of updates by signal and find those out of order.

    ``codes`` numbers each update's signal and ``times`` stamps it, in
    arrival order; ``newest(code)`` is the signal's latest stored
    timestamp (``-inf`` when none).  Returns ``(order, heads,
    backwards)``: ``order`` is the stable permutation that groups the
    updates by code (each signal's own updates stay in arrival order),
    ``heads`` marks the first update of each group in that order, and
    ``backwards`` marks, in that order, the updates stamped more than
    :data:`ORDER_SLACK` before their signal's previous update — the one
    before it in the block, or ``newest`` for the first of a group.
    :meth:`Trace.extend`, the one block recorder, checks order through it.
    """
    order = codes.argsort(kind="stable")
    grouped = codes[order]
    stamps = times[order]
    heads = np.empty(len(order), dtype=bool)
    heads[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=heads[1:])
    previous = np.empty(len(order))
    previous[1:] = stamps[:-1]
    previous[heads] = [newest(code) for code in grouped[heads]]
    return order, heads, stamps < previous - ORDER_SLACK


class Trace:
    """Per-signal timestamped update streams.

    Values are stored as floats; booleans are carried as 0.0/1.0 and enums
    as their integer value.  NaN and infinities are legal values — they are
    precisely what robustness testing puts on the bus.

    One store serves a whole log and a stream's rolling buffer alike:

    * each signal's updates are two float64 ``array('d')`` columns, times
      and values, so :meth:`record` and a :meth:`recorder` append
      unboxed floats and :meth:`extend` appends a block of updates, of
      any signals, one bulk copy per signal;
    * :meth:`trim` drops expired updates from the front and advances the
      retention *frontier*, so a streaming monitor's buffer holds only
      what it still needs;
    * :meth:`to_view` resamples straight from the columns, through numpy
      views of their memory that live only as long as the resample.  A
      column cannot grow or shrink while a numpy view of it exists, so
      no such view may outlive the call that made it.

    Trimming never deletes a signal's *name* — a signal whose updates
    have all expired still answers ``in`` but holds zero updates, which
    lets callers distinguish "never seen" from "seen but expired".
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._columns: Dict[str, Tuple[array[float], array[float]]] = {}
        self._frontier = -math.inf

    # ------------------------------------------------------------------
    # Recording / trimming
    # ------------------------------------------------------------------

    def record(self, signal: str, timestamp: float, value: float) -> None:
        """Append one observed update for ``signal``.

        Timestamps must be finite and non-decreasing per signal (the order
        frames were seen on the bus).
        """
        if not math.isfinite(timestamp):
            raise non_finite_time(signal, timestamp)
        times, values = self._column(signal)
        if times and timestamp < times[-1] - ORDER_SLACK:
            raise _out_of_order(signal, timestamp, times[-1])
        values.append(value)
        times.append(timestamp)

    def recorder(
        self, signals: Sequence[str]
    ) -> Callable[[float, Mapping[str, float]], None]:
        """A recorder of one bus frame's updates of ``signals``.

        The returned callable takes a timestamp and a mapping holding a
        value for each of ``signals`` and appends one update per signal,
        with :meth:`record`'s finiteness check and per-signal order
        check.  The signals' columns are resolved once, on the first
        update recorded, rather than looked up per update.
        """
        names = tuple(signals)
        label = ", ".join(names)
        columns: Optional[Tuple[Tuple[str, array[float], array[float]], ...]] = None
        isfinite, slack = math.isfinite, ORDER_SLACK

        def record(timestamp: float, values: Mapping[str, float]) -> None:
            nonlocal columns
            timestamp = float(timestamp)
            if not isfinite(timestamp):
                raise non_finite_time(label, timestamp)
            if columns is None:
                columns = tuple((name,) + self._column(name) for name in names)
            for name, times, column in columns:
                if times and timestamp < times[-1] - slack:
                    raise _out_of_order(name, timestamp, times[-1])
                column.append(values[name])
                times.append(timestamp)

        return record

    def extend(
        self,
        names: Sequence[str],
        codes: np.ndarray,
        times: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append a block of updates, of any signals, in arrival order:
        update ``i`` is ``names[codes[i]]`` at ``times[i]`` with value
        ``values[i]``.

        :meth:`record`'s checks, a block at a time.  On a non-finite
        timestamp or an update stepping back in time the updates before
        it (in arrival order) are appended and :meth:`record`'s
        :class:`TraceError` is raised, its ``accepted`` attribute giving
        how many updates were appended.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        count = len(times)
        if not count:
            return

        def newest(code: int) -> float:
            return self._newest(names[code])

        finite = np.isfinite(times)
        good = count if np.count_nonzero(finite) == count else int(finite.argmin())
        error: Optional[TraceError] = None
        if good < count:
            error = non_finite_time(names[codes[good]], float(times[good]))
        order, heads, backwards = signal_runs(codes[:good], times[:good], newest)
        if np.count_nonzero(backwards):
            # The first update, in arrival order, that steps back: its
            # signal's updates before it are all in order.
            good = int(order[backwards].min())
            code = codes[good]
            prior = times[:good][codes[:good] == code]
            error = _out_of_order(
                names[code],
                float(times[good]),
                float(prior[-1]) if len(prior) else newest(code),
            )
            order, heads, _ = signal_runs(codes[:good], times[:good], newest)
        stamps, readings = times[order], values[order]
        starts = heads.nonzero()[0]
        for lo, hi in zip(starts, [*starts[1:], len(order)]):
            stored_times, stored_values = self._column(names[codes[order[lo]]])
            stored_times.frombytes(stamps[lo:hi].tobytes())
            stored_values.frombytes(readings[lo:hi].tobytes())
        if error is not None:
            error.accepted = good
            raise error

    def _column(self, signal: str) -> Tuple[array[float], array[float]]:
        """``signal``'s ``(times, values)`` columns, created empty on
        first use."""
        column = self._columns.get(signal)
        if column is None:
            column = self._columns[signal] = (array("d"), array("d"))
        return column

    def _newest(self, signal: str) -> float:
        """``signal``'s latest stored timestamp, or -inf when none."""
        column = self._columns.get(signal)
        return column[0][-1] if column and column[0] else -math.inf

    @property
    def frontier(self) -> float:
        """Timestamp of the current retention frontier (-inf initially).

        Updates strictly before the frontier have been discarded; callers
        must not record below it (drop such late events explicitly).
        """
        return self._frontier

    def trim(self, before: float) -> int:
        """Drop every update with ``t < before``; returns the drop count.

        Advances the retention frontier to ``before`` (frontiers never
        move backwards).  Updates exactly at ``before`` are kept, matching
        ``sliced(before, inf)`` semantics.
        """
        buffered = self.update_count()
        return buffered - self.retain(before)[1]

    def retain(self, before: float) -> Tuple[int, int, List[Tuple[float, float]]]:
        """:meth:`trim` to ``before``, measuring the store in the same
        pass over the signals.

        Each signal drops its leading updates stamped before ``before``.
        Returns ``(peak, left, bounds)``: the most updates any signal
        held before the trim, the updates left after it, and the
        ``(first, last)`` timestamps of each signal that still holds
        any.  ``retain(-inf)`` drops nothing and only measures.
        """
        peak = left = 0
        bounds: List[Tuple[float, float]] = []
        for times, values in self._columns.values():
            size = len(times)
            if size > peak:
                peak = size
            if size and times[0] < before:
                expired = _floats(times) < before
                dropped = size if expired.all() else int(expired.argmin())
                del times[:dropped], values[:dropped]
                size -= dropped
            if size:
                left += size
                bounds.append((times[0], times[-1]))
        if before > self._frontier:
            self._frontier = before
        return peak, left, bounds

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def signals(self) -> Tuple[str, ...]:
        """All signal names ever recorded, sorted."""
        return tuple(sorted(self._columns))

    def __contains__(self, signal: str) -> bool:
        return signal in self._columns

    def update_count(self, signal: Optional[str] = None) -> int:
        """Number of updates held for one signal, or for the whole trace."""
        if signal is not None:
            column = self._columns.get(signal)
            return len(column[0]) if column else 0
        return sum(len(times) for times, _ in self._columns.values())

    def _held(self, signal: str) -> Tuple[array[float], array[float]]:
        try:
            return self._columns[signal]
        except KeyError:
            raise TraceError("no updates recorded for signal %s" % signal) from None

    def updates(self, signal: str) -> List[Tuple[float, float]]:
        """The ``(timestamp, value)`` updates of one signal, in order."""
        times, values = self._held(signal)
        return list(zip(times, values))

    def update_arrays(self, signal: str) -> Tuple[np.ndarray, np.ndarray]:
        """One signal's ``(timestamps, values)`` as float64 arrays
        (copies, which later recording or trimming leaves alone)."""
        times, values = self._held(signal)
        return _floats(times).copy(), _floats(values).copy()

    def _raw_updates(self, signal: str) -> Tuple[np.ndarray, np.ndarray]:
        """``signal``'s ``(timestamps, values)`` as numpy views of its
        columns, uncopied: what :func:`_resample` reads.  They must be
        dropped before the trace changes again."""
        times, values = self._columns[signal]
        return _floats(times), _floats(values)

    def time_bounds(self, signal: str) -> Tuple[float, float]:
        """``(first, last)`` held timestamps of one signal, in O(1)."""
        column = self._columns.get(signal)
        if not column or not column[0]:
            raise TraceError("no updates buffered for signal %s" % signal)
        return column[0][0], column[0][-1]

    def _time_columns(self) -> List[array[float]]:
        columns = [times for times, _ in self._columns.values() if times]
        if not columns:
            raise TraceError("trace is empty")
        return columns

    @property
    def start_time(self) -> float:
        """Timestamp of the earliest update in the trace.

        The least timestamp, not the least *first* one: an update may
        step back up to :data:`ORDER_SLACK` from the one before it, so a
        later update can be the earliest.
        """
        return min(float(_floats(times).min()) for times in self._time_columns())

    @property
    def end_time(self) -> float:
        """Timestamp of the latest update in the trace (the greatest,
        not the greatest *last* one)."""
        return max(float(_floats(times).max()) for times in self._time_columns())

    @property
    def duration(self) -> float:
        """Time span covered by the trace, in seconds."""
        return self.end_time - self.start_time

    def is_empty(self) -> bool:
        """Whether the trace holds no updates at all."""
        return not any(times for times, _ in self._columns.values())

    def value_at(self, signal: str, timestamp: float) -> float:
        """Latest value of ``signal`` at or before ``timestamp``."""
        times, values = self._held(signal)
        index = bisect.bisect_right(times, timestamp) - 1
        if index < 0:
            raise TraceError(
                "%s has no update at or before t=%.6f" % (signal, timestamp)
            )
        return values[index]

    def events(self) -> Iterator[TraceEvent]:
        """All updates across signals as ``(time, signal, value)``
        tuples, in :meth:`event_columns` order."""
        times, signals, values = self.event_columns()
        return zip(map(float, times), signals, map(float, values))

    def event_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All updates across signals as three columns — float64 times,
        an object array of signal names and float64 values — ordered by
        time, ties by signal name, each signal's own updates in order.

        One stable ``lexsort`` over the concatenated per-signal columns;
        the block ingest paths (:meth:`repro.core.online.OnlineMonitor.feed_trace`,
        fleet replay) slice these columns and the CSV writer walks them.
        """
        names = self.signals()
        if not names:
            return np.empty(0), np.empty(0, dtype=object), np.empty(0)
        columns = [self._columns[name] for name in names]
        times = np.concatenate([_floats(stamps) for stamps, _ in columns])
        values = np.concatenate([_floats(readings) for _, readings in columns])
        codes = np.repeat(np.arange(len(names)), [len(stamps) for stamps, _ in columns])
        order = np.lexsort((codes, times))
        return (
            times[order],
            np.array(names, dtype=object)[codes[order]],
            values[order],
        )

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def sliced(self, t0: float, t1: float, name: str = "") -> "Trace":
        """A new trace containing only updates with ``t0 <= t <= t1``."""
        out = Trace(name or self.name)
        for signal in self.signals():
            times, values = self._columns[signal]
            lo = bisect.bisect_left(times, t0)
            hi = bisect.bisect_right(times, t1)
            if lo < hi:
                out._columns[signal] = (times[lo:hi], values[lo:hi])
        return out

    def to_view(
        self,
        period: float,
        signals: Optional[Sequence[str]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> "TraceView":
        """Resample the trace onto a uniform grid at ``period`` seconds.

        A selected signal holding no updates (never recorded, or all
        trimmed) raises :class:`TraceError`: a view cannot show data the
        trace does not hold.
        """
        return TraceView(self, period, signals=signals, start=start, end=end)


#: The streaming monitor's buffer is a :class:`Trace`; this is its former
#: name.
StreamTrace = Trace


def _floats(column: array[float]) -> np.ndarray:
    """``column`` as a float64 array sharing its memory (no copy)."""
    return np.frombuffer(column, dtype=np.float64)


#: Most updates a view bins at once.  A view's resample copies at most
#: this many updates into temporaries, however long the trace, and fills
#: its held columns this many grid cells at a time.
_BIN_BLOCK = 1 << 16


def _update_blocks(
    updates: Sequence[Tuple[np.ndarray, np.ndarray]],
    codes: np.ndarray,
    times: np.ndarray,
    values: np.ndarray,
) -> Iterator[int]:
    """Copy the ``(times, values)`` updates of signals ``0..S-1``,
    signal by signal and each signal's in order, into the equal-length
    buffers ``times`` and ``values`` a block at a time, numbering each
    update's signal in ``codes``; yields each block's length."""
    size, filled = len(times), 0
    for code, (stamps, readings) in enumerate(updates):
        start, total = 0, len(stamps)
        while start < total:
            stop = min(total, start + size - filled)
            end = filled + stop - start
            codes[filled:end] = code
            times[filled:end] = stamps[start:stop]
            values[filled:end] = readings[start:stop]
            filled, start = end, stop
            if filled == size:
                yield filled
                filled = 0
    if filled:
        yield filled


def _resample(
    updates: Sequence[Tuple[np.ndarray, np.ndarray]],
    n: int,
    t0: float,
    period: float,
) -> List["_SignalColumns"]:
    """The grid columns of ``S`` signals over ``n`` rows from ``t0``, all
    built in one pass: one :class:`_SignalColumns` per ``(times,
    values)`` of ``updates``.

    The columns are rows of ``S × (n + 1)`` arrays.  Column 0 of signal
    ``s`` holds its *fill-in*, the value (and time) shown before its
    first update: that of its first update on the grid, else 0.0 (and
    ``t0``); ``fresh`` there marks the fill-in as set.  Columns
    ``1..n`` are the grid rows.

    * Binning: an update becomes visible at the first grid time at or
      after its timestamp — updates before ``t0`` at row 0, updates
      past the last row nowhere.  The updates of all signals are binned
      together, a block of at most :data:`_BIN_BLOCK` updates
      (:func:`_update_blocks`) at a time, into flat cells
      ``s * (n + 1) + 1 + row``; fancy assignment applies in order, so
      of several updates in one cell the later wins.
    * Hold: one ``maximum.accumulate`` over an int32 index array gives
      each cell the flat index of its latest fresh cell, or of its
      signal's column 0 before any; one gather then fills ``values``
      in place.  The gather is cut into blocks too: it reads only fresh
      cells and column 0, which it maps to themselves, so a block never
      reads a cell an earlier block changed.
    """
    count, width = len(updates), n + 1
    fresh = np.zeros((count, width), dtype=bool)
    values = np.zeros((count, width))
    stamps = np.zeros((count, width))
    stamps[:, 0] = t0
    flat_fresh, flat_values, flat_stamps = (
        fresh.reshape(-1),
        values.reshape(-1),
        stamps.reshape(-1),
    )
    size = min(sum(len(times) for times, _ in updates), _BIN_BLOCK)
    block = np.empty(size, dtype=np.int64), np.empty(size), np.empty(size)
    for length in _update_blocks(updates, *block):
        codes, times, readings = (column[:length] for column in block)
        rows = times - t0
        rows /= period
        rows -= 1e-9
        np.ceil(rows, out=rows)
        cells = rows.astype(np.int64)
        np.maximum(cells, 0, out=cells)
        keep = cells < n
        if not keep.all():
            codes, times, readings, cells = (
                codes[keep],
                times[keep],
                readings[keep],
                cells[keep],
            )
        # Column 0 of each update's signal; the update's own cell.
        codes *= width
        cells += codes
        cells += 1
        flat_fresh[cells] = True
        flat_values[cells] = readings
        flat_stamps[cells] = times
        # The first update of each signal in the block sets the
        # signal's fill-in, unless an earlier block did.
        heads = np.empty(len(codes), dtype=bool)
        heads[:1] = True
        np.not_equal(codes[1:], codes[:-1], out=heads[1:])
        lead = heads.nonzero()[0]
        lead = lead[~flat_fresh[codes[lead]]]
        first = codes[lead]
        flat_fresh[first] = True
        flat_values[first] = readings[lead]
        flat_stamps[first] = times[lead]

    index = np.int32 if count * width < 2**31 else np.int64
    held = np.where(fresh, np.arange(width, dtype=index), index(0))
    np.maximum.accumulate(held, axis=1, out=held)
    ever_fresh = held > 0
    held += np.arange(0, count * width, width, dtype=index)[:, None]
    flat_held = held.reshape(-1)
    for start in range(0, count * width, _BIN_BLOCK):
        stop = start + _BIN_BLOCK
        flat_values[start:stop] = flat_values[flat_held[start:stop]]
    return [
        _SignalColumns(
            fresh[s, 1:], values[s, 1:], ever_fresh[s, 1:], flat_stamps, held[s, 1:]
        )
        for s in range(count)
    ]


class _SignalColumns:
    """One signal's columns in a :class:`TraceView`.

    The grid columns — ``fresh``, ``values`` and ``ever_fresh`` — are
    rows of the view's 2-D arrays, built for every signal of the view
    at once by :func:`_resample`.  Every derived column is computed
    from them on first access and cached (``cached_property``), so a
    rule set that never differences a signal never pays for its
    ``delta``/``rate``/``fresh_age`` columns.
    """

    def __init__(
        self,
        fresh: np.ndarray,
        values: np.ndarray,
        ever_fresh: np.ndarray,
        stamps: np.ndarray,
        held: np.ndarray,
    ) -> None:
        self.fresh = fresh
        self.values = values
        self.ever_fresh = ever_fresh
        # The view's flat update-time cells, and the cell each row of
        # this signal holds from.
        self._stamps = stamps
        self._held = held

    @cached_property
    def update_times(self) -> np.ndarray:
        return self._stamps[self._held]

    @cached_property
    def delta_naive(self) -> np.ndarray:
        values = self.values
        delta_naive = np.zeros(len(values))
        if len(values) > 1:
            with np.errstate(invalid="ignore"):
                delta_naive[1:] = values[1:] - values[:-1]
        return delta_naive

    @cached_property
    def _fresh_rows(self) -> np.ndarray:
        return np.flatnonzero(self.fresh)

    @cached_property
    def _trend(self) -> Tuple[np.ndarray, np.ndarray]:
        """Freshness-aware delta/rate: difference between the two most
        recent fresh values, held between updates."""
        n = len(self.fresh)
        fresh_rows = self._fresh_rows
        delta_fresh = np.zeros(n)
        rate = np.zeros(n)
        if len(fresh_rows) >= 2:
            # A fresh row holds its own (latest) update.
            fresh_vals = self.values[fresh_rows]
            fresh_times = self.update_times[fresh_rows]
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
        n = len(self.fresh)
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

    Construction resamples every selected signal at once, in one binning
    pass over their updates and one hold fill (:func:`_resample`), into
    2-D arrays the view owns, so later changes to the trace do not
    reach it.  ``values``, ``fresh`` and ``ever_fresh`` are then rows of
    those arrays; the other columns are computed from them on first
    access.
    """

    def __init__(
        self,
        trace: Trace,
        period: float,
        signals: Optional[Sequence[str]] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> None:
        self.period = positive_seconds("period", period)
        if trace.is_empty():
            raise TraceError("cannot build a view of an empty trace")
        self.signal_names: Tuple[str, ...] = tuple(signals or trace.signals())
        for signal in self.signal_names:
            if not trace.update_count(signal):
                raise TraceError("trace has no signal %s" % signal)
        t0 = trace.start_time if start is None else float(start)
        t1 = trace.end_time if end is None else float(end)
        if t1 < t0:
            raise TraceError("view end precedes start")
        n_rows = int(math.floor((t1 - t0) / period + 1e-9)) + 1
        self.times = t0 + period * np.arange(n_rows)
        # The grid columns are built now, for every signal in one pass,
        # so the view holds no reference into the trace's columns.
        self._columns: Dict[str, _SignalColumns] = dict(
            zip(
                self.signal_names,
                _resample(
                    [trace._raw_updates(signal) for signal in self.signal_names],
                    n_rows,
                    float(self.times[0]),
                    self.period,
                ),
            )
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
