"""Shared helpers for building small, hand-authored traces in tests,
plus five oracles: the O(n·w) window kernel, the per-frame CAN bus with
its payload taps, the per-line drive-log reader, the per-signal view
resample and per-event online and fleet ingest."""

from __future__ import annotations

import heapq
import math
import struct
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, TextIO, Tuple
from unittest import mock

import numpy as np

from repro.can.codec import (
    decode_signal,
    encode_signal,
    extract_raw,
    flip_bits,
    insert_raw,
)
from repro.can.database import CanDatabase, MessageDef
from repro.can.frame import CanFrame
from repro.can.signal import ByteOrder, SignalDef, SignalType, SignalValue
from repro.core import windows
from repro.core.online import OnlineMonitor
from repro.core.violations import Violation
from repro.errors import TraceError
from repro.fleet.service import FleetReport, FleetService
from repro.fleet.shard import StreamShard
from repro.hil import simulator
from repro.hil.injection import InjectionMode
from repro.logs.format import PathOrFile, _read_header
from repro.logs.trace import Trace, TraceView, non_finite_time
from repro.obs import get_registry, use_registry

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


# ----------------------------------------------------------------------
# The per-frame bus oracle
# ----------------------------------------------------------------------


def per_signal_encode(
    message: MessageDef, values: Mapping[str, SignalValue]
) -> bytes:
    """Encode a payload one :func:`encode_signal` call per signal: the
    oracle for :meth:`repro.can.codec.FrameCodec.encode`."""
    data = bytes(message.length)
    for signal in message.signals:
        value = values.get(signal.name, signal.default_value())
        data = encode_signal(data, signal, value)
    return data


def per_signal_decode(message: MessageDef, data: bytes) -> Dict[str, SignalValue]:
    """Decode a payload one :func:`decode_signal` call per signal: the
    oracle for :meth:`repro.can.codec.FrameCodec.decode`."""
    return {signal.name: decode_signal(data, signal) for signal in message.signals}


class ScalarJitter:
    """The jitter model drawing one ``uniform(0, max_jitter)`` per delay:
    the oracle for :class:`repro.can.bus.JitterModel`."""

    def __init__(self, max_jitter: float = 0.0, seed: int = 0) -> None:
        self.max_jitter = max_jitter
        self._rng = np.random.default_rng(seed)

    def delay(self) -> float:
        if self.max_jitter == 0.0:
            return 0.0
        return float(self._rng.uniform(0.0, self.max_jitter))


BIG = ByteOrder.BIG_ENDIAN


def synthetic_database():
    """Big-endian, mixed-order and unaligned layouts the FSRACC lacks."""
    return CanDatabase(
        [
            MessageDef(
                "AllBig", 0x100, 8, 0.02,
                (
                    SignalDef("big_f", 0, 32, SignalType.FLOAT, byte_order=BIG),
                    SignalDef("big_e", 32, 12, SignalType.ENUM, byte_order=BIG),
                    SignalDef("big_b", 44, 1, SignalType.BOOL, byte_order=BIG),
                    SignalDef("big_e3", 45, 3, SignalType.ENUM, byte_order=BIG),
                ),
            ),
            MessageDef(
                # Both byte orders, in separate bytes.
                "Split", 0x104, 8, 0.02,
                (
                    SignalDef("split_f", 0, 32, SignalType.FLOAT),
                    SignalDef("split_e", 32, 12, SignalType.ENUM, byte_order=BIG),
                    SignalDef("split_b", 44, 1, SignalType.BOOL, byte_order=BIG),
                    SignalDef("split_tail", 48, 16, SignalType.ENUM),
                ),
            ),
            MessageDef(
                # Both byte orders sharing payload bits (see SharedByte).
                "Mixed", 0x101, 8, 0.02,
                (
                    SignalDef("le_f", 3, 32, SignalType.FLOAT),
                    SignalDef("be_f", 35, 32 - 3, SignalType.ENUM, byte_order=BIG),
                ),
            ),
            MessageDef(
                # The nominal spans [0, 4) and [4, 8) are disjoint, but
                # the two byte orders map start bits to payload bits
                # differently: both fields own the low nibble of byte 0.
                "SharedByte", 0x102, 2, 0.02,
                (
                    SignalDef("lo", 0, 4, SignalType.ENUM),
                    SignalDef("hi", 4, 4, SignalType.ENUM, byte_order=BIG),
                    SignalDef("flag", 8, 1, SignalType.BOOL, byte_order=BIG),
                    SignalDef("tail", 9, 7, SignalType.ENUM),
                ),
            ),
            MessageDef(
                # Shorter than a full frame; s_be and s_le share two bits.
                "Short", 0x103, 4, 0.02,
                (
                    SignalDef("s_be", 0, 10, SignalType.ENUM, byte_order=BIG),
                    SignalDef("s_le", 10, 6, SignalType.ENUM),
                    SignalDef("s_b", 16, 1, SignalType.BOOL),
                ),
            ),
        ]
    )


def same(a, b):
    """Bit-for-bit equality of two decoded signal values."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def assert_same_values(got, want):
    assert list(got) == list(want)
    for name in want:
        assert same(got[name], want[name]), (name, got[name], want[name])


def tap_frame(
    database: CanDatabase,
    tap: Callable,
    message: MessageDef,
    values: Mapping[str, SignalValue],
) -> Optional[Dict[str, SignalValue]]:
    """Pass one frame of ``message`` carrying ``values`` through a raw
    field ``tap``, as the bus does: the values delivered, or ``None``
    when the tap dropped the frame."""
    codec = database.codec(message.name)
    raws = codec.fields()
    codec.deliver(values, raws)
    rewritten = tap(message, raws, 0.0)
    return None if rewritten is None else codec.values(rewritten)


class PayloadFields:
    """A payload seen as its list of raw fields: reading field ``i``
    extracts it, writing it inserts it, one :func:`extract_raw` or
    :func:`insert_raw` call per access.  The oracle for the raw-field
    list a :data:`repro.can.bus.FrameTap` rewrites."""

    def __init__(self, message: MessageDef, data: bytes) -> None:
        self.signals = message.signals
        self.data = data

    def __len__(self) -> int:
        return len(self.signals)

    def __getitem__(self, index: int) -> int:
        return extract_raw(self.data, self.signals[index])

    def __setitem__(self, index: int, raw: int) -> None:
        self.data = insert_raw(self.data, self.signals[index], raw)


def payload_tap(raw_tap: Callable) -> Callable:
    """The payload tap that runs ``raw_tap`` on a payload's
    :class:`PayloadFields`: the oracle of a raw-field tap."""

    def tap(message: MessageDef, data: bytes, timestamp: float) -> Optional[bytes]:
        fields = PayloadFields(message, data)
        if raw_tap(message, fields, timestamp) is None:
            return None
        return fields.data

    return tap


class PayloadInjectionHarness(simulator.InjectionHarness):
    """The harness whose tap rewrites encoded payloads, one
    :func:`insert_raw` per overridden signal: the oracle for
    :meth:`repro.hil.injection.InjectionHarness.tap`, run by
    :class:`PerFrameBus`."""

    def tap(  # type: ignore[override]
        self, message: MessageDef, data: bytes, timestamp: float
    ) -> Optional[bytes]:
        if not self._active:
            return data
        for signal in message.signals:
            injection = self._active.get(signal.name)
            if injection is None:
                continue
            if injection.mode is InjectionMode.SILENCE:
                return None
            if injection.mode is InjectionMode.VALUE:
                data = encode_signal(data, signal, injection.value)
            elif injection.mode is InjectionMode.STICK:
                if injection.stuck_raw is None:
                    injection.stuck_raw = extract_raw(data, signal)
                data = insert_raw(data, signal, injection.stuck_raw)
            else:
                flipped = flip_bits(data, signal, injection.bit_offsets)
                if self.checker.check(signal, decode_signal(flipped, signal)).accepted:
                    data = flipped
        return data


class PerFrameBus:
    """The bus that looked up, encoded and decoded every frame one
    signal at a time, passing each payload through payload taps and
    asking every listener for its sink per frame: the oracle for
    :class:`repro.can.bus.CanBus`."""

    def __init__(
        self,
        database: CanDatabase,
        jitter: ScalarJitter,
        phase_stagger: float = 0.0005,
    ) -> None:
        self.database = database
        self.jitter = jitter
        self._providers: Dict[str, Callable[[], Mapping[str, SignalValue]]] = {}
        self._listeners: List[Callable] = []
        self._taps: List[Callable] = []
        self._phase_stagger = phase_stagger
        self._schedule: List[Tuple[float, int, str]] = []
        self.frames_sent = 0
        self.frames_dropped = 0

    def attach_publisher(self, message_name: str, provider) -> None:
        message = self.database.message_by_name(message_name)
        self._providers[message_name] = provider
        phase = (message.can_id % 16) * self._phase_stagger
        heapq.heappush(self._schedule, (phase, message.can_id, message_name))

    def add_listener(self, listener) -> None:
        self._listeners.append(listener)

    def add_frame_tap(self, tap, targets=None) -> None:
        """Install a payload tap; every tap sees every frame, whatever
        it declares."""
        self._taps.append(tap)

    def step(self, now: float) -> List[CanFrame]:
        delivered: List[CanFrame] = []
        while self._schedule and self._schedule[0][0] <= now + 1e-12:
            due, can_id, name = heapq.heappop(self._schedule)
            message = self.database.message_by_name(name)
            frame = self._transmit(message, due)
            if frame is not None:
                delivered.append(frame)
            heapq.heappush(
                self._schedule, (due + message.period, can_id, name)
            )
        return delivered

    def _transmit(self, message: MessageDef, due: float) -> Optional[CanFrame]:
        provider = self._providers[message.name]
        timestamp = due + self.jitter.delay()
        data = per_signal_encode(message, provider())
        for tap in self._taps:
            data = tap(message, data, timestamp)
            if data is None:
                self.frames_dropped += 1
                return None
        frame = CanFrame(message.can_id, data, timestamp)
        values = per_signal_decode(message, frame.data)
        for listener in self._listeners:
            sink = listener(message)
            if sink is not None:
                sink(frame.timestamp, values)
        self.frames_sent += 1
        return frame


class PerSignalRecorder:
    """The trace recorder appending one :meth:`Trace.record` per signal:
    the oracle for :class:`repro.hil.tracing.TraceRecorder`."""

    def __init__(self, name: str = "") -> None:
        self.trace = Trace(name)

    def frame_sink(self, message: MessageDef) -> Callable:
        def sink(timestamp: float, values: Mapping[str, SignalValue]) -> None:
            for signal, value in values.items():
                self.trace.record(signal, timestamp, float(value))

        return sink


@contextmanager
def per_frame_bus() -> Iterator[None]:
    """Build every :class:`~repro.hil.simulator.HilSimulator` inside a
    ``with`` block on the per-frame bus oracle, with the payload
    injection tap, by patching the classes its constructor names."""
    with mock.patch.object(simulator, "CanBus", PerFrameBus), mock.patch.object(
        simulator, "JitterModel", ScalarJitter
    ), mock.patch.object(simulator, "TraceRecorder", PerSignalRecorder), mock.patch.object(
        simulator, "InjectionHarness", PayloadInjectionHarness
    ):
        yield


# ----------------------------------------------------------------------
# The per-line drive-log reader oracle
# ----------------------------------------------------------------------


def loop_read_trace(source: PathOrFile) -> Trace:
    """Read a CSV trace one line and one :meth:`Trace.record` at a time:
    the oracle for :func:`repro.logs.format.read_trace`."""
    if hasattr(source, "read"):
        return _loop_read(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as handle:
        return _loop_read(handle)


def _loop_read(handle: TextIO) -> Trace:
    trace = _read_header(handle)
    for line_number, line in enumerate(handle, start=3):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceError(
                "line %d: expected 3 fields, got %d" % (line_number, len(parts))
            )
        try:
            timestamp = float(parts[0])
            value = float(parts[2])
        except ValueError as exc:
            raise TraceError("line %d: %s" % (line_number, exc)) from None
        if not math.isfinite(timestamp):
            raise TraceError(
                "line %d: non-finite timestamp %r" % (line_number, timestamp)
            )
        trace.record(parts[1], timestamp, value)
    return trace


# ----------------------------------------------------------------------
# The per-signal view resample oracle
# ----------------------------------------------------------------------

#: Every column a :class:`TraceView` exposes per signal.
VIEW_COLUMNS = (
    "values",
    "fresh",
    "ever_fresh",
    "update_times",
    "delta_fresh",
    "delta_naive",
    "rate",
    "fresh_age",
)


def loop_view_columns(trace, view: TraceView) -> Dict[str, Dict[str, np.ndarray]]:
    """Resample each of ``view``'s signals from ``trace`` one signal at a
    time, on ``view``'s grid: the oracle for the one-pass resample behind
    :meth:`Trace.to_view`.  Returns ``{signal: {column: array}}`` over
    :data:`VIEW_COLUMNS`."""
    columns: Dict[str, Dict[str, np.ndarray]] = {}
    for signal in view.signal_names:
        times, values = trace.update_arrays(signal)
        resampled = PerSignalColumns(
            view.n_rows, view.start_time, view.period, times, values
        )
        columns[signal] = {name: getattr(resampled, name) for name in VIEW_COLUMNS}
    return columns


class PerSignalColumns:
    """One signal's view columns, each from its own numpy pass over the
    signal's raw updates."""

    def __init__(
        self, n: int, t0: float, period: float, times: np.ndarray, vals: np.ndarray
    ) -> None:
        # Row at which each update becomes visible: the first grid time
        # at or after the update timestamp.
        bins = np.ceil((times - t0) / period - 1e-9).astype(int)
        bins = np.clip(bins, 0, None)
        keep = bins < n
        bins, times, vals = bins[keep], times[keep], vals[keep]
        fresh = np.zeros(n, dtype=bool)
        val_at = np.zeros(n)
        time_at = np.zeros(n)
        if len(bins):
            fresh[bins] = True
            # Later updates overwrite earlier ones in the same bin.
            val_at[bins] = vals
            time_at[bins] = times
        first_value = vals[0] if len(vals) else 0.0
        first_time = times[0] if len(times) else t0

        position = np.where(fresh, np.arange(n), -1)
        filled = np.maximum.accumulate(position)
        ever_fresh = filled >= 0
        safe = np.maximum(filled, 0)
        self.fresh = fresh
        self.ever_fresh = ever_fresh
        self.values = np.where(ever_fresh, val_at[safe], first_value)
        self.update_times = np.where(ever_fresh, time_at[safe], first_time)

        self.delta_naive = np.zeros(n)
        if n > 1:
            with np.errstate(invalid="ignore"):
                self.delta_naive[1:] = self.values[1:] - self.values[:-1]

        # Freshness-aware delta/rate: difference between the two most
        # recent fresh values, held between updates.
        fresh_rows = np.flatnonzero(fresh)
        self.delta_fresh = np.zeros(n)
        self.rate = np.zeros(n)
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
                step_rate[1:] = np.where(dt > 0, dv / np.where(dt > 0, dt, 1.0), 0.0)
            order = np.searchsorted(fresh_rows, np.arange(n), side="right") - 1
            valid = order >= 0
            safe_order = np.maximum(order, 0)
            self.delta_fresh = np.where(valid, step_delta[safe_order], 0.0)
            self.rate = np.where(valid, step_rate[safe_order], 0.0)

        self.fresh_age = np.arange(n)
        if len(fresh_rows):
            order = np.searchsorted(fresh_rows, np.arange(n), side="right") - 1
            valid = order >= 0
            safe_order = np.maximum(order, 0)
            self.fresh_age = np.where(
                valid, np.arange(n) - fresh_rows[safe_order], np.arange(n)
            )


# ----------------------------------------------------------------------
# The per-event online and fleet ingest oracles
# ----------------------------------------------------------------------


def loop_feed(
    monitor: OnlineMonitor, timestamp: float, signal: str, value: float
) -> List[Violation]:
    """Feed one event through one :meth:`Trace.record`, emitting a
    chunk after every event that makes ``min_chunk_rows`` new rows
    decidable: the oracle for :meth:`OnlineMonitor.feed_block`."""
    if monitor._finished:
        raise TraceError("monitor already finished")
    if not math.isfinite(timestamp):
        raise non_finite_time(signal, timestamp)
    if monitor._start_time is None:
        monitor._start_time = timestamp
    if timestamp > monitor._latest:
        monitor._latest = timestamp
    if signal not in monitor._codes:
        return []
    if timestamp < monitor._buffer.frontier:
        monitor.late_events += 1
        get_registry().counter("online.late_events").inc()
        return []
    monitor._buffer.record(signal, timestamp, value)
    decidable = monitor._decidable_row()
    if decidable - monitor._next_emit_row >= monitor.min_chunk_rows:
        return monitor._emit(decidable)
    return []


def loop_feed_trace(monitor: OnlineMonitor, trace: Trace) -> List[Violation]:
    """:func:`loop_feed` over a trace's :meth:`Trace.events`."""
    fresh: List[Violation] = []
    for timestamp, signal, value in trace.events():
        fresh.extend(loop_feed(monitor, timestamp, signal, value))
    return fresh


def loop_feed_batch(
    shard: StreamShard,
    times: Sequence[float],
    signals: Sequence[str],
    values: Sequence[float],
) -> List[Violation]:
    """:meth:`StreamShard.feed_batch` through :func:`loop_feed`."""
    fresh: List[Violation] = []
    with use_registry(shard.registry):
        for timestamp, signal, value in zip(times, signals, values):
            fresh.extend(loop_feed(shard.monitor, timestamp, signal, value))
    shard.events += len(times)
    shard.live_violations.extend(fresh)
    return fresh


#: One fleet event: (timestamp, stream id, signal, value).
FleetEvent = Tuple[float, str, str, float]


def _stream_feed(stream_id: str, trace: Trace) -> Iterator[FleetEvent]:
    for timestamp, signal, value in trace.events():
        yield (timestamp, stream_id, signal, value)


def interleave(assignments: Sequence[Tuple[str, Trace]]) -> Iterator[FleetEvent]:
    """Merge the streams' events into one time-ordered feed."""
    feeds = [_stream_feed(stream_id, trace) for stream_id, trace in assignments]
    return heapq.merge(*feeds, key=lambda event: event[0])


async def loop_replay_async(
    assignments: Sequence[Tuple[str, Trace]], rules, **kwargs
) -> FleetReport:
    """Submit the :func:`interleave` feed one event at a time, each
    shard feeding through :func:`loop_feed`: the oracle for
    :func:`repro.fleet.replay.replay_traces_async`."""
    service = FleetService(rules, **kwargs)
    with mock.patch.object(StreamShard, "feed_batch", loop_feed_batch):
        for timestamp, stream_id, signal, value in interleave(assignments):
            await service.submit(stream_id, timestamp, signal, value)
        return await service.close()
