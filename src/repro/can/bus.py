"""Periodic broadcast bus.

Models the part of CAN that a passive monitor actually experiences:
messages appear on the wire at (roughly) fixed periods, each carrying the
publisher's current signal values, and every attached listener sees every
frame.  Arbitration is abstracted into a bounded per-transmission *jitter*
delay, which is the mechanism behind the paper's observation that a slow
message occasionally arrives after five fast-message updates instead of
four (§V-C1).

Frame *taps* are transformation hooks applied to the encoded payload just
before delivery; the robustness-testing injection harness installs itself
as a tap, which is how injected and bit-flipped values become visible to
both the system under test and the monitor.

Sending a frame is the testbench's hot path, so the per-message work is
resolved once: each scheduled entry carries its message and provider,
the database codes whole frames with a compiled per-message codec, and
a frame no tap rewrote is delivered with the values its encode already
knows, without being decoded again.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import BusError
from repro.can.frame import CanFrame
from repro.can.signal import SignalValue

#: Provides the publisher's current signal values for one message.
Provider = Callable[[], Mapping[str, SignalValue]]
#: Receives every frame on the bus, already decoded.
Listener = Callable[[CanFrame, str, Dict[str, SignalValue]], None]
#: Transforms an encoded payload before delivery (e.g. fault injection).
#: Returning ``None`` suppresses the transmission entirely (message loss).
FrameTap = Callable[[MessageDef, bytes, float], Optional[bytes]]


#: Unit draws taken from the jitter generator at a time.
JITTER_BLOCK = 1024


class JitterModel:
    """Uniform random transmission delay in ``[0, max_jitter]`` seconds.

    Unit draws are taken from the generator in blocks and scaled by
    ``max_jitter`` when used, which gives the same sequence as one
    ``uniform(0, max_jitter)`` draw per delay, also when ``max_jitter``
    changes between delays.
    """

    def __init__(self, max_jitter: float = 0.0, seed: int = 0) -> None:
        if max_jitter < 0:
            raise BusError("max_jitter must be non-negative")
        self.max_jitter = max_jitter
        self._rng = np.random.default_rng(seed)
        self._units: Iterator[float] = iter(())

    def delay(self) -> float:
        """Sample one transmission delay."""
        if self.max_jitter == 0.0:
            return 0.0
        unit = next(self._units, None)
        if unit is None:
            self._units = iter(self._rng.random(JITTER_BLOCK).tolist())
            unit = next(self._units)
        return self.max_jitter * unit


class CanBus:
    """A broadcast bus scheduling the periodic messages of a database.

    Publishers register a provider callable per message name.  Each call to
    :meth:`step` transmits every message whose nominal due time has been
    reached, stamping frames with ``due + jitter``.  Message phases are
    staggered deterministically by CAN id so that not all messages land on
    the same instant.
    """

    def __init__(
        self,
        database: CanDatabase,
        jitter: Optional[JitterModel] = None,
        phase_stagger: float = 0.0005,
    ) -> None:
        self.database = database
        self.jitter = jitter or JitterModel(0.0)
        self._providers: Dict[str, Provider] = {}
        self._listeners: List[Listener] = []
        self._taps: List[FrameTap] = []
        self._phase_stagger = phase_stagger
        # Min-heap of (due_time, can_id, (message, provider)); CAN ids
        # are unique, so the heap never compares the third item.
        self._schedule: List[Tuple[float, int, Tuple[MessageDef, Provider]]] = []
        self.frames_sent = 0
        self.frames_dropped = 0

    def attach_publisher(self, message_name: str, provider: Provider) -> None:
        """Register the producer of ``message_name`` and schedule it."""
        message = self.database.message_by_name(message_name)
        if message_name in self._providers:
            raise BusError("message %s already has a publisher" % message_name)
        self._providers[message_name] = provider
        phase = (message.can_id % 16) * self._phase_stagger
        heapq.heappush(
            self._schedule, (phase, message.can_id, (message, provider))
        )

    def add_listener(self, listener: Listener) -> None:
        """Attach a passive listener that receives every decoded frame."""
        self._listeners.append(listener)

    def add_frame_tap(self, tap: FrameTap) -> None:
        """Install a payload transformation hook (fault injection point)."""
        self._taps.append(tap)

    def remove_frame_tap(self, tap: FrameTap) -> None:
        """Remove a previously installed tap."""
        self._taps.remove(tap)

    def unpublished_messages(self) -> Tuple[str, ...]:
        """Database messages that nobody publishes (useful for wiring checks)."""
        return tuple(
            message.name
            for message in self.database.messages()
            if message.name not in self._providers
        )

    def step(self, now: float) -> List[CanFrame]:
        """Transmit every message due at or before ``now``.

        Returns the frames delivered during this step, in transmission
        order.  The nominal schedule is unaffected by jitter — jitter only
        perturbs the observed timestamps, exactly the failure mode that
        makes naive multi-rate differencing misbehave.
        """
        delivered: List[CanFrame] = []
        schedule = self._schedule
        while schedule and schedule[0][0] <= now + 1e-12:
            due, can_id, entry = heapq.heappop(schedule)
            frame = self._transmit(entry, due)
            if frame is not None:
                delivered.append(frame)
            heapq.heappush(schedule, (due + entry[0].period, can_id, entry))
        return delivered

    def run_until(self, end: float, dt: float = 0.01) -> None:
        """Convenience driver: step the bus alone up to ``end`` seconds."""
        t = 0.0
        while t < end:
            t += dt
            self.step(t)

    def _transmit(
        self, entry: Tuple[MessageDef, Provider], due: float
    ) -> Optional[CanFrame]:
        message, provider = entry
        timestamp = due + self.jitter.delay()
        values: Dict[str, SignalValue] = {}
        sent = data = self.database.encode(message.name, provider(), values)
        for tap in self._taps:
            data = tap(message, data, timestamp)
            if data is None:
                # A tap suppressed the transmission (message loss).
                self.frames_dropped += 1
                return None
        frame = CanFrame(message.can_id, data, timestamp)
        if data is not sent:
            # A tap rewrote the payload: deliver what is on the wire.
            _, values = self.database.decode(frame)
        for listener in self._listeners:
            listener(frame, message.name, values)
        self.frames_sent += 1
        return frame
