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

Sending a frame is the testbench's hot path, so each frame does only the
work something consumes:

* **Due list.**  Each message keeps its own next due time, advanced by
  ``due + period`` exactly as a heap of dues would advance it; a step
  sends every due frame in ``(due, CAN id)`` order, a message twice if
  its period is shorter than the step, with one jitter draw per frame.
* **Declared tap targets.**  A tap may declare the live set of message
  names it can rewrite or drop; it sees only their frames.  A tap that
  declares nothing sees every frame.
* **Payload-free delivery.**  Only a frame some tap may rewrite is
  encoded into a payload (and, when a tap did rewrite it, decoded from
  a :class:`~repro.can.frame.CanFrame`).  Every other frame reaches the
  listeners with the values :meth:`repro.can.codec.FrameCodec.deliver`
  gives, which are what a decode of its payload would yield.

Listeners therefore receive a frame's message, timestamp and values,
not a :class:`~repro.can.frame.CanFrame`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    AbstractSet,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import BusError
from repro.can.frame import CanFrame
from repro.can.signal import SignalValue
from repro.errors import non_negative_seconds

#: Provides the publisher's current signal values for one message.
Provider = Callable[[], Mapping[str, SignalValue]]
#: Receives every delivered frame: its message, its timestamp and the
#: values a decode of its payload yields.
Listener = Callable[[MessageDef, float, Dict[str, SignalValue]], None]
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
        self.max_jitter = non_negative_seconds("max_jitter", max_jitter)
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


class _Scheduled:
    """One published message on the due list."""

    __slots__ = ("due", "message", "provider", "deliver")

    def __init__(
        self,
        due: float,
        message: MessageDef,
        provider: Provider,
        deliver: Callable[[Mapping[str, SignalValue]], Dict[str, SignalValue]],
    ) -> None:
        self.due = due
        self.message = message
        self.provider = provider
        self.deliver = deliver


class _AnyTarget:
    """The message names some tap may rewrite: those in any tap's
    declared set, or every name when a tap declared none."""

    __slots__ = ("targets",)

    def __init__(self, targets: Sequence[Optional[AbstractSet[str]]]) -> None:
        self.targets = targets

    def __contains__(self, name: object) -> bool:
        return any(
            targets is None or name in targets for targets in self.targets
        )


_due = itemgetter(0)


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
        self._listeners: List[Listener] = []
        self._taps: List[Tuple[FrameTap, Optional[AbstractSet[str]]]] = []
        #: Holds the name of every message some tap may rewrite.
        self._tapped: AbstractSet[str] = frozenset()
        self._phase_stagger = phase_stagger
        #: The due list, one entry per published message, in CAN id
        #: order (so a stable sort by due breaks ties by id).
        self._schedule: List[_Scheduled] = []
        self._published: Dict[str, _Scheduled] = {}
        self.frames_sent = 0
        self.frames_dropped = 0

    def attach_publisher(self, message_name: str, provider: Provider) -> None:
        """Register the producer of ``message_name`` and schedule it."""
        message = self.database.message_by_name(message_name)
        if message_name in self._published:
            raise BusError("message %s already has a publisher" % message_name)
        # The checks a frame of this message makes, made once: its
        # payload is only built when a tap may rewrite it.
        CanFrame(message.can_id, bytes(message.length))
        entry = _Scheduled(
            (message.can_id % 16) * self._phase_stagger,
            message,
            provider,
            self.database.codec(message_name).deliver,
        )
        self._published[message_name] = entry
        self._schedule.append(entry)
        self._schedule.sort(key=lambda scheduled: scheduled.message.can_id)

    def add_listener(self, listener: Listener) -> None:
        """Attach a passive listener that receives every delivered frame."""
        self._listeners.append(listener)

    def add_frame_tap(
        self, tap: FrameTap, targets: Optional[AbstractSet[str]] = None
    ) -> None:
        """Install a payload transformation hook (fault injection point).

        ``targets``, when given, is the live set of names of the messages
        the tap may rewrite or drop: its owner keeps it current, and the
        tap sees only those messages' frames.  Without it the tap sees
        every frame.
        """
        self._taps.append((tap, targets))
        self._retap()

    def remove_frame_tap(self, tap: FrameTap) -> None:
        """Remove a previously installed tap."""
        for index, (installed, _) in enumerate(self._taps):
            if installed == tap:
                del self._taps[index]
                self._retap()
                return
        raise ValueError("tap is not installed")

    def unpublished_messages(self) -> Tuple[str, ...]:
        """Database messages that nobody publishes (useful for wiring checks)."""
        return tuple(
            message.name
            for message in self.database.messages()
            if message.name not in self._published
        )

    def step(self, now: float) -> int:
        """Transmit every message due at or before ``now``.

        Returns the number of frames delivered during this step.  The
        nominal schedule is unaffected by jitter — jitter only perturbs
        the observed timestamps, exactly the failure mode that makes
        naive multi-rate differencing misbehave.
        """
        limit = now + 1e-12
        due_now: List[Tuple[float, _Scheduled]] = []
        for entry in self._schedule:
            due = entry.due
            if due <= limit:
                period = entry.message.period
                while due <= limit:
                    due_now.append((due, entry))
                    due += period
                entry.due = due
        if len(due_now) > 1:
            due_now.sort(key=_due)
        delay = self.jitter.delay
        tapped = self._tapped
        listeners = self._listeners
        sent = 0
        try:
            for due, entry in due_now:
                message = entry.message
                timestamp = due + delay()
                if message.name in tapped:
                    values = self._rewrite(entry, timestamp)
                    if values is None:
                        continue
                else:
                    values = entry.deliver(entry.provider())
                for listener in listeners:
                    listener(message, timestamp, values)
                sent += 1
        finally:
            self.frames_sent += sent
        return sent

    def run_until(self, end: float, dt: float = 0.01) -> None:
        """Convenience driver: step the bus alone up to ``end`` seconds."""
        t = 0.0
        while t < end:
            t += dt
            self.step(t)

    def _rewrite(
        self, entry: _Scheduled, timestamp: float
    ) -> Optional[Dict[str, SignalValue]]:
        """Encode one frame and pass it through the taps that may rewrite
        it; returns the values to deliver, or ``None`` when a tap
        suppressed the transmission (message loss)."""
        message = entry.message
        provided = entry.provider()
        sent = data = self.database.encode(message.name, provided)
        for tap, targets in self._taps:
            if targets is None or message.name in targets:
                data = tap(message, data, timestamp)
                if data is None:
                    self.frames_dropped += 1
                    return None
        if data is sent:
            return entry.deliver(provided)
        # A tap rewrote the payload: deliver what is on the wire.
        _, values = self.database.decode(CanFrame(message.can_id, data, timestamp))
        return values

    def _retap(self) -> None:
        declared = [targets for _, targets in self._taps]
        if not declared:
            self._tapped = frozenset()
        elif len(declared) == 1 and declared[0] is not None:
            self._tapped = declared[0]
        else:
            self._tapped = _AnyTarget(declared)  # type: ignore[assignment]
