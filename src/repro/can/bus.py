"""Periodic broadcast bus.

Models the part of CAN that a passive monitor actually experiences:
messages appear on the wire at (roughly) fixed periods, each carrying the
publisher's current signal values, and every attached listener sees every
frame.  Arbitration is abstracted into a bounded per-transmission *jitter*
delay, which is the mechanism behind the paper's observation that a slow
message occasionally arrives after five fast-message updates instead of
four (§V-C1).

Frame *taps* are transformation hooks applied to a frame's raw fields
just before delivery; the robustness-testing injection harness installs
itself as a tap, which is how injected and bit-flipped values become
visible to both the system under test and the monitor.

Sending a frame is the testbench's hot path, so each frame does only the
work something consumes:

* **Due list.**  Each message keeps its own next due time, advanced by
  ``due + period`` exactly as a heap of dues would advance it; a step
  sends every due frame in ``(due, CAN id)`` order, a message twice if
  its period is shorter than the step, with one jitter draw per frame.
* **Declared tap targets.**  A tap may declare the live set of message
  names it can rewrite or drop; it sees only their frames.  A tap that
  declares nothing sees every frame.
* **Payload-free delivery.**  No frame is encoded into a payload.
  :meth:`repro.can.codec.FrameCodec.deliver` converts the provided
  values once into the values a decode of the payload would yield and,
  for a frame some tap may rewrite, into its raw fields, a plain
  list.  The taps rewrite those fields in place, and only a rewritten
  list is turned back into values
  (:meth:`repro.can.codec.FrameCodec.values`).  No two fields of a
  message share a payload bit (the database refuses such a layout), so
  rewriting one field never changes another.
* **Compiled delivery.**  A listener is asked once per published
  message for that message's *frame sink*, a callable taking the
  frame's timestamp and values, or ``None`` when it does not listen to
  the message; each message's sinks are compiled into one call.

Listeners therefore receive a frame's timestamp and values, not a
:class:`~repro.can.frame.CanFrame`.
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

from repro.can.codec import FrameCodec
from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import BusError
from repro.can.signal import SignalValue
from repro.errors import non_negative_seconds, positive_seconds

#: Provides the publisher's current signal values for one message.
Provider = Callable[[], Mapping[str, SignalValue]]
#: Receives one message's delivered frames: each frame's timestamp and
#: the values a decode of its payload yields.
FrameSink = Callable[[float, Dict[str, SignalValue]], None]
#: Asked once per published message for that message's frame sink, or
#: ``None`` when it does not listen to the message.
Listener = Callable[[MessageDef], Optional[FrameSink]]
#: Rewrites a frame's raw fields (in the message's signal order) before
#: delivery, e.g. fault injection.  Returns the fields to deliver (the
#: given list, rewritten in place or not), or ``None`` to suppress the
#: transmission entirely (message loss).
FrameTap = Callable[[MessageDef, List[int], float], Optional[List[int]]]


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
    """One published message on the due list, with its compiled
    delivery."""

    __slots__ = (
        "due", "message", "name", "provider", "codec", "deliver", "sinks", "sink"
    )

    def __init__(
        self,
        due: float,
        message: MessageDef,
        provider: Provider,
        codec: FrameCodec,
    ) -> None:
        self.due = due
        self.message = message
        self.name = message.name
        self.provider = provider
        self.codec = codec
        #: ``codec.deliver``, bound once: it runs for every frame.
        self.deliver = codec.deliver
        #: The listeners' sinks for this message, in listener order.
        self.sinks: List[FrameSink] = []
        #: One call delivering a frame to every sink (``None``: no sink).
        self.sink: Optional[FrameSink] = None

    def add_sink(self, sink: Optional[FrameSink]) -> None:
        if sink is not None:
            self.sinks.append(sink)
            self.sink = _fan_out(tuple(self.sinks))


def _fan_out(sinks: Tuple[FrameSink, ...]) -> FrameSink:
    """One call delivering a frame to each of ``sinks`` in turn."""
    if len(sinks) == 1:
        return sinks[0]
    if len(sinks) == 2:
        # The simulator's carriers of FSRACC inputs (the recorder and the
        # input feed), without a loop: this runs for most frames.
        first, second = sinks

        def both(timestamp: float, values: Dict[str, SignalValue]) -> None:
            first(timestamp, values)
            second(timestamp, values)

        return both

    def every(timestamp: float, values: Dict[str, SignalValue]) -> None:
        for sink in sinks:
            sink(timestamp, values)

    return every


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
        self._phase_stagger = non_negative_seconds("phase_stagger", phase_stagger)
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
        entry = _Scheduled(
            (message.can_id % 16) * self._phase_stagger,
            message,
            provider,
            self.database.codec(message_name),
        )
        for listener in self._listeners:
            entry.add_sink(listener(message))
        self._published[message_name] = entry
        self._schedule.append(entry)
        self._schedule.sort(key=lambda scheduled: scheduled.message.can_id)

    def add_listener(self, listener: Listener) -> None:
        """Attach a passive listener: it is asked for its frame sink of
        every published message, now and as publishers attach."""
        self._listeners.append(listener)
        for entry in self._schedule:
            entry.add_sink(listener(entry.message))

    def add_frame_tap(
        self, tap: FrameTap, targets: Optional[AbstractSet[str]] = None
    ) -> None:
        """Install a raw-field transformation hook (fault injection point).

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
        sent = 0
        try:
            for due, entry in due_now:
                timestamp = due + delay()
                if entry.name in tapped:
                    values = self._rewrite(entry, timestamp)
                    if values is None:
                        continue
                else:
                    values = entry.deliver(entry.provider())
                sink = entry.sink
                if sink is not None:
                    sink(timestamp, values)
                sent += 1
        finally:
            self.frames_sent += sent
        return sent

    def run_until(self, end: float, dt: float = 0.01) -> None:
        """Convenience driver: step the bus alone up to ``end`` seconds."""
        end = non_negative_seconds("end", end)
        dt = positive_seconds("dt", dt)
        t = 0.0
        while t < end:
            t += dt
            self.step(t)

    def _rewrite(
        self, entry: _Scheduled, timestamp: float
    ) -> Optional[Dict[str, SignalValue]]:
        """Pass one frame's raw fields through the taps that may rewrite
        it; returns the values to deliver, or ``None`` when a tap
        suppressed the transmission (message loss)."""
        message, codec = entry.message, entry.codec
        raws: Optional[List[int]] = []
        values = entry.deliver(entry.provider(), raws)
        provided = list(raws)
        for tap, targets in self._taps:
            if targets is None or entry.name in targets:
                raws = tap(message, raws, timestamp)
                if raws is None:
                    self.frames_dropped += 1
                    return None
        if raws != provided:
            # A tap rewrote a field: deliver what is on the wire.
            return codec.values(raws)
        return values

    def _retap(self) -> None:
        declared = [targets for _, targets in self._taps]
        if not declared:
            self._tapped = frozenset()
        elif len(declared) == 1 and declared[0] is not None:
            self._tapped = declared[0]
        else:
            self._tapped = _AnyTarget(declared)  # type: ignore[assignment]
