"""Trace capture — the stand-in for ControlDesk's trace functionality.

A :class:`TraceRecorder` is a passive bus listener that writes every
decoded signal update into a :class:`~repro.logs.trace.Trace`.  Because it
listens *on the bus* (after injection taps), the recorded log contains
exactly what an external bolt-on monitor would have seen.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.can.bus import FrameSink
from repro.can.database import MessageDef
from repro.can.signal import SignalValue
from repro.logs.trace import Trace

#: Records one frame's values of some signals into the current trace
#: (a :meth:`Trace.recorder <repro.logs.trace.Trace.recorder>`).
_Record = Callable[[float, Mapping[str, float]], None]


class TraceRecorder:
    """Records decoded bus traffic into a trace.

    Each message's signals are recorded through one
    :meth:`Trace.recorder <repro.logs.trace.Trace.recorder>`, compiled
    into the message's frame sink (:meth:`frame_sink`), which is what
    the bus calls; :meth:`restart` recompiles every sink's recorder for
    the fresh trace.

    Args:
        name: name given to the captured trace.
        signals: optional allow-list; when given, only these signals are
            recorded (like selecting measurement variables in
            ControlDesk), so an empty list records nothing.  ``None``
            records every signal.
    """

    def __init__(
        self, name: str = "", signals: Optional[Iterable[str]] = None
    ) -> None:
        self.trace = Trace(name)
        self._filter: Optional[FrozenSet[str]] = (
            None if signals is None else frozenset(signals)
        )
        #: Each message's sink, by message name.
        self._sinks: Dict[str, FrameSink] = {}
        #: Per sink: the signals it records and the one-item cell
        #: holding their recorder into the current trace.
        self._recorders: List[Tuple[List[str], List[_Record]]] = []
        #: The frame count, in a cell the sinks share: a sink holding
        #: the recorder itself would make a reference cycle.
        self._seen = [0]

    def frame_sink(self, message: MessageDef) -> FrameSink:
        """The bus listener: ``message``'s frame sink, compiled once.

        The sink takes a frame's timestamp and values (every signal of
        ``message``), counts the frame in :attr:`frames_seen` and records
        the allowed signals into the current trace.
        """
        compiled = self._sinks.get(message.name)
        if compiled is not None:
            return compiled
        names = [signal.name for signal in message.signals]
        if self._filter is not None:
            names = [name for name in names if name in self._filter]
        cell: List[_Record] = [self.trace.recorder(names)]
        self._recorders.append((names, cell))
        seen = self._seen

        def sink(timestamp: float, values: Dict[str, SignalValue]) -> None:
            seen[0] += 1
            cell[0](timestamp, values)

        self._sinks[message.name] = sink
        return sink

    @property
    def frames_seen(self) -> int:
        """Frames recorded since construction or the last restart."""
        return self._seen[0]

    def on_frame(
        self,
        message: MessageDef,
        timestamp: float,
        values: Dict[str, SignalValue],
    ) -> None:
        """Record one frame: ``values`` holds every signal of
        ``message``.  The bus calls :meth:`frame_sink`'s sink instead."""
        self.frame_sink(message)(timestamp, values)

    def restart(self, name: str = "") -> Trace:
        """Close out the current capture and begin a fresh one.

        Returns the trace captured so far.
        """
        captured = self.trace
        self.trace = Trace(name or captured.name)
        for names, cell in self._recorders:
            cell[0] = self.trace.recorder(names)
        self._seen[0] = 0
        return captured
