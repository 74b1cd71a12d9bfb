"""Trace capture — the stand-in for ControlDesk's trace functionality.

A :class:`TraceRecorder` is a passive bus listener that writes every
decoded signal update into a :class:`~repro.logs.trace.Trace`.  Because it
listens *on the bus* (after injection taps), the recorded log contains
exactly what an external bolt-on monitor would have seen.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional, Set

from repro.can.database import MessageDef
from repro.can.signal import SignalValue
from repro.logs.trace import Trace


class TraceRecorder:
    """Records decoded bus traffic into a trace.

    Each message's signals are recorded through one
    :meth:`Trace.recorder <repro.logs.trace.Trace.recorder>`, compiled
    when the message is first seen.

    Args:
        name: name given to the captured trace.
        signals: optional allow-list; when given, only these signals are
            recorded (like selecting measurement variables in ControlDesk).
    """

    def __init__(
        self, name: str = "", signals: Optional[Iterable[str]] = None
    ) -> None:
        self.trace = Trace(name)
        self._filter: Optional[Set[str]] = set(signals) if signals else None
        self._records: Dict[str, Callable[[float, Mapping[str, SignalValue]], None]] = {}
        self.frames_seen = 0

    def on_frame(
        self,
        message: MessageDef,
        timestamp: float,
        values: Dict[str, SignalValue],
    ) -> None:
        """Bus listener callback: ``values`` holds every signal of
        ``message``."""
        self.frames_seen += 1
        record = self._records.get(message.name)
        if record is None:
            names = [signal.name for signal in message.signals]
            if self._filter is not None:
                names = [name for name in names if name in self._filter]
            record = self._records[message.name] = self.trace.recorder(names)
        record(timestamp, values)

    def restart(self, name: str = "") -> Trace:
        """Close out the current capture and begin a fresh one.

        Returns the trace captured so far.
        """
        captured = self.trace
        self.trace = Trace(name or captured.name)
        self._records = {}
        self.frames_seen = 0
        return captured
