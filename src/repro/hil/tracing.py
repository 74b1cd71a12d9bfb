"""Trace capture — the stand-in for ControlDesk's trace functionality.

A :class:`TraceRecorder` is a passive bus listener that writes every
decoded signal update into a :class:`~repro.logs.trace.Trace`.  Because it
listens *on the bus* (after injection taps), the recorded log contains
exactly what an external bolt-on monitor would have seen.  The bus calls
each message's :meth:`Trace.recorder <repro.logs.trace.Trace.recorder>`
directly: a capture window is a slice of the one trace
(:meth:`ControlDesk.capture <repro.hil.controldesk.ControlDesk.capture>`),
and the frame count is the bus's ``frames_sent``.
"""

from __future__ import annotations

from typing import Dict

from repro.can.bus import FrameSink
from repro.can.database import MessageDef
from repro.can.signal import SignalValue
from repro.logs.trace import Trace


class TraceRecorder:
    """Records every signal of the decoded bus traffic into :attr:`trace`.

    Args:
        name: name given to the captured trace.
    """

    def __init__(self, name: str = "") -> None:
        self.trace = Trace(name)
        #: Each message's sink, by message name.
        self._sinks: Dict[str, FrameSink] = {}

    def frame_sink(self, message: MessageDef) -> FrameSink:
        """The bus listener: ``message``'s frame sink, made once.

        The sink is the trace's recorder of every signal of ``message``;
        it holds the trace, never the recorder, so a finished simulator
        is freed by reference counting alone.
        """
        sink = self._sinks.get(message.name)
        if sink is None:
            sink = self._sinks[message.name] = self.trace.recorder(
                [signal.name for signal in message.signals]
            )
        return sink

    def on_frame(
        self,
        message: MessageDef,
        timestamp: float,
        values: Dict[str, SignalValue],
    ) -> None:
        """Record one frame: ``values`` holds every signal of
        ``message``.  The bus calls :meth:`frame_sink`'s sink instead."""
        self.frame_sink(message)(timestamp, values)
