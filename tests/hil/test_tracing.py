"""Trace recorder behaviour."""

import pytest

from repro.can.database import MessageDef
from repro.can.signal import SignalDef, SignalType
from repro.errors import TraceError
from repro.hil.tracing import TraceRecorder


def message(*names, kind=SignalType.FLOAT, name="M"):
    return MessageDef(
        name,
        0x100,
        8,
        0.02,
        tuple(SignalDef(name, 32 * i, 32, kind) for i, name in enumerate(names)),
    )


AB = message("a", "b")


class TestRecording:
    def test_records_every_signal_update(self):
        recorder = TraceRecorder("run")
        recorder.on_frame(AB, 0.02, {"a": 1.0, "b": 2.0})
        recorder.on_frame(AB, 0.04, {"a": 3.0, "b": 4.0})
        assert recorder.trace.updates("a") == [(0.02, 1.0), (0.04, 3.0)]
        assert recorder.trace.updates("b") == [(0.02, 2.0), (0.04, 4.0)]
        assert recorder.trace.update_count() == 4
        assert recorder.trace.name == "run"

    def test_no_allow_list_records_every_signal(self):
        recorder = TraceRecorder("run")
        recorder.on_frame(AB, 0.02, {"a": 1.0, "b": 2.0})
        recorder.on_frame(message("c", name="C"), 0.03, {"c": 5.0})
        assert recorder.trace.signals() == ("a", "b", "c")
        assert recorder.trace.update_count() == 3

    def test_bool_values_recorded_as_floats(self):
        recorder = TraceRecorder()
        flag = MessageDef("F", 0x101, 1, 0.02, (SignalDef("flag", 0, 1, SignalType.BOOL),))
        recorder.on_frame(flag, 0.02, {"flag": True})
        assert recorder.trace.updates("flag") == [(0.02, 1.0)]

    def test_a_message_sink_is_compiled_once(self):
        recorder = TraceRecorder()
        assert recorder.frame_sink(AB) is recorder.frame_sink(AB)

    def test_order_is_checked_per_signal(self):
        recorder = TraceRecorder()
        recorder.on_frame(AB, 0.04, {"a": 1.0, "b": 2.0})
        with pytest.raises(TraceError, match="a: update at t=0.020000"):
            recorder.on_frame(AB, 0.02, {"a": 1.0, "b": 2.0})
