"""Trace recorder behaviour."""

import pytest

from repro.can.database import MessageDef
from repro.can.signal import SignalDef, SignalType
from repro.errors import TraceError
from repro.hil.tracing import TraceRecorder


def message(*names, kind=SignalType.FLOAT):
    return MessageDef(
        "M",
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
        assert recorder.frames_seen == 2

    def test_filter_limits_recorded_signals(self):
        recorder = TraceRecorder("run", signals=["a"])
        recorder.on_frame(AB, 0.02, {"a": 1.0, "b": 2.0})
        assert "a" in recorder.trace
        assert "b" not in recorder.trace

    def test_bool_values_recorded_as_floats(self):
        recorder = TraceRecorder()
        flag = MessageDef("F", 0x101, 1, 0.02, (SignalDef("flag", 0, 1, SignalType.BOOL),))
        recorder.on_frame(flag, 0.02, {"flag": True})
        assert recorder.trace.updates("flag") == [(0.02, 1.0)]

    def test_restart_returns_previous_capture(self):
        recorder = TraceRecorder("first")
        recorder.on_frame(message("a"), 0.02, {"a": 1.0})
        captured = recorder.restart("second")
        assert captured.update_count() == 1
        assert recorder.trace.is_empty()
        assert recorder.trace.name == "second"
        assert recorder.frames_seen == 0

    def test_restart_records_the_next_frame_into_the_fresh_trace(self):
        recorder = TraceRecorder("first")
        recorder.on_frame(AB, 0.02, {"a": 1.0, "b": 2.0})
        captured = recorder.restart()
        # An earlier stamp is in order for the fresh capture.
        recorder.on_frame(AB, 0.01, {"a": 5.0, "b": 6.0})
        assert captured.updates("a") == [(0.02, 1.0)]
        assert recorder.trace.updates("a") == [(0.01, 5.0)]
        assert recorder.trace.name == "first"

    def test_order_is_checked_per_signal(self):
        recorder = TraceRecorder()
        recorder.on_frame(AB, 0.04, {"a": 1.0, "b": 2.0})
        with pytest.raises(TraceError, match="a: update at t=0.020000"):
            recorder.on_frame(AB, 0.02, {"a": 1.0, "b": 2.0})
