"""On-disk trace format round trips."""

import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import uniform_trace
from repro.errors import TraceError
from repro.obs import MetricsRegistry, use_registry
from repro.logs.format import (
    read_trace,
    trace_from_string,
    trace_to_string,
    write_trace,
)
from repro.logs.trace import Trace


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        trace = uniform_trace({"Velocity": [1.5, 2.5], "Flag": [0, 1]}, name="run")
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.name == "run"
        assert list(back.events()) == list(trace.events())

    def test_file_object_round_trip(self):
        trace = uniform_trace({"a": [1.0]})
        buffer = io.StringIO()
        write_trace(trace, buffer)
        buffer.seek(0)
        assert list(read_trace(buffer).events()) == list(trace.events())

    def test_exceptional_values_round_trip(self):
        trace = Trace("exceptional")
        trace.record("x", 0.0, float("nan"))
        trace.record("x", 0.1, float("inf"))
        trace.record("x", 0.2, float("-inf"))
        back = trace_from_string(trace_to_string(trace))
        values = [v for _, v in back.updates("x")]
        assert math.isnan(values[0])
        assert values[1] == float("inf")
        assert values[2] == float("-inf")

    def test_unnamed_trace_round_trips(self):
        trace = Trace()
        trace.record("a", 0.0, 1.0)
        back = trace_from_string(trace_to_string(trace))
        assert back.name == ""

    @given(
        values=st.lists(
            st.floats(allow_nan=False, width=32), min_size=1, max_size=20
        )
    )
    @settings(max_examples=40)
    def test_arbitrary_floats_round_trip(self, values):
        trace = uniform_trace({"sig": values})
        back = trace_from_string(trace_to_string(trace))
        original = [v for _, v in trace.updates("sig")]
        restored = [v for _, v in back.updates("sig")]
        assert restored == original


class TestErrors:
    def test_bad_header_rejected(self):
        with pytest.raises(TraceError):
            trace_from_string("not a trace\ntime,signal,value\n")

    def test_bad_columns_rejected(self):
        with pytest.raises(TraceError):
            trace_from_string("# repro-trace v1\nwrong,columns\n")

    def test_malformed_line_rejected(self):
        text = "# repro-trace v1\ntime,signal,value\n1.0,a\n"
        with pytest.raises(TraceError) as excinfo:
            trace_from_string(text)
        assert "line 3" in str(excinfo.value)

    def test_non_numeric_value_rejected(self):
        text = "# repro-trace v1\ntime,signal,value\n1.0,a,fast\n"
        with pytest.raises(TraceError):
            trace_from_string(text)

    def test_comments_and_blank_lines_skipped(self):
        text = (
            "# repro-trace v1 name=x\n"
            "time,signal,value\n"
            "\n"
            "# a comment\n"
            "1.0,a,2.0\n"
        )
        trace = trace_from_string(text)
        assert trace.updates("a") == [(1.0, 2.0)]


HEADER = "# repro-trace v1\ntime,signal,value\n"


def read_error(text):
    with pytest.raises(TraceError) as excinfo:
        trace_from_string(text)
    return str(excinfo.value)


class TestErrorContract:
    """The full text of every reader error, and which error wins when a
    file has several: the first in file order."""

    def test_bad_header(self):
        assert read_error("not a trace\ntime,signal,value\n") == (
            "not a repro trace file (bad header: 'not a trace')"
        )

    def test_bad_columns(self):
        assert read_error("# repro-trace v1\nwrong,columns\n") == (
            "unexpected column header: 'wrong,columns'"
        )

    def test_field_count(self):
        assert read_error(HEADER + "0.0,a,1.0\n1.0,a\n") == (
            "line 4: expected 3 fields, got 2"
        )
        assert read_error(HEADER + "0.0,a,1.0,2.0\n") == (
            "line 3: expected 3 fields, got 4"
        )

    def test_bad_float(self):
        assert read_error(HEADER + "# c\n\n0.0,a,fast\n") == (
            "line 5: could not convert string to float: 'fast'"
        )
        assert read_error(HEADER + "soon,a,1.0\n") == (
            "line 3: could not convert string to float: 'soon'"
        )

    def test_backwards_step_names_signal_and_both_times(self):
        assert read_error(HEADER + "1.0,a,1.0\n0.5,b,1.0\n0.25,a,2.0\n") == (
            "a: update at t=0.250000 precedes last update at t=1.000000"
        )

    def test_non_finite_timestamp(self):
        assert read_error(HEADER + "0.0,a,1.0\ninf,a,2.0\n") == (
            "line 4: non-finite timestamp inf"
        )
        assert read_error(HEADER + "nan,a,1.0\n") == (
            "line 3: non-finite timestamp nan"
        )

    def test_backwards_step_before_bad_float(self):
        lines = ["%d.0,a,1.0" % i for i in range(5)] + ["0.0,a,1.0"]
        lines += ["%d.0,b,1.0" % i for i in range(3)] + ["9.0,b,fast"]
        assert read_error(HEADER + "\n".join(lines) + "\n") == (
            "a: update at t=0.000000 precedes last update at t=4.000000"
        )

    def test_bad_float_before_backwards_step(self):
        lines = ["%d.0,a,1.0" % i for i in range(5)] + ["9.0,b,fast"]
        lines += ["%d.0,b,1.0" % i for i in range(3)] + ["0.0,a,1.0"]
        assert read_error(HEADER + "\n".join(lines) + "\n") == (
            "line 8: could not convert string to float: 'fast'"
        )


class TestBlockCounters:
    def _counters(self, text):
        registry = MetricsRegistry()
        with use_registry(registry):
            trace_from_string(text)
        return {
            name: counter.value
            for name, counter in registry.counters.items()
            if name.startswith("logs.read.")
        }

    def test_clean_file_reads_as_one_regular_block(self):
        assert self._counters(HEADER + "0.0,a,1.0\n0.1,a,2.0\n") == {
            "logs.read.blocks": 1,
            "logs.read.irregular_blocks": 0,
        }

    def test_one_comment_line_counts_one_irregular_block(self):
        text = HEADER + "0.0,a,1.0\n# operator note\n0.1,a,2.0\n"
        assert self._counters(text) == {
            "logs.read.blocks": 1,
            "logs.read.irregular_blocks": 1,
        }
        assert trace_from_string(text).updates("a") == [(0.0, 1.0), (0.1, 2.0)]
