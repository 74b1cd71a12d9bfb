"""Trace and TraceView semantics — the monitor's data model."""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.logs.format as log_format
from helpers import VIEW_COLUMNS, multirate_trace, uniform_trace
from repro.errors import ParameterError, TraceError
from repro.logs.format import HEADER_PREFIX, read_trace
from repro.logs.trace import _BIN_BLOCK, ORDER_SLACK, Trace


class TestRecording:
    def test_updates_preserved_in_order(self):
        trace = Trace()
        trace.record("a", 0.0, 1.0)
        trace.record("a", 0.1, 2.0)
        assert trace.updates("a") == [(0.0, 1.0), (0.1, 2.0)]

    def test_non_monotonic_timestamps_rejected(self):
        trace = Trace()
        trace.record("a", 1.0, 1.0)
        with pytest.raises(TraceError):
            trace.record("a", 0.5, 2.0)

    def test_equal_timestamps_allowed(self):
        trace = Trace()
        trace.record("a", 1.0, 1.0)
        trace.record("a", 1.0, 2.0)
        assert trace.update_count("a") == 2

    def test_recorder(self):
        trace = Trace()
        trace.recorder(("a", "b"))(0.5, {"a": 1.0, "b": 2.0, "x": 9.0})
        assert trace.signals() == ("a", "b")

    def test_recorder_checks_order_per_signal(self):
        trace = Trace()
        trace.record("b", 1.0, 0.0)
        trace.recorder(("a", "c"))(0.5 + 5e-13, {"a": True, "c": 3})
        record_ab = trace.recorder(("a", "b"))
        with pytest.raises(TraceError, match="b: update at t=0.500000"):
            record_ab(0.5, {"a": 1.0, "b": 2.0})
        assert trace.updates("a") == [(0.5 + 5e-13, 1.0), (0.5, 1.0)]
        assert trace.updates("c") == [(0.5 + 5e-13, 3.0)]

    def test_recorder_follows_the_columns_it_resolved(self):
        # The recorder appends to the lists record() appends to, so the
        # order check sees updates made either way.
        trace = Trace()
        record = trace.recorder(("a",))
        record(0.5, {"a": 1.0})
        trace.record("a", 0.7, 2.0)
        with pytest.raises(TraceError, match="a: update at t=0.600000"):
            record(0.6, {"a": 3.0})
        record(0.7, {"a": 4.0})
        assert trace.updates("a") == [(0.5, 1.0), (0.7, 2.0), (0.7, 4.0)]

    @pytest.mark.parametrize("stamp", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamps_rejected(self, stamp):
        trace = Trace()
        with pytest.raises(TraceError, match="a: update at non-finite time"):
            trace.record("a", stamp, 1.0)
        with pytest.raises(TraceError, match="a, b: update at non-finite time"):
            trace.recorder(("a", "b"))(stamp, {"a": 1.0, "b": 2.0})
        assert trace.is_empty()
        assert trace.signals() == ()

    def test_nan_timestamp_cannot_hide_a_backwards_step(self):
        # Regression: 0.0, 1.0, nan, 0.5 was accepted (nan compares false
        # both ways), and the view then held value 3.0 at t=0.
        trace = Trace()
        trace.record("a", 0.0, 1.0)
        trace.record("a", 1.0, 2.0)
        with pytest.raises(TraceError, match=r"a: update at non-finite time t=nan"):
            trace.record("a", float("nan"), 3.0)
        with pytest.raises(TraceError, match="precedes last update at t=1.000000"):
            trace.record("a", 0.5, 4.0)
        assert trace.updates("a") == [(0.0, 1.0), (1.0, 2.0)]

    def test_nan_and_inf_are_recordable(self):
        trace = Trace()
        trace.record("a", 0.0, float("nan"))
        trace.record("a", 0.1, float("inf"))
        values = [v for _, v in trace.updates("a")]
        assert math.isnan(values[0])
        assert values[1] == float("inf")


class TestInspection:
    def test_times_and_duration(self):
        trace = uniform_trace({"a": [1, 2, 3]}, period=0.5, start=1.0)
        assert trace.start_time == 1.0
        assert trace.end_time == 2.0
        assert trace.duration == 1.0

    def test_times_bound_every_update(self):
        # Regression: start_time was the least *first* update, so a step
        # back inside the order slack left it above end_time, and chained
        # step-backs drifted past it by more than the slack.
        trace = Trace()
        trace.record("a", 0.0, 1.0)
        trace.record("a", -4e-13, 2.0)
        assert (trace.start_time, trace.end_time) == (-4e-13, 0.0)
        for step in range(1, 11):
            trace.record("b", -0.9 * ORDER_SLACK * step, 3.0)
        assert trace.start_time == -9 * ORDER_SLACK
        assert trace.start_time < -ORDER_SLACK
        assert trace.end_time == 0.0

    def test_times_of_a_trimmed_trace_bound_every_update(self):
        trace = Trace()
        for timestamp in (0.0, 1.0, 1.0 - 4e-13, 2.0, 2.0 - 4e-13):
            trace.record("a", timestamp, 0.0)
        trace.trim(1.0)  # drops t=0 only: the leading updates before 1.0
        assert trace.updates("a")[0][0] == 1.0
        assert trace.start_time == 1.0 - 4e-13
        assert trace.end_time == 2.0
        assert trace.duration == 2.0 - (1.0 - 4e-13)

    def test_empty_trace_reports(self):
        trace = Trace()
        assert trace.is_empty()
        with pytest.raises(TraceError):
            _ = trace.start_time

    def test_value_at_holds_last_update(self):
        trace = uniform_trace({"a": [10, 20, 30]}, period=1.0)
        assert trace.value_at("a", 0.0) == 10
        assert trace.value_at("a", 1.5) == 20
        assert trace.value_at("a", 99.0) == 30

    def test_value_at_before_first_update_raises(self):
        trace = uniform_trace({"a": [1]}, start=5.0)
        with pytest.raises(TraceError):
            trace.value_at("a", 4.0)

    def test_unknown_signal_raises(self):
        trace = Trace()
        with pytest.raises(TraceError):
            trace.updates("ghost")

    def test_events_are_time_ordered(self):
        trace = multirate_trace({"f": range(8)}, {"s": range(2)})
        events = list(trace.events())
        times = [t for t, _, _ in events]
        assert times == sorted(times)


class TestTransformation:
    def test_sliced_keeps_only_window(self):
        trace = uniform_trace({"a": range(10)}, period=1.0)
        piece = trace.sliced(2.0, 5.0)
        assert [t for t, _ in piece.updates("a")] == [2.0, 3.0, 4.0, 5.0]


class TestViewSampling:
    def test_hold_semantics(self):
        trace = multirate_trace({"f": [0, 1, 2, 3, 4, 5, 6, 7]}, {"s": [10, 20]})
        view = trace.to_view(0.02)
        # Slow signal holds 10 for rows 0..3, then 20.
        assert list(view.values("s")[:4]) == [10, 10, 10, 10]
        assert list(view.values("s")[4:]) == [20, 20, 20, 20]

    def test_freshness_marks_update_rows(self):
        trace = multirate_trace({"f": range(8)}, {"s": [10, 20]})
        view = trace.to_view(0.02)
        assert list(view.fresh("s")) == [True, False, False, False, True, False, False, False]
        assert view.fresh("f").all()

    def test_ever_fresh_before_first_update(self):
        trace = Trace()
        trace.record("late", 0.06, 5.0)
        trace.record("early", 0.0, 1.0)
        trace.record("early", 0.08, 1.0)
        view = trace.to_view(0.02)
        assert list(view.ever_fresh("late")) == [False, False, False, True, True]
        # Values are backfilled with the first known value.
        assert view.values("late")[0] == 5.0

    def test_view_respects_signal_selection(self):
        trace = uniform_trace({"a": [1], "b": [2]})
        view = trace.to_view(0.02, signals=["a"])
        assert "a" in view
        assert "b" not in view

    def test_view_unknown_signal_rejected(self):
        trace = uniform_trace({"a": [1]})
        with pytest.raises(TraceError):
            trace.to_view(0.02, signals=["ghost"])

    def test_view_bad_period_rejected(self):
        trace = uniform_trace({"a": [1]})
        with pytest.raises(ParameterError, match="period must be a positive"):
            trace.to_view(0.0)

    def test_view_of_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            Trace().to_view(0.02)

    def test_explicit_window(self):
        trace = uniform_trace({"a": range(100)}, period=0.02)
        view = trace.to_view(0.02, start=0.5, end=1.0)
        assert view.start_time == 0.5
        assert view.n_rows == 26

    def test_row_values_snapshot(self):
        trace = uniform_trace({"a": [1, 2], "b": [3, 4]})
        view = trace.to_view(0.02)
        assert view.row_values(1) == {"a": 2.0, "b": 4.0}


class TestViewIsolation:
    def test_recording_and_trimming_leave_a_live_view_alone(self):
        """A view hands the trace's columns to numpy without copying
        them, and a column cannot resize while a numpy view of it lives:
        the view must keep none, or the next append raises BufferError.
        And later changes to the trace must not reach the view."""
        trace = multirate_trace({"f": range(8)}, {"s": [1.0, 5.0]})
        view = trace.to_view(0.02)
        before = {
            (signal, column): getattr(view, column)(signal).copy()
            for signal in view.signal_names
            for column in VIEW_COLUMNS
        }
        trace.record("f", 1.0, 99.0)
        trace.recorder(("s",))(1.0, {"s": 99.0})
        trace.extend(("f", "s"), np.array([0, 1]), np.full(2, 2.0), np.full(2, 7.0))
        assert trace.trim(0.07) > 0
        trace.record("f", 3.0, 0.0)
        for (signal, column), want in before.items():
            got = getattr(view, column)(signal)
            assert got.tobytes() == want.tobytes(), (signal, column)


class TestViewTrends:
    def test_delta_naive_stutters_on_slow_signal(self):
        # The §V-C1 artifact: a steadily rising slow signal looks
        # constant three rows out of four to the naive difference.
        trace = multirate_trace({"f": range(12)}, {"s": [0, 10, 20]})
        view = trace.to_view(0.02)
        naive = view.delta_naive("s")
        assert list(naive[1:4]) == [0.0, 0.0, 0.0]
        assert naive[4] == 10.0

    def test_delta_fresh_holds_trend_between_updates(self):
        trace = multirate_trace({"f": range(12)}, {"s": [0, 10, 20]})
        view = trace.to_view(0.02)
        fresh = view.delta_fresh("s")
        # After the second update the trend is +10, held on every row.
        assert list(fresh[4:]) == [10.0] * 8

    def test_delta_fresh_zero_before_second_update(self):
        trace = multirate_trace({"f": range(8)}, {"s": [5, 7]})
        view = trace.to_view(0.02)
        assert list(view.delta_fresh("s")[:4]) == [0.0] * 4

    def test_rate_uses_actual_update_spacing(self):
        trace = multirate_trace({"f": range(12)}, {"s": [0, 10, 20]})
        view = trace.to_view(0.02)
        # 10 units per 80 ms = 125 per second.
        assert view.rate("s")[5] == pytest.approx(125.0)

    def test_fresh_age_counts_rows_since_update(self):
        trace = multirate_trace({"f": range(8)}, {"s": [1, 2]})
        view = trace.to_view(0.02)
        assert list(view.fresh_age("s")) == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_update_times_track_true_timestamps(self):
        trace = Trace()
        trace.record("a", 0.000, 1.0)
        trace.record("a", 0.083, 2.0)  # jittered arrival
        trace.record("b", 0.0, 0.0)
        trace.record("b", 0.16, 0.0)
        view = trace.to_view(0.02)
        assert view.update_times("a")[5] == pytest.approx(0.083)


class TestViewProperties:
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50)
    def test_uniform_signal_view_reproduces_values(self, values):
        trace = uniform_trace({"a": values})
        view = trace.to_view(0.02)
        assert view.n_rows == len(values)
        assert np.array_equal(view.values("a"), np.array(values, dtype=float))

    @given(ratio=st.integers(min_value=2, max_value=8))
    @settings(max_examples=20)
    def test_held_rows_equal_last_fresh_value(self, ratio):
        slow_values = [float(i * i) for i in range(5)]
        trace = multirate_trace(
            {"f": range(5 * ratio)}, {"s": slow_values}, ratio=ratio
        )
        view = trace.to_view(0.02)
        values = view.values("s")
        fresh = view.fresh("s")
        last = values[0]
        for row in range(view.n_rows):
            if fresh[row]:
                last = values[row]
            assert values[row] == last

    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30
        )
    )
    @settings(max_examples=50)
    def test_delta_fresh_matches_differences_on_fresh_rows(self, values):
        trace = uniform_trace({"a": values})
        view = trace.to_view(0.02)
        delta = view.delta_fresh("a")
        expected = np.diff(np.array(values))
        assert np.allclose(delta[1:], expected)


class TestViewMemory:
    def test_whole_trace_view_allocates_one_block_beyond_its_columns(self):
        """A whole-trace view of the longest paper trace's size (the
        25,750 rows of ``mBallista All``, 11 rule signals) keeps only its
        grid columns — five ``S × (n + 1)`` arrays: fresh and ever-fresh
        flags (1 byte a cell), values and update times (8 bytes), hold
        indices (4 bytes) — and on the way allocates at most one
        binning block's temporaries beyond them (at most eight 8-byte
        values per update of a block), not a copy of every update."""
        rows, signals = 25750, 11
        trace = Trace("long")
        for index in range(signals):
            step = (0.01, 0.02, 0.04)[index % 3]
            times = np.arange(0.0, (rows - 1) * 0.02, step) + 0.003 * index
            for timestamp in times.tolist():
                trace.record("s%d" % index, timestamp, math.sin(timestamp))
        assert trace.update_count() > 5 * _BIN_BLOCK

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            view = trace.to_view(0.02, start=0.0)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert view.n_rows == rows
        columns = 22 * signals * (rows + 1) + view.times.nbytes
        assert retained - before <= columns + 64 * 1024
        assert peak - retained <= 8 * 8 * _BIN_BLOCK


class TestStreamTrace:
    """Trimming and block recording: the rolling buffer of the online
    monitor, reached here through the ``StreamTrace`` alias."""

    def _stream(self, n=10, period=0.02):
        from repro.logs.trace import StreamTrace

        stream = StreamTrace("s")
        for i in range(n):
            stream.record("a", i * period, float(i))
        return stream

    def test_record_and_inspect(self):
        stream = self._stream(5)
        assert stream.signals() == ("a",)
        assert "a" in stream
        assert stream.update_count("a") == 5
        assert stream.update_count() == 5
        assert stream.updates("a")[0] == (0.0, 0.0)
        assert stream.time_bounds("a") == (0.0, pytest.approx(0.08))

    def test_non_monotonic_timestamps_rejected(self):
        from repro.logs.trace import StreamTrace

        stream = StreamTrace()
        stream.record("a", 1.0, 1.0)
        with pytest.raises(TraceError):
            stream.record("a", 0.5, 2.0)

    def test_nan_timestamp_cannot_block_trim(self):
        # Regression: a NaN at the head of a signal's deque never compared
        # older than any frontier, so trim() dropped nothing, forever.
        from repro.logs.trace import StreamTrace

        stream = StreamTrace()
        with pytest.raises(TraceError, match="a: update at non-finite time t=nan"):
            stream.record("a", float("nan"), 0.0)
        for i in range(1000):
            stream.record("a", i * 0.02, float(i))
        assert stream.trim(10.0) == 500

    def test_trim_pops_strictly_older_updates(self):
        stream = self._stream(10)
        dropped = stream.trim(0.08)
        assert dropped == 4  # t in {0, .02, .04, .06}; t == 0.08 is kept
        assert stream.update_count("a") == 6
        assert stream.updates("a")[0][0] == pytest.approx(0.08)

    def test_trim_matches_trace_sliced_semantics(self):
        """StreamTrace.trim(t) must keep exactly what Trace.sliced(t, inf)
        keeps — that equality is what makes trimming a pure
        representation change."""
        trace = Trace()
        stream = self._stream(20)
        for i in range(20):
            trace.record("a", i * 0.02, float(i))
        cut = 0.137
        stream.trim(cut)
        assert stream.updates("a") == trace.sliced(cut, math.inf).updates("a")

    def test_frontier_advances_monotonically(self):
        stream = self._stream(10)
        assert stream.frontier == -math.inf
        stream.trim(0.1)
        assert stream.frontier == 0.1
        stream.trim(0.05)  # cannot move backwards
        assert stream.frontier == 0.1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.one_of(
                    st.sampled_from([0.0, 0.5, 1.0, 1.0 - 1e-13, math.nan, math.inf]),
                    st.floats(0.0, 2.0),
                ),
            ),
            max_size=12,
        ),
        st.integers(0, 12),
        st.sampled_from([16, 64, log_format._BLOCK_CHARS]),
    )
    def test_extend_matches_record_one_update_at_a_time(
        self, updates, split, block_chars
    ):
        """Every recording path stores what ``record`` stores, one update
        at a time, and stops at the same first bad update with the same
        error: a one-signal ``recorder`` per update, ``extend`` of the
        updates from the drawn split on, and the CSV reader (at three
        block sizes) over a log of the same updates.

        The log is written line by line in arrival order with each
        float's exact ``repr``: ``write_trace`` rounds times to
        microseconds and sorts them, so it cannot write a trace that
        ``record`` refuses.  The reader names a non-finite time by its
        line; every other error has ``record``'s text."""
        from repro.logs.trace import StreamTrace

        names = ("a", "b", "c")
        head = [(signal, 0.1 * i, 0.0) for i, (signal, _) in enumerate(updates[:split])]
        tail = [(signal, t, float(i)) for i, (signal, t) in enumerate(updates[split:])]
        updates = head + tail
        expected = Trace()
        accepted, error = len(updates), None
        for i, update in enumerate(updates):
            try:
                expected.record(*update)
            except TraceError as exc:
                accepted, error = i, str(exc)
                break

        def by_recorder(store):
            for signal, timestamp, value in updates:
                store.recorder((signal,))(timestamp, {signal: value})

        def by_extend(store):
            for update in head:
                store.record(*update)
            store.extend(
                names,
                np.array([names.index(signal) for signal, _, _ in tail], dtype=np.intp),
                np.array([timestamp for _, timestamp, _ in tail], dtype=float),
                np.array([value for _, _, value in tail], dtype=float),
            )

        stores = {}
        for path, fill in (("recorder", by_recorder), ("extend", by_extend)):
            store = stores[path] = StreamTrace()
            try:
                fill(store)
            except TraceError as exc:
                assert str(exc) == error, path
                if path == "extend":
                    assert exc.accepted == accepted - len(head)
            else:
                assert error is None, path

        log = "%s\ntime,signal,value\n" % HEADER_PREFIX + "".join(
            "%r,%s,%r\n" % (timestamp, signal, value)
            for signal, timestamp, value in updates
        )
        with mock.patch.object(log_format, "_BLOCK_CHARS", block_chars):
            try:
                stores["read_trace"] = read_trace(io.StringIO(log))
            except TraceError as exc:
                bad = updates[accepted][1]
                if not math.isfinite(bad):
                    error = "line %d: non-finite timestamp %r" % (accepted + 3, bad)
                assert str(exc) == error
            else:
                assert error is None

        for path, store in stores.items():
            for signal in names:
                assert store.update_count(signal) == expected.update_count(signal), path
                if expected.update_count(signal):
                    assert store.updates(signal) == expected.updates(signal), path

    def test_to_view_matches_trace_view(self):
        from repro.logs.trace import StreamTrace

        columns = {"a": [1.0, 2.0, 3.0, 2.0, 5.0], "b": [0.0, 0.0, 1.0, 1.0, 0.0]}
        trace = uniform_trace(columns)
        stream = StreamTrace()
        for timestamp, signal, value in trace.events():
            stream.record(signal, timestamp, value)
        tview = trace.to_view(0.02)
        sview = stream.to_view(0.02)
        assert sview.n_rows == tview.n_rows
        for signal in columns:
            assert np.array_equal(sview.values(signal), tview.values(signal))
            assert np.array_equal(sview.fresh(signal), tview.fresh(signal))

    def test_to_view_rejects_fully_expired_signal(self):
        """A signal whose every update was trimmed must fail like a
        missing signal — a silent all-held view would be wrong data."""
        stream = self._stream(4)
        stream.record("b", 0.06, 1.0)
        stream.trim(1.0)  # expires everything
        assert "a" in stream  # the signal name is still known...
        with pytest.raises(TraceError):
            stream.to_view(0.02, signals=("a",))  # ...but views must refuse

    def test_empty_and_time_properties(self):
        from repro.logs.trace import StreamTrace

        stream = StreamTrace()
        assert stream.is_empty()
        stream.record("a", 1.0, 0.5)
        assert not stream.is_empty()
        assert stream.start_time == 1.0
        assert stream.end_time == 1.0
