"""Differential test: the one-pass view resample against the per-signal
resample it replaced (``helpers.loop_view_columns``).

Every column of every signal — held values, freshness, update times,
both trends, rates and fresh ages — must equal the oracle's byte for
byte (dtype, shape and raw bytes, so -0.0 and NaN payloads count), for
:class:`Trace` views of recorded traces and of block-recorded ones
before and after a trim.  Every case runs at the module's block size
and with the block shrunk to 1 and 5 updates, so a view's binning and
hold fill span many blocks.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.logs.trace as trace_module
from helpers import VIEW_COLUMNS, loop_view_columns
from repro.logs.trace import StreamTrace, Trace

BLOCKS = [1, 5, trace_module._BIN_BLOCK]


def assert_matches_oracle(store, period, **window):
    """Build ``store``'s view at each block size and compare every column
    with the per-signal oracle on the same grid."""
    for block in BLOCKS:
        with mock.patch.object(trace_module, "_BIN_BLOCK", block):
            view = store.to_view(period, **window)
        expected = loop_view_columns(store, view)
        for signal in view.signal_names:
            for column in VIEW_COLUMNS:
                got = getattr(view, column)(signal)
                want = expected[signal][column]
                assert got.dtype == want.dtype, (block, signal, column)
                assert got.shape == want.shape, (block, signal, column)
                assert got.tobytes() == want.tobytes(), (block, signal, column)


def stream_of(trace):
    """A :class:`StreamTrace` holding ``trace``'s updates, recorded as
    one :meth:`~repro.logs.trace.Trace.extend` block."""
    stream = StreamTrace(trace.name)
    times, signals, values = trace.event_columns()
    names = trace.signals()
    codes = np.searchsorted(np.array(names, dtype=object), signals)
    stream.extend(names, codes, times, values)
    return stream


# ----------------------------------------------------------------------
# Generated cases
# ----------------------------------------------------------------------

VALUES = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
#: Steps between a signal's updates: repeats and near-repeats (several
#: updates in one bin), a step back inside the order slack, and steps of
#: a fraction of a row to several rows.
STEPS = st.sampled_from([0.0, 0.0, 4e-13, -4e-13, 0.001, 0.013, 0.02, 0.05, 0.3])
PERIODS = st.sampled_from([0.02, 0.05, 0.1, 0.03])


@st.composite
def traces(draw):
    trace = Trace("fuzz")
    for index in range(draw(st.integers(1, 4))):
        clock = draw(st.floats(-1.0, 2.0))
        for _ in range(draw(st.integers(1, 30))):
            clock += draw(STEPS)
            trace.record("s%d" % index, clock, draw(VALUES))
    return trace


@st.composite
def windows(draw, first, last):
    """``start``/``end`` keywords for a view of updates spanning
    ``[first, last]``: the trace's own bounds, or a window that may cut
    updates off either end (some signals then have none inside it), or
    a single row."""
    window = {}
    start = first
    if draw(st.booleans()):
        start = window["start"] = draw(st.floats(first - 0.5, last + 0.1))
    shape = draw(st.sampled_from(["default", "cut", "one_row"]))
    if shape == "cut" or (shape == "default" and start > last):
        window["end"] = start + draw(st.floats(0.0, max(last - start, 0.0) + 0.5))
    elif shape == "one_row":
        window["end"] = start
    return window


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_trace_views_match_the_per_signal_oracle(data):
    trace = data.draw(traces())
    window = data.draw(windows(trace.start_time, trace.end_time))
    assert_matches_oracle(trace, data.draw(PERIODS), **window)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_stream_views_match_the_per_signal_oracle(data):
    trace = data.draw(traces())
    stream = stream_of(trace)
    if data.draw(st.booleans()):
        stream.trim(data.draw(st.floats(trace.start_time, trace.end_time)))
    period = data.draw(PERIODS)
    # Views refuse a selected signal whose updates all expired.
    live = [signal for signal in stream.signals() if stream.update_count(signal)]
    window = data.draw(windows(stream.start_time, stream.end_time))
    assert_matches_oracle(stream, period, signals=live, **window)


# ----------------------------------------------------------------------
# Each shape, by hand
# ----------------------------------------------------------------------


def hand_trace():
    trace = Trace("hand")
    for index, value in enumerate([1.0, math.nan, 3.0, math.inf, -math.inf, -0.0]):
        trace.record("a", 0.02 * index, value)
    # Three updates in row 1, and one a hair past row 4's grid time
    # (so in row 5).
    updates = [(0.001, 5.0), (0.004, 6.0), (0.005, 7.0), (0.08 + 1e-9, 8.0)]
    for timestamp, value in updates:
        trace.record("b", timestamp, value)
    trace.record("late", 0.5, 9.0)  # nothing before t=0.5
    return trace


def test_non_finite_values():
    assert_matches_oracle(hand_trace(), 0.02)


def test_updates_before_the_view_start():
    assert_matches_oracle(hand_trace(), 0.02, start=0.03)


def test_signal_without_update_in_the_window():
    assert_matches_oracle(hand_trace(), 0.02, start=0.0, end=0.1)


def test_single_row_views():
    trace = hand_trace()
    assert_matches_oracle(trace, 0.02, start=0.04, end=0.04)
    assert_matches_oracle(trace, 0.02, start=-1.0, end=-1.0)
    assert_matches_oracle(trace, 0.02, start=9.0, end=9.0)


def test_stream_views_after_trim():
    stream = stream_of(hand_trace())
    stream.trim(0.045)
    assert_matches_oracle(stream, 0.02, signals=("a", "late"))
    assert_matches_oracle(stream, 0.02, signals=("a", "b"), start=0.0)


def test_views_spanning_many_blocks():
    rng = np.random.default_rng(2014)
    trace = Trace("long")
    for index in range(3):
        times = np.cumsum(rng.choice([0.0, 0.007, 0.02, 0.04], size=400))
        for timestamp, value in zip(times, rng.normal(size=400)):
            trace.record("s%d" % index, float(timestamp), float(value))
    # Hundreds of blocks of 5 updates, and of 5 grid cells in the fill.
    assert trace.update_count() == 1200
    assert trace.to_view(0.02).n_rows > 300
    assert_matches_oracle(trace, 0.02)
