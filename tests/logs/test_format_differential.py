"""Differential test: the block-columnar CSV reader against the per-line
reader it replaced (``helpers.loop_read_trace``).

Both readers must accept the same inputs, store bit-identical per-signal
times and values (their float64 bytes, so -0.0 and even NaN payloads
count: stricter than comparing ``float.hex``), and reject the same
inputs with the same :class:`TraceError` text.  Every
case runs at the module's block size and with the block shrunk to 40
and 200 characters, so errors, comments and backwards steps land on and
across block boundaries.
"""

import glob
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.logs.format as log_format
from helpers import loop_read_trace
from repro.cli import main
from repro.errors import TraceError
from repro.logs.format import HEADER_PREFIX, read_trace

BLOCK_SIZES = [40, 200, log_format._BLOCK_CHARS]

HEADER = "%s name=fuzz\ntime,signal,value\n" % HEADER_PREFIX


def outcome(read, source):
    """What one reader makes of ``source``: its error text, or the trace
    name plus the bytes of every signal's times and values."""
    try:
        trace = read(source)
    except TraceError as exc:
        return "error", str(exc)
    columns = {
        signal: tuple(array.tobytes() for array in trace.update_arrays(signal))
        for signal in trace.signals()
    }
    return "trace", trace.name, columns


def assert_same(text, block_chars):
    expected = outcome(loop_read_trace, io.StringIO(text))
    with mock.patch.object(log_format, "_BLOCK_CHARS", block_chars):
        assert outcome(read_trace, io.StringIO(text)) == expected
    return expected


# ----------------------------------------------------------------------
# Generated inputs
# ----------------------------------------------------------------------

NUMBERS = st.sampled_from(
    ["nan", "inf", "-inf", "-0.0", "1e3", "1_0", "", " 2.5 ", "fast", "1e400"]
)
NAMES = st.sampled_from(["a", "b", "Velocity", "x#y", " pad ", ""])


def percent(draw, below):
    return draw(st.integers(0, 99)) < below


@st.composite
def bodies(draw):
    """A trace body: mostly well-formed lines on a few signals, with
    every shape the format's line filter and error contract cover."""
    lines = []
    clock = 0.0
    for _ in range(draw(st.integers(0, 30))):
        if percent(draw, 5):
            lines.append(draw(st.sampled_from(["", "   ", "\t", "# note", "  # x,y"])))
            continue
        if percent(draw, 2):
            clock -= 0.5  # a backwards step, when the signal repeats
        else:
            clock += draw(st.sampled_from([0.0, 0.02, 0.02, 0.1, 1.0]))
        stamp = draw(NUMBERS) if percent(draw, 1) else "%.6f" % clock
        name = draw(NAMES) if percent(draw, 10) else draw(st.sampled_from(["a", "b", "Velocity"]))
        value = draw(NUMBERS) if percent(draw, 15) else repr(draw(st.floats(width=32)))
        fields = [stamp, name, value]
        if percent(draw, 2):
            fields = draw(st.sampled_from([fields[:2], fields + ["1.0"]]))
        line = ",".join(fields)
        if percent(draw, 10):
            line = " %s " % line
        lines.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    body = "".join(line + ending for line in lines)
    if lines and draw(st.booleans()):
        body = body[: -len(ending)]  # the last line without a newline
    return body


@pytest.mark.parametrize("block_chars", BLOCK_SIZES)
@given(body=bodies())
@settings(max_examples=150, deadline=None)
def test_generated_bodies_match_the_loop(block_chars, body):
    assert_same(HEADER + body, block_chars)


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("block_chars", BLOCK_SIZES)
class TestNamedCases:
    def test_empty_body(self, block_chars):
        # An empty body split into one (empty) field once made a bogus line.
        assert assert_same(HEADER, block_chars) == ("trace", "fuzz", {})
        assert assert_same(HEADER.rstrip("\n"), block_chars) == ("trace", "fuzz", {})

    def test_comma_counts_balanced_across_crlf_lines(self, block_chars):
        # A two-field and a four-field line hold as many commas as two
        # good lines, and here every shifted field even parses: only a
        # per-line delimiter check tells them apart.
        body = "0.1,a,1.0\r\n0.2,a\r\n0.3,7,3.0,4.0\r\n0.4,a,4.0\r\n"
        assert assert_same(HEADER + body, block_chars) == (
            "error", "line 4: expected 3 fields, got 2",
        )

    def test_first_error_wins_across_blocks(self, block_chars):
        good = "".join("%.6f,a,1.0\n" % (i * 0.02) for i in range(10))
        backwards = "0.000000,a,2.0\n"
        bad_float = "1.000000,b,fast\n"
        assert assert_same(HEADER + good + backwards + good + bad_float, block_chars) == (
            "error", "a: update at t=0.000000 precedes last update at t=0.180000",
        )
        assert assert_same(HEADER + good + bad_float + good + backwards, block_chars) == (
            "error", "line 13: could not convert string to float: 'fast'",
        )

    def test_non_finite_timestamp_after_a_clean_block(self, block_chars):
        good = "".join("%.6f,a,1.0\n" % (i * 0.02) for i in range(10))
        assert assert_same(HEADER + good + "nan,a,1.0\n", block_chars) == (
            "error", "line 13: non-finite timestamp nan",
        )

    def test_exceptional_values_and_spellings(self, block_chars):
        body = "0.0,a,nan\n1e3,a,-inf\n1_0e3,a,-0.0\n 1e4 ,a, 1_0 \n"
        assert assert_same(HEADER + body, block_chars)[0] == "trace"
        with mock.patch.object(log_format, "_BLOCK_CHARS", block_chars):
            updates = read_trace(io.StringIO(HEADER + body)).updates("a")
        assert [(t.hex(), v.hex()) for t, v in updates] == [
            (0.0.hex(), "nan"),
            (1e3.hex(), "-inf"),
            (1e4.hex(), "-0x0.0p+0"),
            (1e4.hex(), 10.0.hex()),
        ]


# ----------------------------------------------------------------------
# Real drive logs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def drive_logs(tmp_path_factory):
    """The six ``repro drive --seed 2014`` logs, written as CSV files."""
    out_dir = tmp_path_factory.mktemp("drive")
    assert main(["drive", "--seed", "2014", "--out-dir", str(out_dir)]) == 0
    files = sorted(glob.glob(os.path.join(str(out_dir), "*.csv")))
    assert len(files) == 6
    return files


def test_drive_logs_match_the_loop(drive_logs):
    for path in drive_logs:
        expected = outcome(loop_read_trace, path)
        assert expected[0] == "trace"
        assert outcome(read_trace, path) == expected
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert outcome(read_trace, io.StringIO(text)) == expected


@pytest.mark.parametrize("block_chars", BLOCK_SIZES[:2])
def test_drive_log_matches_the_loop_at_small_blocks(drive_logs, block_chars):
    path = min(drive_logs, key=os.path.getsize)
    expected = outcome(loop_read_trace, path)
    with mock.patch.object(log_format, "_BLOCK_CHARS", block_chars):
        assert outcome(read_trace, path) == expected
