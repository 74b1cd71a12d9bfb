"""O(n) window kernels — correctness, parity with the strided path,
and degenerate temporal windows (offline and online)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from helpers import KERNELS, strided_extreme, uniform_trace, window_kernel
from repro.core import windows
from repro.core.evaluator import EvalContext, evaluate_formula
from repro.core.monitor import Monitor, Rule
from repro.core.online import OnlineMonitor
from repro.core.parser import parse_formula
from repro.core.types import FALSE_CODE, TRUE_CODE, UNKNOWN_CODE
from repro.core.windows import (
    bounds_to_rows,
    dilate_backwards,
    future_aggregate,
    past_aggregate,
    sliding_extreme,
)
from repro.errors import EvaluationError

PERIOD = 0.02

T, F, U = TRUE_CODE, FALSE_CODE, UNKNOWN_CODE


def brute_extreme(values, width, minimum):
    out = [
        values[i : i + width].min() if minimum else values[i : i + width].max()
        for i in range(len(values) - width + 1)
    ]
    return np.array(out, dtype=values.dtype)


class TestSlidingExtreme:
    @pytest.mark.parametrize("minimum", [True, False])
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 16, 31])
    def test_matches_brute_force(self, width, minimum):
        rng = np.random.default_rng(width * 2 + minimum)
        values = rng.integers(0, 3, size=64).astype(np.int8)
        expected = brute_extreme(values, width, minimum)
        got = sliding_extreme(values, width, minimum)
        assert got.dtype == np.int8
        assert np.array_equal(got, expected)

    def test_float_input(self):
        values = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
        assert list(sliding_extreme(values, 2, True)) == [1.0, 1.0, 2.0, 4.0]
        assert list(sliding_extreme(values, 2, False)) == [3.0, 2.0, 5.0, 5.0]

    def test_width_equal_to_length(self):
        values = np.array([2, 0, 1], dtype=np.int8)
        assert list(sliding_extreme(values, 3, True)) == [0]
        assert list(sliding_extreme(values, 3, False)) == [2]

    def test_width_one_copies(self):
        values = np.array([1, 2], dtype=np.int8)
        out = sliding_extreme(values, 1, True)
        assert np.array_equal(out, values)
        out[0] = 9
        assert values[0] == 1

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            sliding_extreme(np.zeros(3, dtype=np.int8), 0, True)
        with pytest.raises(ValueError):
            sliding_extreme(np.zeros(3, dtype=np.int8), 5, True)

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=80),
        st.integers(1, 30),
        st.booleans(),
    )
    @settings(max_examples=200)
    def test_property_matches_brute_force(self, codes, width, minimum):
        values = np.array(codes, dtype=np.int8)
        if width > len(values):
            return
        assert np.array_equal(
            sliding_extreme(values, width, minimum),
            brute_extreme(values, width, minimum),
        )


class TestAggregateParity:
    """Block and strided kernels are byte-identical on fuzzed inputs."""

    @given(
        st.lists(st.integers(0, 2), min_size=0, max_size=60),
        st.integers(0, 6),
        st.integers(0, 40),
        st.booleans(),
    )
    @settings(max_examples=300)
    def test_future_and_past_parity(self, codes, lo_idx, extra, minimum):
        values = np.array(codes, dtype=np.int8)
        hi_idx = lo_idx + extra
        with window_kernel("strided"):
            future_ref = future_aggregate(values, lo_idx, hi_idx, minimum)
            past_ref = past_aggregate(values, lo_idx, hi_idx, minimum)
        future_new = future_aggregate(values, lo_idx, hi_idx, minimum)
        past_new = past_aggregate(values, lo_idx, hi_idx, minimum)
        assert future_new.dtype == np.int8 and past_new.dtype == np.int8
        assert np.array_equal(future_ref, future_new)
        assert np.array_equal(past_ref, past_new)

    def test_kernel_patch_reaches_both_aggregates(self):
        codes = np.array([T, F, U, T], dtype=np.int8)
        with mock.patch.object(
            windows, "sliding_extreme", wraps=strided_extreme
        ) as kernel:
            future_aggregate(codes, 0, 2, True)
            past_aggregate(codes, 0, 2, False)
        assert kernel.call_count == 2

    def test_empty_input_yields_empty(self):
        empty = np.empty(0, dtype=np.int8)
        for kernel in KERNELS:
            with window_kernel(kernel):
                assert len(future_aggregate(empty, 0, 10, True)) == 0
                assert len(past_aggregate(empty, 0, 10, False)) == 0


class TestBoundsToRows:
    def test_exact_conversion(self):
        assert bounds_to_rows(0.0, 0.1, 0.02) == (0, 5)

    def test_point_window(self):
        assert bounds_to_rows(0.04, 0.04, 0.02) == (2, 2)

    def test_tighter_than_period_rejected(self):
        with pytest.raises(EvaluationError) as excinfo:
            bounds_to_rows(0.005, 0.015, 0.02)
        assert "contains no sample" in str(excinfo.value)


class TestDilateBackwards:
    def test_masks_trigger_row_and_following(self):
        triggered = np.array([0, 1, 0, 0, 0], dtype=np.int8)
        assert list(dilate_backwards(triggered, 2)) == [
            False,
            True,
            True,
            True,
            False,
        ]

    def test_zero_width_is_trigger_rows_only(self):
        triggered = np.array([0, 1, 0], dtype=np.int8)
        assert list(dilate_backwards(triggered, 0)) == [False, True, False]


# ----------------------------------------------------------------------
# Degenerate temporal windows, offline and online, all four operators
# ----------------------------------------------------------------------

OPERATORS = ["always", "eventually", "historically", "once"]


def eval_codes(source, signals):
    trace = uniform_trace(signals, period=PERIOD)
    ctx = EvalContext(trace.to_view(PERIOD))
    return evaluate_formula(parse_formula(source), ctx)


def online_letters(formula, signals):
    """Offline and online letters for one rule over a uniform trace."""
    trace = uniform_trace(signals, period=PERIOD)
    rule = Rule.from_text("r", "degenerate", formula)
    offline = Monitor([rule], period=PERIOD).check(trace)
    online = OnlineMonitor([rule], period=PERIOD, min_chunk_rows=1)
    online.feed_trace(trace)
    report = online.finish()
    return offline, report


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("operator", OPERATORS)
class TestDegenerateWindows:
    def test_single_row_trace(self, operator, kernel):
        with window_kernel(kernel):
            codes = eval_codes(
                "%s[0, 1s] x > 0" % operator, {"x": [1.0]}
            )
        assert codes.shape == (1,)
        # The window is truncated on one side; a lone TRUE decides
        # `eventually`/`once` but leaves `always`/`historically` open.
        if operator in ("eventually", "once"):
            assert codes[0] == T
        else:
            assert codes[0] == U

    def test_window_wider_than_trace(self, operator, kernel):
        with window_kernel(kernel):
            codes = eval_codes(
                "%s[0, 10s] x > 0" % operator, {"x": [1, 1, 1, 1, 1]}
            )
        assert codes.shape == (5,)
        assert (codes != F).all()

    def test_point_window(self, operator, kernel):
        with window_kernel(kernel):
            codes = eval_codes(
                "%s[40ms, 40ms] x > 0" % operator, {"x": [1, 0, 1, 0]}
            )
        if operator in ("always", "eventually"):
            # Exactly the row two steps ahead; the last two are cut off.
            assert list(codes) == [T, F, U, U]
        else:
            # Exactly the row two steps back; the first two precede t0.
            assert list(codes) == [U, U, T, F]

    def test_empty_code_array(self, operator, kernel):
        node = parse_formula("%s[0, 100ms] x > 0" % operator)
        empty = np.empty(0, dtype=np.int8)
        with window_kernel(kernel):
            if operator in ("always", "eventually"):
                out = future_aggregate(empty, 0, 5, operator == "always")
            else:
                out = past_aggregate(empty, 0, 5, operator == "historically")
        assert out.shape == (0,)
        assert out.dtype == np.int8
        assert node is not None

    def test_online_single_row(self, operator, kernel):
        with window_kernel(kernel):
            offline, online = online_letters(
                "%s[0, 1s] x > 0" % operator, {"x": [1.0]}
            )
        assert offline.letters() == online.letters()

    def test_online_window_wider_than_trace(self, operator, kernel):
        with window_kernel(kernel):
            offline, online = online_letters(
                "%s[0, 10s] x > 0" % operator, {"x": [1, 1, 0, 1, 1]}
            )
        assert offline.letters() == online.letters()
        off = offline.results["r"]
        on = online.results["r"]
        assert off.verdict is on.verdict
        assert [(v.start_row, v.end_row) for v in off.violations] == [
            (v.start_row, v.end_row) for v in on.violations
        ]

    def test_online_point_window(self, operator, kernel):
        with window_kernel(kernel):
            offline, online = online_letters(
                "%s[40ms, 40ms] x > 0" % operator,
                {"x": [1, 0, 1, 0, 1, 1, 0, 1]},
            )
        assert offline.letters() == online.letters()
        assert (
            offline.results["r"].verdict is online.results["r"].verdict
        )


class _EmptyView:
    """A zero-row stand-in view (a real TraceView always has >= 1 row)."""

    period = PERIOD
    n_rows = 0
    times = np.empty(0)
    signal_names = ("x",)

    def __contains__(self, name):
        return name in self.signal_names

    def values(self, name):
        return np.empty(0)

    def fresh(self, name):
        return np.empty(0, dtype=bool)


class TestEmptyViewRegressions:
    """``next`` and ``prev`` used to crash on zero-row views
    (``shifted[-1]`` on an empty array)."""

    def test_next_on_empty_view(self):
        from repro.core.parser import parse_expr

        ctx = EvalContext(_EmptyView())
        codes = evaluate_formula(parse_formula("next x > 0"), ctx)
        assert codes.shape == (0,)
        assert codes.dtype == np.int8
        assert parse_expr is not None

    def test_prev_on_empty_view(self):
        from repro.core.evaluator import evaluate_expr
        from repro.core.parser import parse_expr

        ctx = EvalContext(_EmptyView())
        values = evaluate_expr(parse_expr("prev(x)"), ctx)
        assert values.shape == (0,)


# ----------------------------------------------------------------------
# Monitor-level differential fuzz: strided vs block over random traces
# ----------------------------------------------------------------------


FORMULAS = [
    "always[0, 200ms] x > 0",
    "eventually[0, 400ms] x > 0 and y < 2",
    "historically[0, 100ms] x >= 0 -> once[0, 300ms] y > 0",
    "once[40ms, 240ms] not (x > 0)",
    "always[100ms, 300ms] (x > 0 or next y > 0)",
]


class TestMonitorDifferential:
    @given(
        st.integers(0, 4),
        st.lists(
            st.floats(
                allow_nan=True, allow_infinity=True, width=32
            ),
            min_size=1,
            max_size=60,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_reports_identical_across_kernels(self, pick, values):
        trace = uniform_trace({"x": values, "y": values}, period=PERIOD)
        rule = Rule.from_text("r", "diff", FORMULAS[pick])
        monitor = Monitor([rule], period=PERIOD)
        with window_kernel("strided"):
            reference = monitor.check(trace)
        report = monitor.check(trace)
        assert reference.letters() == report.letters()
        ref = reference.results["r"]
        new = report.results["r"]
        assert ref.verdict is new.verdict
        assert ref.rows_unknown == new.rows_unknown
        assert [(v.start_row, v.end_row) for v in ref.violations] == [
            (v.start_row, v.end_row) for v in new.violations
        ]
        # Serialized comparison: NaN witness values must match too, and
        # dict equality would treat nan != nan as a spurious mismatch.
        assert json.dumps(reference.to_dict(), sort_keys=True) == json.dumps(
            report.to_dict(), sort_keys=True
        )
