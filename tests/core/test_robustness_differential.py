"""Differential tests: quantitative robustness vs boolean verdicts.

The robustness lattice promises a *sign guarantee* relative to the
boolean evaluator on the same context:

* ``lower > 0``  ⇒  the verdict is TRUE,
* ``upper < 0``  ⇒  the verdict is FALSE,
* TRUE  ⇒ ``lower >= 0``;  FALSE ⇒ ``upper <= 0``;
  UNKNOWN ⇒ ``lower <= 0 <= upper``,
* ``lower <= upper`` everywhere, and no NaN ever.

This file checks that guarantee four ways: on every paper rule over
the shared nominal HIL run, on a randomized negation-free spec
generator over random traces (500 fuzzed (spec, trace) pairs), on
hand-picked edge semantics (NaN comparisons, ``==``/``!=`` distances,
vacuous infinities, zero-row views), and on one nested future/past
formula at window widths of 25 and 1000 rows.

The generator additionally earns an *exact perturbation* property the
paper rules cannot offer: its specs are monotone with coefficient-1
atoms (direction ``+1`` signals appear only as ``s > c`` / ``s >= c``,
direction ``-1`` only as ``s < c`` / ``s <= c``, and no negation or
implication ever flips a polarity), so shifting every signal by
``delta`` against its direction lowers every finite bound by exactly
``delta``.  Perturbing by slightly more than ``|margin|`` must
therefore flip the boolean verdict at a decided row; slightly less
must not.  Paper rules mix polarities through implications and
filters, so for them the sign guarantee plus the campaign-level checks
in ``benchmarks/test_bench_robustness.py`` are the contract.
"""

import math

import numpy as np
import pytest

from helpers import uniform_trace
from repro.core.evaluator import (
    EvalContext,
    evaluate_formula,
    evaluate_robustness,
)
from repro.core.monitor import Monitor, Rule
from repro.core.parser import parse_formula
from repro.core.robustness import summarize_bounds
from repro.core.types import FALSE_CODE, TRUE_CODE, UNKNOWN_CODE
from repro.rules.safety_rules import paper_rules

PERIOD = 0.02

#: Decided margins smaller than this are skipped by the perturbation
#: step — flipping them would race float rounding against strictness of
#: ``>`` vs ``>=``.
MIN_FLIP_MARGIN = 1e-4

#: How far past ``|margin|`` the flipping perturbation reaches.
FLIP_SLACK = 1e-3


def assert_sign_consistent(codes, bounds, where=""):
    """The full boolean/robustness contract, row by row."""
    lower, upper = bounds.lower, bounds.upper
    assert not np.isnan(lower).any(), where
    assert not np.isnan(upper).any(), where
    assert (lower <= upper).all(), where
    assert (codes[lower > 0] == TRUE_CODE).all(), where
    assert (codes[upper < 0] == FALSE_CODE).all(), where
    assert (lower[codes == TRUE_CODE] >= 0).all(), where
    assert (upper[codes == FALSE_CODE] <= 0).all(), where
    unknown = codes == UNKNOWN_CODE
    assert (lower[unknown] <= 0).all(), where
    assert (upper[unknown] >= 0).all(), where


# ----------------------------------------------------------------------
# Paper rules on the nominal run
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def paper_monitor():
    return Monitor(paper_rules())


@pytest.fixture(scope="module")
def paper_report(paper_monitor, nominal_trace):
    return paper_monitor.check(nominal_trace, robustness=True)


class TestPaperRules:
    def test_row_level_sign_consistency(self, paper_monitor, nominal_trace):
        monitor = paper_monitor
        view = nominal_trace.to_view(
            monitor.period, signals=monitor.required_signals()
        )
        ctx = EvalContext(view)
        for machine in monitor.machines:
            ctx.machine_states[machine.name] = machine.run(ctx)
            ctx.machine_alphabets[machine.name] = machine.alphabet
        for rule in monitor.rules:
            formula = rule.effective_formula()
            codes = evaluate_formula(formula, ctx)
            bounds = evaluate_robustness(formula, ctx)
            assert_sign_consistent(codes, bounds, where=rule.rule_id)

    def test_rule_level_sign_guarantee(self, paper_report):
        for rule_id, result in paper_report.results.items():
            robustness = result.robustness
            assert robustness is not None, rule_id
            assert robustness.lower <= robustness.upper, rule_id
            # A strictly positive certain lower bound proves no row can
            # be false, so nothing to violate — pre- or post-filter.
            if robustness.lower > 0:
                assert result.letter == "S", rule_id
            # A kept violation means a false row survived the filters,
            # and every false row bounds the margin at zero from above.
            if result.violated:
                assert robustness.upper <= 0, rule_id
            # A strictly negative upper bound proves some row was
            # false; filters may dismiss it, but it must have existed.
            if robustness.upper < 0:
                assert result.violations or result.dismissed, rule_id

    def test_margins_never_nan(self, paper_report):
        for rule_id, robustness in paper_report.margins().items():
            assert not math.isnan(robustness.lower), rule_id
            assert not math.isnan(robustness.upper), rule_id

    def test_letters_identical_with_and_without_robustness(
        self, paper_monitor, nominal_trace, paper_report
    ):
        plain = paper_monitor.check(nominal_trace)
        assert plain.letters() == paper_report.letters()


# ----------------------------------------------------------------------
# Randomized monotone spec generator
# ----------------------------------------------------------------------

SIGNALS = ("s0", "s1", "s2")
TEMPORAL = ("always", "eventually", "once", "historically")


class SpecGen:
    """Negation-free, polarity-tracked random formulas.

    Every signal is assigned a fixed direction; direction ``+1``
    signals only ever appear as ``s > c`` / ``s >= c`` (margin
    ``s - c``), direction ``-1`` only as ``s < c`` / ``s <= c``
    (margin ``c - s``).  Connectives are limited to and/or and the
    four window operators plus ``next`` — all monotone — so a uniform
    shift of every signal against its direction lowers every atom
    margin by exactly the shift, and min/max/inf/sup composition
    preserves that exactly on every finite bound.
    """

    def __init__(self, rng):
        self.rng = rng
        self.dirs = {
            signal: 1 if rng.random() < 0.5 else -1 for signal in SIGNALS
        }

    def atom(self):
        signal = SIGNALS[int(self.rng.integers(len(SIGNALS)))]
        constant = round(float(self.rng.uniform(-3.0, 3.0)), 3)
        if self.dirs[signal] > 0:
            op = ">" if self.rng.random() < 0.5 else ">="
        else:
            op = "<" if self.rng.random() < 0.5 else "<="
        return "%s %s %s" % (signal, op, constant)

    def formula(self, depth=3):
        if depth <= 0 or self.rng.random() < 0.3:
            return self.atom()
        kind = ("and", "or", "next") + TEMPORAL
        kind = kind[int(self.rng.integers(len(kind)))]
        if kind in ("and", "or"):
            return "(%s) %s (%s)" % (
                self.formula(depth - 1),
                kind,
                self.formula(depth - 1),
            )
        if kind == "next":
            return "next (%s)" % self.formula(depth - 1)
        window_ms = 20 * int(self.rng.integers(1, 6))
        return "%s[0, %dms] (%s)" % (kind, window_ms, self.formula(depth - 1))

    def shifted(self, data, delta):
        """Shift every signal by ``delta`` *with* its direction.

        Positive ``delta`` improves every atom margin by ``delta``;
        negative worsens it.
        """
        return {
            signal: values + self.dirs[signal] * delta
            for signal, values in data.items()
        }


def _context(data):
    trace = uniform_trace({k: list(v) for k, v in data.items()}, period=PERIOD)
    return EvalContext(trace.to_view(PERIOD))


def _check_pair(seed):
    rng = np.random.default_rng(seed)
    gen = SpecGen(rng)
    text = gen.formula()
    formula = parse_formula(text)
    rows = int(rng.integers(30, 80))
    data = {
        signal: rng.uniform(-5.0, 5.0, size=rows) for signal in SIGNALS
    }

    codes = evaluate_formula(formula, _context(data))
    bounds = evaluate_robustness(formula, _context(data))
    assert_sign_consistent(codes, bounds, where=text)

    # Perturbation: pick a decided row with a usable margin and push
    # the trace just past it, against the verdict.
    decided = (
        np.isfinite(bounds.upper)
        & (bounds.lower == bounds.upper)
        & (np.abs(bounds.upper) > MIN_FLIP_MARGIN)
    )
    candidates = np.flatnonzero(decided)
    if not candidates.size:
        return
    row = int(candidates[np.argmax(np.abs(bounds.upper[candidates]))])
    margin = float(bounds.upper[row])
    delta = abs(margin) + FLIP_SLACK
    # Worsen a satisfied row / improve a violated one.
    signed = -delta if margin > 0 else delta

    moved = gen.shifted(data, signed)
    codes2 = evaluate_formula(formula, _context(moved))
    bounds2 = evaluate_robustness(formula, _context(moved))
    assert_sign_consistent(codes2, bounds2, where="%s (shifted)" % text)

    expected = FALSE_CODE if margin > 0 else TRUE_CODE
    assert codes2[row] == expected, (text, row, margin)

    # Exact-shift property: finite bounds move by exactly the shift.
    finite = np.isfinite(bounds.upper)
    assert (finite == np.isfinite(bounds2.upper)).all(), text
    np.testing.assert_allclose(
        bounds2.upper[finite], bounds.upper[finite] + signed, atol=1e-9
    )
    finite = np.isfinite(bounds.lower)
    assert (finite == np.isfinite(bounds2.lower)).all(), text
    np.testing.assert_allclose(
        bounds2.lower[finite], bounds.lower[finite] + signed, atol=1e-9
    )

    # A shift strictly inside the margin must NOT flip the verdict.
    if abs(margin) > 2 * FLIP_SLACK:
        inside = abs(margin) - FLIP_SLACK
        gentle = gen.shifted(data, -inside if margin > 0 else inside)
        codes3 = evaluate_formula(formula, _context(gentle))
        assert codes3[row] == codes[row], (text, row, margin)


class TestFuzzDifferential:
    #: 125 parametrized cases x 4 pairs each = 500 fuzzed pairs.
    PAIRS_PER_CASE = 4

    @pytest.mark.parametrize("case", range(125))
    def test_sign_guarantee_and_perturbation_flip(self, case):
        for sub in range(self.PAIRS_PER_CASE):
            _check_pair(20140 + case * self.PAIRS_PER_CASE + sub)


# ----------------------------------------------------------------------
# Edge semantics
# ----------------------------------------------------------------------


def _bounds_and_codes(source, signals):
    formula = parse_formula(source)
    trace = uniform_trace(signals, period=PERIOD)
    codes = evaluate_formula(formula, EvalContext(trace.to_view(PERIOD)))
    bounds = evaluate_robustness(formula, EvalContext(trace.to_view(PERIOD)))
    assert_sign_consistent(codes, bounds, where=source)
    return bounds, codes


class TestEdgeSemantics:
    def test_nan_comparisons_are_false_with_minus_inf_margin(self):
        nan = float("nan")
        for op in ("<", "<=", ">", ">="):
            bounds, codes = _bounds_and_codes(
                "x %s 1.0" % op, {"x": [0.5, nan, 2.0]}
            )
            assert codes[1] == FALSE_CODE
            assert bounds.lower[1] == -math.inf
            assert bounds.upper[1] == -math.inf

    def test_nan_inequality_is_true_with_plus_inf_margin(self):
        # IEEE: NaN != x is True, so the boolean evaluator returns
        # TRUE there and the margin must agree in sign.
        bounds, codes = _bounds_and_codes(
            "x != 1.0", {"x": [0.5, float("nan"), 1.0]}
        )
        assert codes[1] == TRUE_CODE
        assert bounds.lower[1] == math.inf
        assert bounds.upper[1] == math.inf
        assert codes[2] == FALSE_CODE

    def test_equality_distance(self):
        bounds, _ = _bounds_and_codes("x == 2.0", {"x": [2.0, 3.5, -1.0]})
        np.testing.assert_allclose(bounds.upper, [0.0, -1.5, -3.0])
        np.testing.assert_allclose(bounds.lower, bounds.upper)

    def test_inequality_distance(self):
        bounds, _ = _bounds_and_codes("x != 2.0", {"x": [2.0, 3.5, -1.0]})
        np.testing.assert_allclose(bounds.upper, [0.0, 1.5, 3.0])

    def test_boolean_atoms_lift_to_infinities(self):
        bounds, codes = _bounds_and_codes(
            "fresh(x)", {"x": [1.0, 2.0, 3.0]}
        )
        assert set(np.unique(codes)) <= {TRUE_CODE, FALSE_CODE}
        assert (np.abs(bounds.lower) == math.inf).all()
        assert (np.abs(bounds.upper) == math.inf).all()

    def test_vacuous_rule_margin_is_plus_inf(self, nominal_trace):
        # A purely boolean rule has nothing metric at stake: satisfied
        # everywhere lifts to +inf with no worst row.
        rule = Rule.from_text(
            "edge0", "bool only", "fresh(Velocity) or not fresh(Velocity)"
        )
        report = Monitor([rule]).check(nominal_trace, robustness=True)
        robustness = report.result("edge0").robustness
        assert robustness.lower == math.inf
        assert robustness.upper == math.inf
        assert robustness.worst_row is None
        assert robustness.worst_time is None

    def test_zero_row_view_summarizes_unknown_interval(self):
        empty = np.empty(0)
        robustness = summarize_bounds(empty, empty, empty)
        assert robustness.lower == -math.inf
        assert robustness.upper == math.inf
        assert robustness.worst_row is None
        assert robustness.worst_time is None
        assert not robustness.decided

    def test_unknown_pad_rows_straddle_zero(self):
        # The last rows of a future window are undecidable mid-trace;
        # their interval must straddle zero.
        bounds, codes = _bounds_and_codes(
            "always[0, 60ms] x > 1.0", {"x": [2.0] * 6}
        )
        unknown = codes == UNKNOWN_CODE
        assert unknown.any()
        assert (bounds.lower[unknown] == -math.inf).all()
        assert (bounds.upper[unknown] > 0).all()


# ----------------------------------------------------------------------
# Window width
# ----------------------------------------------------------------------


class TestWindowWidths:
    #: One future and one past window over propositional structure (the
    #: operator mix of the paper rules) at a parameterized width.
    FORMULA = (
        "always[0, %(ms)dms] (x < 2.0 and (y > -3.0 or once[0, %(ms)dms] y > 0.5))"
    )

    @pytest.mark.parametrize("width_rows", [25, 1000])
    @pytest.mark.parametrize("low,high", [(0.0, 1.0), (-4.0, 4.0)])
    def test_sign_consistency_across_widths(self, width_rows, low, high):
        # Benign values in [0, 1] keep every decided row true; values
        # in [-4, 4] make the window false almost everywhere.
        rng = np.random.default_rng(2014)
        rows = 3 * width_rows
        source = self.FORMULA % {"ms": round(width_rows * PERIOD * 1000)}
        _, codes = _bounds_and_codes(
            source,
            {
                "x": rng.uniform(low, high, size=rows).tolist(),
                "y": rng.uniform(low, high, size=rows).tolist(),
            },
        )
        expected = TRUE_CODE if low >= 0 else FALSE_CODE
        assert (codes == expected).sum() > width_rows
