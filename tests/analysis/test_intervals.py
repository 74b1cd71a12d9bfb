"""Interval arithmetic, static comparison, and the AST walker."""

import math

import pytest

from repro.analysis import ALWAYS, MAYBE, NEVER, Interval, compare, expr_interval
from repro.analysis.intervals import (
    TOP,
    EmptyMeet,
    abs_,
    add,
    div,
    intersect,
    max_,
    min_,
    mul,
    neg,
    negate_status,
    point,
    span,
    sub,
)
from repro.analysis.walker import contains, iter_nodes, signal_uses, walk
from repro.core.ast import Comparison, SignalRef, TraceFunc
from repro.core.parser import parse_expr, parse_formula


class TestInterval:
    def test_rejects_nan_and_inverted(self):
        with pytest.raises(ValueError):
            Interval(5.0, 2.0)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)

    def test_basic_ops(self):
        a, b = Interval(1, 3), Interval(-2, 4)
        assert add(a, b) == Interval(-1, 7)
        assert sub(a, b) == Interval(-3, 5)
        assert neg(a) == Interval(-3, -1)
        assert mul(Interval(-1, 2), Interval(3, 5)) == Interval(-5, 10)
        assert abs_(Interval(-3, 2)) == Interval(0, 3)

    def test_div_through_zero_is_top(self):
        assert div(Interval(1, 2), Interval(-1, 1)) == TOP
        assert div(Interval(4, 8), Interval(2, 4)) == Interval(1, 4)

    def test_span_symmetric(self):
        assert span(Interval(10, 30)) == Interval(-20, 20)
        assert span(TOP) == TOP

    def test_mul_zero_times_infinity(self):
        assert mul(point(0.0), TOP) == point(0.0)


class TestDivisionEdgeCases:
    def test_divisor_touching_zero_at_either_endpoint_is_top(self):
        # contains(0) is inclusive: [0, 2] and [-2, 0] both admit a
        # zero divisor, so the quotient must widen to the full line.
        assert div(Interval(1, 2), Interval(0, 2)) == TOP
        assert div(Interval(1, 2), Interval(-2, 0)) == TOP
        assert div(Interval(1, 2), point(0.0)) == TOP

    def test_negative_divisor_flips_the_interval(self):
        assert div(Interval(4, 8), Interval(-4, -2)) == Interval(-4, -1)

    def test_infinite_dividend_over_finite_divisor(self):
        assert div(Interval(0, math.inf), Interval(2, 4)) == Interval(
            0, math.inf
        )

    def test_inf_over_inf_is_top_not_nan(self):
        # IEEE inf/inf is NaN; the lattice must catch it before the
        # Interval constructor would reject the NaN endpoint.
        assert div(Interval(1, math.inf), Interval(2, math.inf)) == TOP
        assert div(TOP, Interval(2, math.inf)) == TOP

    def test_zero_dividend_endpoint_never_produces_nan(self):
        # 0/inf would be fine, but the explicit 0-guard also covers
        # the 0 * sign bookkeeping; the result stays exact.
        assert div(point(0.0), Interval(2, math.inf)) == point(0.0)


class TestInfiniteEndpoints:
    def test_intervals_admit_infinite_endpoints(self):
        assert Interval(math.inf, math.inf).is_point
        assert not Interval(-math.inf, 0).bounded

    def test_opposed_infinities_widen_not_raise(self):
        # inf + -inf is NaN; the indeterminate endpoint widens to the
        # conservative infinity, so no invalid interval is ever built.
        assert add(TOP, point(math.inf)) == TOP
        assert add(point(math.inf), point(-math.inf)) == TOP
        assert sub(point(math.inf), point(math.inf)) == TOP
        assert sub(Interval(0, math.inf), Interval(1, math.inf)) == TOP

    def test_same_signed_infinities_compose(self):
        assert add(Interval(0, math.inf), Interval(1, 2)) == Interval(
            1, math.inf
        )
        assert neg(Interval(-math.inf, 3)) == Interval(-3, math.inf)

    def test_unbounded_times_zero_spanning(self):
        assert mul(Interval(0, math.inf), Interval(-1, 1)) == TOP

    def test_min_max_with_unbounded_sides(self):
        assert min_(Interval(-math.inf, 0), Interval(1, 2)) == Interval(
            -math.inf, 0
        )
        assert max_(Interval(-math.inf, 0), Interval(1, 2)) == Interval(
            1, 2
        )

    def test_abs_of_unbounded(self):
        assert abs_(TOP) == Interval(0, math.inf)
        assert abs_(Interval(-math.inf, -1)) == Interval(1, math.inf)


class TestIntersect:
    def test_overlap(self):
        assert intersect(Interval(0, 5), Interval(3, 9)) == Interval(3, 5)

    def test_nested(self):
        assert intersect(TOP, Interval(1, 2)) == Interval(1, 2)

    def test_touching_endpoints_give_a_point(self):
        assert intersect(Interval(0, 5), Interval(5, 9)) == point(5.0)

    def test_disjoint_is_none_not_inverted(self):
        assert intersect(Interval(0, 1), Interval(2, 3)) is None
        assert intersect(Interval(2, 3), Interval(0, 1)) is None

    def test_commutative(self):
        a, b = Interval(-2, 4), Interval(1, 9)
        assert intersect(a, b) == intersect(b, a)


class TestConcreteContainment:
    """Abstract ops cross-checked against concrete float evaluation."""

    INTERVALS = (
        point(0.0),
        Interval(-3.5, -1.0),
        Interval(-1.0, 2.0),
        Interval(0.0, 4.0),
        Interval(2.5, 7.0),
        Interval(-math.inf, -2.0),
        Interval(3.0, math.inf),
        TOP,
    )

    def samples(self, interval, rng, count=7):
        lo = max(interval.lo, -1e6)
        hi = min(interval.hi, 1e6)
        values = [lo, hi]
        values.extend(lo + (hi - lo) * rng.random() for _ in range(count))
        if interval.contains(0.0):
            values.append(0.0)
        return values

    def test_binary_ops_contain_all_concrete_results(self):
        import random

        operations = {
            add: lambda x, y: x + y,
            sub: lambda x, y: x - y,
            mul: lambda x, y: x * y,
            div: lambda x, y: x / y,
            min_: min,
            max_: max,
        }
        rng = random.Random(20140623)
        for a in self.INTERVALS:
            for b in self.INTERVALS:
                for abstract, concrete in operations.items():
                    result = abstract(a, b)
                    for x in self.samples(a, rng):
                        for y in self.samples(b, rng):
                            if concrete is operations[div] and y == 0.0:
                                continue
                            value = concrete(x, y)
                            if math.isnan(value):
                                continue
                            assert result.contains(value), (
                                "%s(%s, %s): %r not in %s"
                                % (abstract.__name__, a, b, value, result)
                            )

    def test_unary_ops_contain_all_concrete_results(self):
        import random

        rng = random.Random(8)
        for a in self.INTERVALS:
            for x in self.samples(a, rng):
                assert neg(a).contains(-x)
                assert abs_(a).contains(abs(x))
                assert span(a).contains(x - a.lo if a.bounded else 0.0)

    def test_intersection_agrees_with_membership(self):
        import random

        rng = random.Random(99)
        for a in self.INTERVALS:
            for b in self.INTERVALS:
                overlap = intersect(a, b)
                for x in self.samples(a, rng) + self.samples(b, rng):
                    both = a.contains(x) and b.contains(x)
                    if overlap is None:
                        assert not both
                    else:
                        assert both == overlap.contains(x)


class TestExprInterval:
    ENV = {"Velocity": Interval(0, 90), "Bool": Interval(0, 1)}

    def value_of(self, source, nan_signals=frozenset(), bounds=None):
        return expr_interval(
            parse_expr(source), self.ENV, nan_signals, bounds=bounds
        )

    def test_signal_and_constant(self):
        assert self.value_of("Velocity") == (Interval(0, 90), False)
        assert self.value_of("3.5") == (point(3.5), False)
        # Unranged signals are unknown: unbounded and possibly NaN.
        assert self.value_of("Unknown") == (TOP, True)
        assert self.value_of("Velocity", {"Velocity"}) == (
            Interval(0, 90),
            True,
        )

    def test_arithmetic_composes(self):
        assert self.value_of("Velocity + 10") == (Interval(10, 100), False)
        assert self.value_of("-Velocity") == (Interval(-90, 0), False)
        assert self.value_of("abs(Velocity - 90)") == (Interval(0, 90), False)

    def test_trace_functions(self):
        assert self.value_of("prev(Velocity)") == (Interval(0, 90), False)
        assert self.value_of("delta(Velocity)") == (Interval(-90, 90), False)
        assert self.value_of("age(Velocity)") == (
            Interval(0, math.inf),
            False,
        )
        assert self.value_of("rate(Velocity)") == (TOP, False)
        assert self.value_of("delta(Unknown)") == (TOP, True)

    def test_divisor_spanning_zero_may_be_nan(self):
        assert self.value_of("10 / (Velocity - 45)") == (TOP, True)
        assert self.value_of("10 / (Velocity + 1)") == (
            Interval(10 / 91, 10),
            False,
        )

    def test_opposed_infinite_constants_widen(self):
        # The lexer reads 1e999 as inf; inf - inf is NaN at run time.
        assert self.value_of("1e999 - 1e999") == (TOP, True)
        assert self.value_of("Velocity - (1e999 - 1e999)") == (TOP, True)

    def test_keyed_bounds_meet_on_the_way_up(self):
        velocity = parse_expr("Velocity")
        assert self.value_of(
            "abs(Velocity)", bounds={velocity: Interval(10, 20)}
        ) == (Interval(10, 20), False)
        assert self.value_of(
            "Velocity - 5", bounds={velocity: Interval(10, 20)}
        ) == (Interval(5, 15), False)

    def test_empty_meet_raises(self):
        bounds = {
            parse_expr("Velocity"): Interval(60, 90),
            parse_expr("abs(Velocity)"): Interval(-math.inf, 50),
        }
        with pytest.raises(EmptyMeet):
            self.value_of("abs(Velocity)", bounds=bounds)


class TestCompare:
    def test_decided_orderings(self):
        assert compare("<", Interval(0, 5), Interval(10, 20)) == ALWAYS
        assert compare("<", Interval(10, 20), Interval(0, 5)) == NEVER
        assert compare("<", Interval(0, 15), Interval(10, 20)) == MAYBE
        assert compare(">", Interval(10, 20), Interval(0, 5)) == ALWAYS
        assert compare("<=", Interval(0, 5), Interval(5, 9)) == ALWAYS

    def test_equality(self):
        assert compare("==", point(3), point(3)) == ALWAYS
        assert compare("==", Interval(0, 1), Interval(2, 3)) == NEVER
        assert compare("!=", Interval(0, 1), Interval(2, 3)) == ALWAYS
        assert compare("==", Interval(0, 5), Interval(3, 9)) == MAYBE

    def test_negate_status(self):
        assert negate_status(ALWAYS) == NEVER
        assert negate_status(NEVER) == ALWAYS
        assert negate_status(MAYBE) == MAYBE


class TestWalker:
    FORMULA = parse_formula(
        "always[0, 1s] (Velocity > 10 -> fresh(TargetRange))"
    )

    def test_walk_is_preorder_and_complete(self):
        nodes = list(walk(self.FORMULA))
        assert nodes[0] is self.FORMULA
        names = [type(n).__name__ for n in nodes]
        assert "Comparison" in names
        assert "Fresh" in names
        assert "SignalRef" in names

    def test_iter_nodes_filters_by_type(self):
        comparisons = list(iter_nodes(self.FORMULA, Comparison))
        assert len(comparisons) == 1
        refs = list(iter_nodes(self.FORMULA, SignalRef))
        assert [r.name for r in refs] == ["Velocity"]

    def test_contains(self):
        assert contains(
            self.FORMULA, lambda n: isinstance(n, SignalRef)
        )
        assert not contains(
            self.FORMULA, lambda n: isinstance(n, TraceFunc)
        )

    def test_signal_uses_covers_all_reference_forms(self):
        formula = parse_formula(
            "Bool and delta(Torque) > 0 and fresh(Range) and Speed > 1"
        )
        names = {name for name, _ in signal_uses(formula)}
        assert names == {"Bool", "Torque", "Range", "Speed"}

    def test_children_on_every_paper_rule_node(self):
        # Every node reachable from the paper rules exposes children().
        from repro.rules.safety_rules import paper_rules

        for rule in paper_rules():
            for node in walk(rule.effective_formula()):
                assert isinstance(node.children(), tuple)
