"""The one abstract evaluator of spec expressions: intervals plus NaN.

Every static analysis reads rule expressions through
:func:`expr_interval`.  Its abstract value is a pair: a closed
:class:`Interval` bounding every non-NaN value the expression can take,
and a *may-NaN* flag.  The flag is what keeps ``signal * 0`` sound when
the signal can be NaN (``NaN * 0`` is NaN while the interval product
collapses to ``[0, 0]``); it is raised exactly where IEEE arithmetic
makes NaN from non-NaN operands and propagated through every operator,
matching the dynamic robustness semantics of
:mod:`repro.core.evaluator`.  Endpoint arithmetic widens: an
indeterminate ``inf - inf`` endpoint goes to the conservative infinity,
so no invalid interval is ever built.

The environment is a map of signal ranges (see
:func:`repro.analysis.analyzer.database_env`, which seeds them from the
DBC physical ranges) plus the set of signals that may also be NaN; a
signal absent from the ranges is unbounded and may be NaN.  The callers
read what they need from the pair:

* speclint (:mod:`repro.analysis.checks`) decides comparisons from the
  intervals alone — an in-range, non-NaN model, so a comparison flagged
  "always true" can still be falsified by NaN or an out-of-range
  injection, but as *specified intent* it is dead weight;
* the margin prover (:mod:`repro.analysis.margins`) uses both parts;
* the alphabet coherence filter (:mod:`repro.analysis.predicates`)
  passes per-letter ``bounds`` on keyed sub-expressions, which the walk
  meets at each keyed node, raising :class:`EmptyMeet` when the letter
  asks for an impossible value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Optional, Tuple

from repro.core.ast import (
    Binary,
    Constant,
    Expr,
    SignalRef,
    TraceFunc,
    Unary,
)

#: Three-valued outcome of a static comparison.
ALWAYS = "always"
NEVER = "never"
MAYBE = "maybe"

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]``; infinities mark unbounded sides."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError("bad interval [%r, %r]" % (self.lo, self.hi))

    @property
    def bounded(self) -> bool:
        """Whether both ends are finite."""
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def is_point(self) -> bool:
        """Whether the interval holds exactly one value."""
        return self.lo == self.hi

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lo <= value <= self.hi

    def __str__(self) -> str:
        return "[%g, %g]" % (self.lo, self.hi)


#: The whole real line — the "don't know" element.
TOP = Interval(-_INF, _INF)


def point(value: float) -> Interval:
    """The degenerate interval ``[value, value]``."""
    return Interval(value, value)


def _safe_mul(a: float, b: float) -> float:
    # 0 * inf is 0 here: the zero factor comes from a real bound.
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _widened(lo: float, hi: float) -> Interval:
    """``[lo, hi]`` with an indeterminate (NaN) endpoint widened outward."""
    return Interval(
        -_INF if math.isnan(lo) else lo, _INF if math.isnan(hi) else hi
    )


def add(a: Interval, b: Interval) -> Interval:
    """Interval sum; an ``inf + -inf`` endpoint widens outward."""
    return _widened(a.lo + b.lo, a.hi + b.hi)


def sub(a: Interval, b: Interval) -> Interval:
    """Interval difference; an ``inf - inf`` endpoint widens outward."""
    return _widened(a.lo - b.hi, a.hi - b.lo)


def neg(a: Interval) -> Interval:
    """Interval negation."""
    return Interval(-a.hi, -a.lo)


def mul(a: Interval, b: Interval) -> Interval:
    """Interval product."""
    products = [
        _safe_mul(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)
    ]
    return Interval(min(products), max(products))


def div(a: Interval, b: Interval) -> Interval:
    """Interval quotient; the full line when the divisor can be zero."""
    if b.contains(0.0):
        return TOP
    quotients = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            if math.isinf(x) and math.isinf(y):
                return TOP
            quotients.append(0.0 if x == 0.0 else x / y)
    return Interval(min(quotients), max(quotients))


def abs_(a: Interval) -> Interval:
    """Interval absolute value."""
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return neg(a)
    return Interval(0.0, max(-a.lo, a.hi))


def min_(a: Interval, b: Interval) -> Interval:
    """Pointwise two-argument minimum."""
    return Interval(min(a.lo, b.lo), min(a.hi, b.hi))


def max_(a: Interval, b: Interval) -> Interval:
    """Pointwise two-argument maximum."""
    return Interval(max(a.lo, b.lo), max(a.hi, b.hi))


def intersect(a: Interval, b: Interval) -> Optional[Interval]:
    """The overlap of two intervals, or ``None`` when they are disjoint.

    ``None`` (the empty set) is deliberately not an :class:`Interval`:
    the dataclass invariant ``lo <= hi`` means every Interval holds at
    least one value, so emptiness must be explicit at the call site
    rather than smuggled through as an inverted pair.
    """
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    return Interval(lo, hi)


def span(a: Interval) -> Interval:
    """Range of differences between two values of ``a`` (for ``delta``)."""
    if not a.bounded:
        return TOP
    width = a.hi - a.lo
    return Interval(-width, width)


class EmptyMeet(Exception):
    """A keyed sub-expression's bound misses every value it can take."""


_BINARY = {
    "+": add,
    "-": sub,
    "*": mul,
    "/": div,
    "min": min_,
    "max": max_,
}


def _binary_makes_nan(op: str, a: Interval, b: Interval) -> bool:
    """Whether ``x op y`` can be NaN for some non-NaN ``x`` in ``a``,
    ``y`` in ``b`` (``inf - inf``, ``0 * inf``, ``x / 0``, ``inf / inf``);
    ``min``/``max`` only propagate NaN."""
    if op == "+":
        return (a.hi == _INF and b.lo == -_INF) or (
            a.lo == -_INF and b.hi == _INF
        )
    if op == "-":
        return (a.hi == _INF and b.hi == _INF) or (
            a.lo == -_INF and b.lo == -_INF
        )
    if op == "*":
        return (not a.bounded and b.contains(0.0)) or (
            not b.bounded and a.contains(0.0)
        )
    if op == "/":
        return b.contains(0.0) or (not a.bounded and not b.bounded)
    return False


def _signal_value(
    name: str, ranges: Mapping[str, Interval], nan_signals: AbstractSet[str]
) -> Tuple[Interval, bool]:
    interval = ranges.get(name)
    if interval is None:
        return TOP, True
    return interval, name in nan_signals


def expr_interval(
    expr: Expr,
    ranges: Mapping[str, Interval],
    nan_signals: AbstractSet[str] = frozenset(),
    bounds: Optional[Mapping[Expr, Interval]] = None,
) -> Tuple[Interval, bool]:
    """Abstract value of ``expr``: value interval plus a may-NaN flag.

    ``ranges`` maps signal names to their value ranges and
    ``nan_signals`` names the ranged signals that may also be NaN; a
    signal absent from ``ranges`` is unbounded and may be NaN.  Every
    sub-expression that is a key of ``bounds`` has its interval met
    with that bound; an empty meet raises :class:`EmptyMeet`.
    """
    interval, may_nan = _expr_value(expr, ranges, nan_signals, bounds)
    if bounds:
        bound = bounds.get(expr)
        if bound is not None:
            met = intersect(interval, bound)
            if met is None:
                raise EmptyMeet("%s cannot lie in %s" % (expr, bound))
            interval = met
    return interval, may_nan


def _expr_value(
    expr: Expr,
    ranges: Mapping[str, Interval],
    nan_signals: AbstractSet[str],
    bounds: Optional[Mapping[Expr, Interval]],
) -> Tuple[Interval, bool]:
    if isinstance(expr, Constant):
        value = float(expr.value)
        if math.isnan(value):
            return TOP, True
        return point(value), False
    if isinstance(expr, SignalRef):
        return _signal_value(expr.name, ranges, nan_signals)
    if isinstance(expr, Unary):
        inner, nan = expr_interval(expr.operand, ranges, nan_signals, bounds)
        if expr.op == "-":
            return neg(inner), nan
        if expr.op == "abs":
            return abs_(inner), nan
        return TOP, True
    if isinstance(expr, Binary):
        left, left_nan = expr_interval(expr.left, ranges, nan_signals, bounds)
        right, right_nan = expr_interval(
            expr.right, ranges, nan_signals, bounds
        )
        combine = _BINARY.get(expr.op)
        if combine is None:
            return TOP, True
        nan = left_nan or right_nan or _binary_makes_nan(expr.op, left, right)
        return combine(left, right), nan
    if isinstance(expr, TraceFunc):
        # Trace functions read other samples than the current row's, so
        # they see the signal's full range, never a keyed bound on it.
        base, base_nan = _signal_value(expr.signal, ranges, nan_signals)
        if expr.kind == "prev":
            return base, base_nan
        if expr.kind in ("delta", "delta_naive"):
            # Difference of two held samples, or exactly 0 before two
            # updates have arrived; 0 is always inside span().  An
            # unbounded base can difference inf - inf into NaN.
            return span(base), base_nan or not base.bounded
        if expr.kind == "rate":
            # delta over a positive finite freshness gap: any magnitude.
            return TOP, base_nan or not base.bounded
        if expr.kind == "age":
            # Row counts: non-negative integers, never NaN.
            return Interval(0.0, _INF), False
    return TOP, True


def compare(op: str, left: Interval, right: Interval) -> str:
    """Decide a comparison statically: ALWAYS, NEVER, or MAYBE.

    Sound for in-range, non-NaN data: ALWAYS/NEVER are only returned
    when every pair of values from the two intervals agrees.
    """
    if op == ">":
        return compare("<", right, left)
    if op == ">=":
        return compare("<=", right, left)
    if op == "<":
        if left.hi < right.lo:
            return ALWAYS
        if left.lo >= right.hi:
            return NEVER
        return MAYBE
    if op == "<=":
        if left.hi <= right.lo:
            return ALWAYS
        if left.lo > right.hi:
            return NEVER
        return MAYBE
    if op == "==":
        if left.is_point and right.is_point and left.lo == right.lo:
            return ALWAYS
        if left.hi < right.lo or right.hi < left.lo:
            return NEVER
        return MAYBE
    if op == "!=":
        inverse = compare("==", left, right)
        if inverse == ALWAYS:
            return NEVER
        if inverse == NEVER:
            return ALWAYS
        return MAYBE
    return MAYBE


def negate_status(status: str) -> str:
    """Three-valued NOT over ALWAYS/NEVER/MAYBE."""
    if status == ALWAYS:
        return NEVER
    if status == NEVER:
        return ALWAYS
    return MAYBE
