"""Offline evaluation of specification formulas over trace views.

Evaluation is vectorized: every formula node produces one int8 verdict
code per trace row (see :mod:`repro.core.types` for the encoding), and
every expression node produces one float per row.  Bounded temporal
operators become sliding-window minima/maxima; rows whose window extends
past the end of the trace see UNKNOWN padding, which yields the correct
three-valued verdict for truncated evidence.

Numeric semantics follow IEEE-754 deliberately: NaN and infinities
propagate through arithmetic, and any comparison involving NaN is FALSE.
A monitored specification therefore treats a corrupted value as "does not
satisfy the bound", matching how the paper's rules reacted to exceptional
injected values.

Two layers keep the hot path fast:

* bounded temporal operators run on the O(n) sliding min/max kernels of
  :mod:`repro.core.windows` (amortized O(1) per row regardless of the
  window width, versus O(w) for the naive strided reduction);
* every :class:`EvalContext` memoizes node results by *structural*
  equality (see the cached hashes in :mod:`repro.core.ast`), so a
  subformula shared between rules — a common gate, an ``in_state`` test,
  a repeated signal derivation — is computed exactly once per trace.
  Cached arrays are shared, never mutated: every consumer that writes
  into a verdict array copies it first.

When a metrics registry is installed (see :mod:`repro.obs`), every
dispatch through :func:`evaluate_formula`, :func:`evaluate_expr` or
:func:`evaluate_robustness` (each built by one factory) records its wall
time into a per-node-type histogram
(``eval.{formula,expr,robust}.<NodeType>.seconds``), and the memo caches
count hits and misses into
``eval.memo.{formula,expr,robust}.{hits,misses}``.  Timings are
*inclusive* of operand evaluation — the recursion times each node
through the same public entry point — which is exactly the view needed
to answer "which operator dominates the check".  With the default
(disabled) registry the instrumentation is one attribute check.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Mapping, Optional, TypeVar

import numpy as np

from repro.core.ast import (
    Always,
    And,
    Binary,
    BoolConst,
    Comparison,
    Constant,
    Eventually,
    Expr,
    Formula,
    Fresh,
    Historically,
    Implies,
    InState,
    Next,
    Once,
    Not,
    Or,
    SignalPredicate,
    SignalRef,
    TraceFunc,
    Unary,
)
from repro.core.robustness import Bounds
from repro.core.types import (
    FALSE_CODE,
    TRUE_CODE,
    UNKNOWN_CODE,
    bools_to_codes,
)
from repro.core.windows import (
    bounds_to_rows,
    future_aggregate,
    past_aggregate,
)
from repro.errors import EvaluationError
from repro.logs.trace import TraceView
from repro.obs import get_registry

_Node = TypeVar("_Node", Expr, Formula)
_Result = TypeVar("_Result")


class EvalContext:
    """Everything a formula needs to evaluate against one trace view.

    Attributes:
        view: the uniformly sampled trace.
        machine_states: per-machine array of current state names per row
            (populated by the monitor after running its state machines).
        machine_alphabets: per-machine set of valid state names, used to
            reject typos in ``in_state`` references.
        memo: whether to memoize node results by structural equality.
            The caches are valid as long as the view's columns and the
            machine state arrays do not change; a caller that replaces
            ``machine_states`` after evaluating must call
            :meth:`invalidate_cache` (the monitor never does — it runs
            every machine before the first rule).
    """

    def __init__(
        self,
        view: TraceView,
        machine_states: Optional[Mapping[str, np.ndarray]] = None,
        machine_alphabets: Optional[Mapping[str, frozenset]] = None,
        memo: bool = True,
    ) -> None:
        self.view = view
        self.machine_states: Dict[str, np.ndarray] = dict(machine_states or {})
        self.machine_alphabets: Dict[str, frozenset] = dict(
            machine_alphabets or {}
        )
        self.memo = memo
        self.formula_cache: Optional[Dict[Formula, np.ndarray]] = (
            {} if memo else None
        )
        self.expr_cache: Optional[Dict[Expr, np.ndarray]] = (
            {} if memo else None
        )
        self.robust_cache: Optional[Dict[Formula, Bounds]] = (
            {} if memo else None
        )

    def invalidate_cache(self) -> None:
        """Drop every memoized result (after mutating machines/view)."""
        if self.formula_cache is not None:
            self.formula_cache.clear()
        if self.expr_cache is not None:
            self.expr_cache.clear()
        if self.robust_cache is not None:
            self.robust_cache.clear()

    @property
    def n_rows(self) -> int:
        """Number of rows under evaluation."""
        return self.view.n_rows


def _evaluate_expr(node: Expr, ctx: EvalContext) -> np.ndarray:
    if isinstance(node, Constant):
        return np.full(ctx.n_rows, node.value)
    if isinstance(node, SignalRef):
        return _signal_values(node.name, ctx)
    if isinstance(node, Unary):
        operand = evaluate_expr(node.operand, ctx)
        if node.op == "-":
            return -operand
        if node.op == "abs":
            return np.abs(operand)
        raise EvaluationError("unknown unary operator %r" % node.op)
    if isinstance(node, Binary):
        left = evaluate_expr(node.left, ctx)
        right = evaluate_expr(node.right, ctx)
        with np.errstate(all="ignore"):
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            if node.op == "min":
                return np.minimum(left, right)
            if node.op == "max":
                return np.maximum(left, right)
        raise EvaluationError("unknown binary operator %r" % node.op)
    if isinstance(node, TraceFunc):
        return _trace_func(node, ctx)
    raise EvaluationError("cannot evaluate expression node %r" % (node,))


def _evaluate_formula(node: Formula, ctx: EvalContext) -> np.ndarray:
    if isinstance(node, BoolConst):
        code = TRUE_CODE if node.value else FALSE_CODE
        return np.full(ctx.n_rows, code, dtype=np.int8)
    if isinstance(node, SignalPredicate):
        return bools_to_codes(_signal_values(node.name, ctx) != 0.0)
    if isinstance(node, Fresh):
        _require_signal(node.name, ctx)
        return bools_to_codes(ctx.view.fresh(node.name))
    if isinstance(node, Comparison):
        return _comparison(node, ctx)
    if isinstance(node, Not):
        return (2 - evaluate_formula(node.operand, ctx)).astype(np.int8)
    if isinstance(node, And):
        return np.minimum(
            evaluate_formula(node.left, ctx), evaluate_formula(node.right, ctx)
        )
    if isinstance(node, Or):
        return np.maximum(
            evaluate_formula(node.left, ctx), evaluate_formula(node.right, ctx)
        )
    if isinstance(node, Implies):
        left = evaluate_formula(node.left, ctx)
        right = evaluate_formula(node.right, ctx)
        return np.maximum((2 - left).astype(np.int8), right)
    if isinstance(node, Next):
        inner = evaluate_formula(node.operand, ctx)
        if len(inner) == 0:
            return inner.copy()
        shifted = np.empty_like(inner)
        if len(inner) > 1:
            shifted[:-1] = inner[1:]
        shifted[-1] = UNKNOWN_CODE
        return shifted
    if isinstance(node, Always):
        inner = evaluate_formula(node.operand, ctx)
        return _window_aggregate(inner, node.lo, node.hi, ctx, minimum=True)
    if isinstance(node, Eventually):
        inner = evaluate_formula(node.operand, ctx)
        return _window_aggregate(inner, node.lo, node.hi, ctx, minimum=False)
    if isinstance(node, Historically):
        inner = evaluate_formula(node.operand, ctx)
        return _past_window_aggregate(inner, node.lo, node.hi, ctx, minimum=True)
    if isinstance(node, Once):
        inner = evaluate_formula(node.operand, ctx)
        return _past_window_aggregate(inner, node.lo, node.hi, ctx, minimum=False)
    if isinstance(node, InState):
        return _in_state(node, ctx)
    raise EvaluationError("cannot evaluate formula node %r" % (node,))


def _evaluate_robustness(node: Formula, ctx: EvalContext) -> Bounds:
    if isinstance(node, Comparison):
        return Bounds.point(_comparison_margin(node, ctx))
    if isinstance(node, (BoolConst, SignalPredicate, Fresh, InState)):
        # Boolean atoms carry no metric: lift the three-valued verdict
        # into the lattice (TRUE is infinitely robust, FALSE infinitely
        # violated, UNKNOWN the whole line).  Delegating to the boolean
        # evaluator reuses its validation and its memo entry.
        return _bounds_from_codes(evaluate_formula(node, ctx))
    if isinstance(node, Not):
        inner = evaluate_robustness(node.operand, ctx)
        return Bounds(-inner.upper, -inner.lower)
    if isinstance(node, And):
        left = evaluate_robustness(node.left, ctx)
        right = evaluate_robustness(node.right, ctx)
        return Bounds(
            np.minimum(left.lower, right.lower),
            np.minimum(left.upper, right.upper),
        )
    if isinstance(node, Or):
        left = evaluate_robustness(node.left, ctx)
        right = evaluate_robustness(node.right, ctx)
        return Bounds(
            np.maximum(left.lower, right.lower),
            np.maximum(left.upper, right.upper),
        )
    if isinstance(node, Implies):
        # a -> b  ≡  (not a) or b, interval-wise.
        left = evaluate_robustness(node.left, ctx)
        right = evaluate_robustness(node.right, ctx)
        return Bounds(
            np.maximum(-left.upper, right.lower),
            np.maximum(-left.lower, right.upper),
        )
    if isinstance(node, Next):
        inner = evaluate_robustness(node.operand, ctx)
        if len(inner.lower) == 0:
            return Bounds(inner.lower.copy(), inner.upper.copy())
        lower = np.empty_like(inner.lower)
        upper = np.empty_like(inner.upper)
        if len(lower) > 1:
            lower[:-1] = inner.lower[1:]
            upper[:-1] = inner.upper[1:]
        lower[-1] = -np.inf
        upper[-1] = np.inf
        return Bounds(lower, upper)
    if isinstance(node, Always):
        inner = evaluate_robustness(node.operand, ctx)
        return _robust_window(inner, node.lo, node.hi, ctx, minimum=True)
    if isinstance(node, Eventually):
        inner = evaluate_robustness(node.operand, ctx)
        return _robust_window(inner, node.lo, node.hi, ctx, minimum=False)
    if isinstance(node, Historically):
        inner = evaluate_robustness(node.operand, ctx)
        return _robust_past_window(inner, node.lo, node.hi, ctx, minimum=True)
    if isinstance(node, Once):
        inner = evaluate_robustness(node.operand, ctx)
        return _robust_past_window(inner, node.lo, node.hi, ctx, minimum=False)
    raise EvaluationError(
        "cannot evaluate robustness of formula node %r" % (node,)
    )


def _dispatcher(
    kind: str,
    cache: str,
    evaluate: Callable[[_Node, EvalContext], _Result],
    doc: str,
) -> Callable[[_Node, EvalContext], _Result]:
    """The public entry point of ``evaluate``: memoized in the context's
    ``cache`` attribute and, on an enabled registry, counting
    ``eval.memo.<kind>.{hits,misses}`` and timing each node into
    ``eval.<kind>.<NodeType>.seconds``."""
    hits = "eval.memo.%s.hits" % kind
    misses = "eval.memo.%s.misses" % kind
    seconds = "eval." + kind + ".%s.seconds"

    def dispatch(node: _Node, ctx: EvalContext) -> _Result:
        registry = get_registry()
        memo = getattr(ctx, cache)
        if memo is not None:
            cached = memo.get(node)
            if cached is not None:
                if registry.enabled:
                    registry.counter(hits).inc()
                return cached
        if not registry.enabled:
            result = evaluate(node, ctx)
        else:
            started = time.perf_counter()
            result = evaluate(node, ctx)
            registry.histogram(seconds % type(node).__name__).observe(
                time.perf_counter() - started
            )
        if memo is not None:
            if registry.enabled:
                registry.counter(misses).inc()
            memo[node] = result
        return result

    dispatch.__name__ = dispatch.__qualname__ = evaluate.__name__.lstrip("_")
    dispatch.__doc__ = doc
    return dispatch


evaluate_expr: Callable[[Expr, EvalContext], np.ndarray] = _dispatcher(
    "expr",
    "expr_cache",
    _evaluate_expr,
    """Evaluate a numeric expression to one float per row.

    Results are memoized per context by structural node equality; the
    returned array is shared, so callers must copy before writing.
    """,
)

evaluate_formula: Callable[[Formula, EvalContext], np.ndarray] = _dispatcher(
    "formula",
    "formula_cache",
    _evaluate_formula,
    """Evaluate a formula to one int8 verdict code per row.

    Results are memoized per context by structural node equality; the
    returned array is shared, so callers must copy before writing.
    """,
)

evaluate_robustness: Callable[[Formula, EvalContext], Bounds] = _dispatcher(
    "robust",
    "robust_cache",
    _evaluate_robustness,
    """Evaluate a formula's robustness interval, one ``[lower, upper]``
    pair of floats per row.

    The numeric lattice mirrors the boolean one connective for
    connective (min for ``and``, max for ``or``, inf/sup over temporal
    windows via the same O(n) kernels), with signed distances at
    comparisons and ``±inf`` at boolean atoms; truncated windows
    aggregate against ``[-inf, +inf]`` padding exactly where the boolean
    path pads UNKNOWN.  See :mod:`repro.core.robustness` for the sign
    consistency invariant relating the two.

    Results are memoized per context by structural node equality; the
    returned arrays are shared, so callers must copy before writing.
    """,
)


def future_reach(node: Formula, period: float) -> float:
    """How far into the future a formula's verdict can depend, in seconds.

    A row's verdict is final once the trace extends ``future_reach``
    seconds past it — the quantity an online monitor needs to decide how
    long to wait before emitting a verdict.  ``next`` reaches one sample
    period; bounded future operators reach their upper bound plus whatever
    their operand reaches; past operators add nothing.
    """
    if isinstance(node, (Always, Eventually)):
        return node.hi + future_reach(node.operand, period)
    if isinstance(node, (Once, Historically)):
        return future_reach(node.operand, period)
    if isinstance(node, Next):
        return period + future_reach(node.operand, period)
    if isinstance(node, Not):
        return future_reach(node.operand, period)
    if isinstance(node, (And, Or, Implies)):
        return max(
            future_reach(node.left, period), future_reach(node.right, period)
        )
    return 0.0


def past_reach(node: Formula, period: float) -> float:
    """How far into the past a formula's verdict can depend, in seconds.

    The history an online monitor must retain behind its emission
    frontier for verdicts to match an offline evaluation.
    """
    if isinstance(node, (Once, Historically)):
        return node.hi + past_reach(node.operand, period)
    if isinstance(node, (Always, Eventually, Next)):
        return past_reach(node.operand, period)
    if isinstance(node, Not):
        return past_reach(node.operand, period)
    if isinstance(node, (And, Or, Implies)):
        return max(
            past_reach(node.left, period), past_reach(node.right, period)
        )
    return 0.0


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _require_signal(name: str, ctx: EvalContext) -> None:
    if name not in ctx.view:
        raise EvaluationError(
            "formula references signal %r, which the trace view does not "
            "carry (available: %s)" % (name, ", ".join(ctx.view.signal_names))
        )


def _signal_values(name: str, ctx: EvalContext) -> np.ndarray:
    _require_signal(name, ctx)
    return ctx.view.values(name)


def _trace_func(node: TraceFunc, ctx: EvalContext) -> np.ndarray:
    _require_signal(node.signal, ctx)
    view = ctx.view
    if node.kind == "delta":
        return view.delta_fresh(node.signal)
    if node.kind == "delta_naive":
        return view.delta_naive(node.signal)
    if node.kind == "rate":
        return view.rate(node.signal)
    if node.kind == "prev":
        values = view.values(node.signal)
        if len(values) == 0:
            return values.copy()
        previous = np.empty_like(values)
        previous[0] = values[0]
        if len(values) > 1:
            previous[1:] = values[:-1]
        return previous
    if node.kind == "age":
        return view.fresh_age(node.signal).astype(float)
    raise EvaluationError("unknown trace function %r" % node.kind)


def _comparison(node: Comparison, ctx: EvalContext) -> np.ndarray:
    left = evaluate_expr(node.left, ctx)
    right = evaluate_expr(node.right, ctx)
    with np.errstate(invalid="ignore"):
        if node.op == "<":
            result = left < right
        elif node.op == "<=":
            result = left <= right
        elif node.op == ">":
            result = left > right
        elif node.op == ">=":
            result = left >= right
        elif node.op == "==":
            result = left == right
        elif node.op == "!=":
            result = left != right
        else:
            raise EvaluationError("unknown comparison operator %r" % node.op)
    return bools_to_codes(result)


def _comparison_margin(node: Comparison, ctx: EvalContext) -> np.ndarray:
    """Signed distance to the comparison boundary, one float per row.

    Positive where the comparison holds, negative where it fails, zero
    on the boundary (consistent with the boolean lattice for the
    non-strict operators; a strict comparison at exact equality is FALSE
    with margin 0 — sign consistency requires only ``margin > 0 ⇒ TRUE``
    and ``margin < 0 ⇒ FALSE``).  Rows where either side is NaN are
    boolean-FALSE whatever the operator, so their margin is ``-inf``:
    a corrupted value is infinitely far from satisfying the bound.
    """
    left = evaluate_expr(node.left, ctx)
    right = evaluate_expr(node.right, ctx)
    with np.errstate(invalid="ignore"):
        if node.op in ("<", "<="):
            margin = right - left
        elif node.op in (">", ">="):
            margin = left - right
        elif node.op == "==":
            margin = -np.abs(left - right)
        elif node.op == "!=":
            margin = np.abs(left - right)
        else:
            raise EvaluationError(
                "unknown comparison operator %r" % node.op
            )
        # inf - inf and NaN operands both yield NaN; fold every NaN to
        # the infinity whose sign agrees with the boolean verdict.  IEEE
        # makes NaN compare unequal to everything, so ``!=`` holds
        # (margin +inf) while every other operator fails (margin -inf).
        nan_margin = np.inf if node.op == "!=" else -np.inf
        return np.where(np.isnan(margin), nan_margin, margin)


def _bounds_from_codes(codes: np.ndarray) -> Bounds:
    """Lift three-valued verdict codes into robustness intervals."""
    lower = np.where(codes == TRUE_CODE, np.inf, -np.inf)
    upper = np.where(codes == FALSE_CODE, -np.inf, np.inf)
    return Bounds(lower, upper)


def _robust_window(
    bounds: Bounds, lo: float, hi: float, ctx: EvalContext, minimum: bool
) -> Bounds:
    """Sliding inf/sup of robustness bounds over the window ``[lo, hi]``.

    Rows whose window extends past the trace end aggregate their lower
    bound against ``-inf`` and their upper bound against ``+inf`` — the
    missing evidence could be arbitrarily bad or good — which is exactly
    the interval counterpart of the boolean path's UNKNOWN padding.
    """
    lo_idx, hi_idx = bounds_to_rows(lo, hi, ctx.view.period)
    return Bounds(
        future_aggregate(
            bounds.lower, lo_idx, hi_idx, minimum=minimum, pad_value=-np.inf
        ),
        future_aggregate(
            bounds.upper, lo_idx, hi_idx, minimum=minimum, pad_value=np.inf
        ),
    )


def _robust_past_window(
    bounds: Bounds, lo: float, hi: float, ctx: EvalContext, minimum: bool
) -> Bounds:
    """Past-window mirror of :func:`_robust_window`."""
    lo_idx, hi_idx = bounds_to_rows(lo, hi, ctx.view.period)
    return Bounds(
        past_aggregate(
            bounds.lower, lo_idx, hi_idx, minimum=minimum, pad_value=-np.inf
        ),
        past_aggregate(
            bounds.upper, lo_idx, hi_idx, minimum=minimum, pad_value=np.inf
        ),
    )


def _window_aggregate(
    codes: np.ndarray,
    lo: float,
    hi: float,
    ctx: EvalContext,
    minimum: bool,
) -> np.ndarray:
    """Sliding min/max of ``codes`` over the time window ``[lo, hi]``.

    The window is converted to row offsets on the uniform grid and
    aggregated by the O(n) kernels of :mod:`repro.core.windows`.  Rows
    whose window extends past the trace end aggregate against UNKNOWN
    padding, which propagates exactly the right three-valued verdict for
    truncated evidence (see :mod:`repro.core.types`).
    """
    lo_idx, hi_idx = bounds_to_rows(lo, hi, ctx.view.period)
    return future_aggregate(codes, lo_idx, hi_idx, minimum=minimum)


def _past_window_aggregate(
    codes: np.ndarray,
    lo: float,
    hi: float,
    ctx: EvalContext,
    minimum: bool,
) -> np.ndarray:
    """Sliding min/max of ``codes`` over the *past* window ``[lo, hi]``.

    Mirrors :func:`_window_aggregate` backwards: rows whose window
    precedes the start of the trace aggregate against UNKNOWN padding.
    """
    lo_idx, hi_idx = bounds_to_rows(lo, hi, ctx.view.period)
    return past_aggregate(codes, lo_idx, hi_idx, minimum=minimum)


def _in_state(node: InState, ctx: EvalContext) -> np.ndarray:
    states = ctx.machine_states.get(node.machine)
    if states is None:
        raise EvaluationError(
            "formula references state machine %r, which the monitor does "
            "not define" % node.machine
        )
    alphabet = ctx.machine_alphabets.get(node.machine)
    if alphabet is not None and node.state not in alphabet:
        raise EvaluationError(
            "state machine %r has no state %r (states: %s)"
            % (node.machine, node.state, ", ".join(sorted(alphabet)))
        )
    return bools_to_codes(states == node.state)
