"""The individual speclint checks.

Each check is a generator taking the object under analysis plus a
:class:`LintContext` and yielding :class:`~repro.analysis.diagnostics.
Diagnostic` findings.  Checks are pure — no I/O, no trace data — they
look only at parsed ASTs, the CAN database, and the state machines, so
they run in microseconds, before a single simulation step.

See :mod:`repro.analysis.catalog` for the code catalog; the orchestration
lives in :mod:`repro.analysis.analyzer`.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.analysis.catalog import make_diagnostic
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.intervals import (
    ALWAYS,
    MAYBE,
    NEVER,
    Interval,
    compare,
    expr_interval,
    negate_status,
)
from repro.analysis.walker import iter_nodes, walk
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
    Node,
    Not,
    Once,
    Or,
    SignalPredicate,
    SignalRef,
    TraceFunc,
    Unary,
)
from repro.core.statemachine import StateMachine

#: AST node types carrying a [lo, hi] temporal bound.
TEMPORAL_BOUND_NODES = (Always, Eventually, Once, Historically)

#: Trace functions that look at history (need settle/warm-up).
_HISTORY_FUNCS = ("prev", "delta", "delta_naive", "rate")


@dataclass
class LintContext:
    """Everything the checks may consult.

    Attributes:
        database: CAN database for signal resolution, physical ranges and
            broadcast periods; ``None`` disables signal-aware checks.
        machines: state machines in scope, by name.
        period: the monitor sampling period in seconds.
        env: per-signal physical ranges derived from the database.
    """

    database: Optional[object] = None
    machines: Dict[str, StateMachine] = field(default_factory=dict)
    period: float = 0.02
    env: Mapping[str, Interval] = field(default_factory=dict)

    def signal_kind(self, name: str) -> Optional[str]:
        """``"float"`` / ``"bool"`` / ``"enum"`` or None when unknown."""
        if self.database is None or name not in self.database:
            return None
        return self.database.signal(name).kind.value

    def signal_period(self, name: str) -> Optional[float]:
        """Broadcast period of ``name``'s message, when known."""
        if self.database is None or name not in self.database:
            return None
        return self.database.message_for_signal(name).period


def rule_parts(rule) -> Iterator[Tuple[str, Node]]:
    """``(part name, AST)`` pairs for everything a rule evaluates."""
    yield "formula", rule.formula
    if rule.gate is not None:
        yield "gate", rule.gate
    if rule.warmup is not None:
        yield "warmup trigger", rule.warmup.trigger
    for intent_filter in rule.filters:
        expression = getattr(intent_filter, "expression", None)
        if isinstance(expression, Expr):
            yield "filter expression", expression


def formula_status(formula: Formula, env: Mapping[str, Interval]) -> str:
    """Three-valued static evaluation: ALWAYS / NEVER / MAYBE.

    Sound for in-range, non-NaN data; temporal operators propagate their
    operand's status (correct up to trace truncation, which yields
    UNKNOWN rather than flipping a verdict).
    """
    if isinstance(formula, BoolConst):
        return ALWAYS if formula.value else NEVER
    if isinstance(formula, SignalPredicate):
        interval = env.get(formula.name)
        if interval is None:
            return MAYBE
        if not interval.contains(0.0):
            return ALWAYS
        if interval.is_point:  # the point must be zero
            return NEVER
        return MAYBE
    if isinstance(formula, Comparison):
        return compare(
            formula.op,
            expr_interval(formula.left, env)[0],
            expr_interval(formula.right, env)[0],
        )
    if isinstance(formula, Not):
        return negate_status(formula_status(formula.operand, env))
    if isinstance(formula, And):
        left = formula_status(formula.left, env)
        right = formula_status(formula.right, env)
        if NEVER in (left, right):
            return NEVER
        if left == right == ALWAYS:
            return ALWAYS
        return MAYBE
    if isinstance(formula, Or):
        left = formula_status(formula.left, env)
        right = formula_status(formula.right, env)
        if ALWAYS in (left, right):
            return ALWAYS
        if left == right == NEVER:
            return NEVER
        return MAYBE
    if isinstance(formula, Implies):
        left = formula_status(formula.left, env)
        right = formula_status(formula.right, env)
        if left == NEVER or right == ALWAYS:
            return ALWAYS
        if left == ALWAYS and right == NEVER:
            return NEVER
        return MAYBE
    if isinstance(formula, (Always, Eventually, Once, Historically, Next)):
        return formula_status(formula.operand, env)
    # Fresh, InState: genuinely dynamic.
    return MAYBE


# ----------------------------------------------------------------------
# SL1xx — name resolution and typing
# ----------------------------------------------------------------------


def _suggest_signal(name: str, ctx: LintContext) -> str:
    matches = difflib.get_close_matches(
        name, ctx.database.signal_names(), n=1
    )
    return "did you mean %r?" % matches[0] if matches else ""


def check_signal_references(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL101: every referenced signal must exist in the CAN database."""
    if ctx.database is None:
        return
    reported = set()
    for part, node in rule_parts(rule):
        for name in _referenced_signals(node):
            if name in ctx.database or (part, name) in reported:
                continue
            reported.add((part, name))
            yield make_diagnostic(
                "SL101",
                subject,
                "%s references undefined signal %r" % (part, name),
                suggestion=_suggest_signal(name, ctx),
            )


def _referenced_signals(node: Node) -> Iterator[str]:
    for current in walk(node):
        if isinstance(current, (SignalRef, SignalPredicate, Fresh)):
            yield current.name
        elif isinstance(current, TraceFunc):
            yield current.signal


def check_instate_references(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL102/SL103: in_state() must name a known machine and state."""
    for part, node in rule_parts(rule):
        for ref in iter_nodes(node, InState):
            machine = ctx.machines.get(ref.machine)
            if machine is None:
                known = ", ".join(sorted(ctx.machines)) or "none defined"
                yield make_diagnostic(
                    "SL102",
                    subject,
                    "%s references unknown state machine %r (known: %s)"
                    % (part, ref.machine, known),
                )
            elif ref.state not in machine.states:
                matches = difflib.get_close_matches(
                    ref.state, machine.states, n=1
                )
                yield make_diagnostic(
                    "SL103",
                    subject,
                    "%s references unknown state %r of machine %r "
                    "(states: %s)"
                    % (part, ref.state, ref.machine, ", ".join(machine.states)),
                    suggestion="did you mean %r?" % matches[0] if matches else "",
                )


def check_type_confusion(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL110/SL111: numeric signals as bare atoms, booleans in arithmetic."""
    if ctx.database is None:
        return
    for part, node in rule_parts(rule):
        for current in walk(node):
            if isinstance(current, SignalPredicate):
                kind = ctx.signal_kind(current.name)
                if kind in ("float", "enum"):
                    yield make_diagnostic(
                        "SL110",
                        subject,
                        "%s uses %s signal %r as a bare boolean atom "
                        "(true when nonzero)" % (part, kind, current.name),
                        suggestion="write an explicit comparison, e.g. "
                        "'%s > 0'" % current.name,
                    )
            elif isinstance(current, (Binary, Unary)):
                for operand in current.children():
                    if (
                        isinstance(operand, SignalRef)
                        and ctx.signal_kind(operand.name) == "bool"
                    ):
                        yield make_diagnostic(
                            "SL111",
                            subject,
                            "%s uses boolean signal %r in arithmetic (%s)"
                            % (part, operand.name, current),
                        )
            elif isinstance(current, Comparison):
                yield from _check_bool_comparison(current, part, subject, ctx)


def _bool_operand_name(expr: Expr, ctx: LintContext) -> Optional[str]:
    if isinstance(expr, SignalRef):
        name = expr.name
    elif isinstance(expr, TraceFunc) and expr.kind == "prev":
        name = expr.signal
    else:
        return None
    return name if ctx.signal_kind(name) == "bool" else None


def _check_bool_comparison(
    node: Comparison, part: str, subject: str, ctx: LintContext
) -> Iterator[Diagnostic]:
    for side, other in ((node.left, node.right), (node.right, node.left)):
        name = _bool_operand_name(side, ctx)
        if name is None:
            continue
        if node.op in ("<", "<=", ">", ">="):
            yield make_diagnostic(
                "SL111",
                subject,
                "%s orders boolean signal %r with %r (%s)"
                % (part, name, node.op, node),
                suggestion="compare with == or != against 0/1, or use "
                "the signal as a boolean atom",
            )
            return  # one report per comparison
        if isinstance(other, Constant) and other.value not in (0.0, 1.0):
            yield make_diagnostic(
                "SL111",
                subject,
                "%s compares boolean signal %r against %g (%s)"
                % (part, name, other.value, node),
                suggestion="boolean signals only take the values 0 and 1",
            )
            return


# ----------------------------------------------------------------------
# SL2xx — temporal bounds
# ----------------------------------------------------------------------


def _bound_is_malformed(node) -> bool:
    return (
        not math.isfinite(node.lo)
        or not math.isfinite(node.hi)
        or node.lo < 0
        or node.hi < node.lo
    )


def _temporal_name(node) -> str:
    return type(node).__name__.lower()


def check_temporal_bounds(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL201/SL202: inverted, negative, non-finite or zero-width bounds."""
    for part, node in rule_parts(rule):
        for temporal in iter_nodes(node, *TEMPORAL_BOUND_NODES):
            if _bound_is_malformed(temporal):
                yield make_diagnostic(
                    "SL201",
                    subject,
                    "%s has malformed temporal bound %s[%g, %g]"
                    % (part, _temporal_name(temporal), temporal.lo, temporal.hi),
                    suggestion="bounds must satisfy 0 <= lo <= hi with "
                    "finite values",
                )
            elif temporal.lo == temporal.hi:
                detail = (
                    "the operator is a no-op"
                    if temporal.lo == 0
                    else "the window is a single row"
                )
                yield make_diagnostic(
                    "SL202",
                    subject,
                    "%s has zero-width temporal bound %s[%g, %g] — %s"
                    % (
                        part,
                        _temporal_name(temporal),
                        temporal.lo,
                        temporal.hi,
                        detail,
                    ),
                )


# ----------------------------------------------------------------------
# SL3xx — interval analysis / static vacuity
# ----------------------------------------------------------------------


def check_static_comparisons(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL301/SL302: comparisons decided by the physical signal ranges."""
    if not ctx.env:
        return
    for part, node in rule_parts(rule):
        if part == "filter expression":
            continue  # filters carry expressions, not comparisons
        for comparison in iter_nodes(node, Comparison):
            status = compare(
                comparison.op,
                expr_interval(comparison.left, ctx.env)[0],
                expr_interval(comparison.right, ctx.env)[0],
            )
            if status == MAYBE:
                continue
            code = "SL301" if status == ALWAYS else "SL302"
            yield make_diagnostic(
                code,
                subject,
                "%s comparison '%s' is always %s for in-range values"
                % (part, comparison, "true" if status == ALWAYS else "false"),
                suggestion="check the constant against the signal's "
                "physical range in the CAN database",
            )


def check_gate_vacuity(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL303/SL305: gates that can never (or always) hold."""
    if rule.gate is None or not ctx.env:
        return
    status = formula_status(rule.gate, ctx.env)
    if status == NEVER:
        yield make_diagnostic(
            "SL303",
            subject,
            "gate '%s' can never hold for in-range values — the rule is "
            "statically vacuous and will pass every campaign silently"
            % (rule.gate,),
            suggestion="fix the gate or delete the rule",
        )
    elif status == ALWAYS:
        yield make_diagnostic(
            "SL305",
            subject,
            "gate '%s' always holds for in-range values — it gates "
            "nothing" % (rule.gate,),
            suggestion="drop the gate",
        )


def check_vacuous_implications(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL304: implications whose antecedent can never hold."""
    if not ctx.env:
        return
    for part, node in rule_parts(rule):
        if not isinstance(node, Formula):
            continue
        for implication in iter_nodes(node, Implies):
            if formula_status(implication.left, ctx.env) == NEVER:
                yield make_diagnostic(
                    "SL304",
                    subject,
                    "%s antecedent '%s' can never hold for in-range "
                    "values — the implication is vacuously true"
                    % (part, implication.left),
                )


# ----------------------------------------------------------------------
# SL4xx — multi-rate sampling hazards (§V-C1)
# ----------------------------------------------------------------------


def check_multirate_windows(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL401: temporal window narrower than a referenced signal's period."""
    if ctx.database is None:
        return
    for part, node in rule_parts(rule):
        if not isinstance(node, Formula):
            continue
        for temporal in iter_nodes(node, *TEMPORAL_BOUND_NODES):
            if _bound_is_malformed(temporal):
                continue
            width = temporal.hi - temporal.lo
            if width <= 0:
                continue
            for name in dict.fromkeys(temporal.operand.signals()):
                period = ctx.signal_period(name)
                if period is not None and width < period:
                    yield make_diagnostic(
                        "SL401",
                        subject,
                        "%s window %s[%g, %g] spans %.0f ms but %r "
                        "broadcasts every %.0f ms — the window can close "
                        "before a fresh sample arrives (multi-rate "
                        "sampling, paper §V-C1)"
                        % (
                            part,
                            _temporal_name(temporal),
                            temporal.lo,
                            temporal.hi,
                            width * 1000.0,
                            name,
                            period * 1000.0,
                        ),
                        suggestion="widen the bound to at least %g s"
                        % period,
                    )


def check_slow_signal_functions(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL402/SL403: differencing signals broadcast slower than the monitor."""
    if ctx.database is None:
        return
    guarded = {
        node.name
        for part, tree in rule_parts(rule)
        for node in iter_nodes(tree, Fresh)
    }
    reported = set()
    for part, node in rule_parts(rule):
        for func in iter_nodes(node, TraceFunc):
            period = ctx.signal_period(func.signal)
            if period is None or period <= ctx.period:
                continue
            if func.kind == "delta_naive":
                key = ("SL402", part, func.signal)
                if key in reported:
                    continue
                reported.add(key)
                yield make_diagnostic(
                    "SL402",
                    subject,
                    "%s applies delta_naive() to %r, which broadcasts "
                    "every %.0f ms while the monitor samples every "
                    "%.0f ms — held rows difference to zero and updates "
                    "collapse several cycles into one (paper §V-C1)"
                    % (
                        part,
                        func.signal,
                        period * 1000.0,
                        ctx.period * 1000.0,
                    ),
                    suggestion="use the freshness-aware delta() instead",
                )
            elif (
                func.kind == "delta"
                and part in ("formula", "gate")
                and func.signal not in guarded
            ):
                key = ("SL403", func.signal)
                if key in reported:
                    continue
                reported.add(key)
                yield make_diagnostic(
                    "SL403",
                    subject,
                    "delta() on slow signal %r (broadcast every %.0f ms) "
                    "is held between updates; without a fresh(%s) guard "
                    "one sample can be checked on several rows"
                    % (func.signal, period * 1000.0, func.signal),
                    suggestion="gate the check with fresh(%s) if one "
                    "verdict per sample is intended" % func.signal,
                )


# ----------------------------------------------------------------------
# SL5xx — warm-up hazards (§V-C2)
# ----------------------------------------------------------------------


def check_warmup_hazards(rule, subject: str, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL501: history functions with neither settle nor warm-up."""
    if rule.initial_settle > 0 or rule.warmup is not None:
        return
    for part, node in rule_parts(rule):
        if part not in ("formula", "gate"):
            continue
        for func in iter_nodes(node, TraceFunc):
            if func.kind in _HISTORY_FUNCS:
                yield make_diagnostic(
                    "SL501",
                    subject,
                    "%s uses %s(%s) but the rule declares neither "
                    "'settle' nor 'warmup' — the check runs on power-on "
                    "transients and discrete activation jumps (paper "
                    "§V-C2)" % (part, func.kind, func.signal),
                    suggestion="add 'settle = 500ms' or a 'warmup = "
                    "trigger : duration' line",
                )
                return  # one report per rule is enough


# ----------------------------------------------------------------------
# SL6xx — state-machine structure
# ----------------------------------------------------------------------


def check_machine(machine: StateMachine, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL601/SL602/SL603 plus SL101 over transition guards."""
    subject = "machine %s" % machine.name

    # SL101: guards resolve against the database.
    if ctx.database is not None:
        reported = set()
        for transition in machine.transitions:
            for name in _referenced_signals(transition.guard):
                if name in ctx.database or name in reported:
                    continue
                reported.add(name)
                yield make_diagnostic(
                    "SL101",
                    subject,
                    "transition guard references undefined signal %r"
                    % name,
                    suggestion=_suggest_signal(name, ctx),
                )

    # SL601: reachability from the initial state.
    reachable = machine.reachable_states()
    for state in machine.states:
        if state not in reachable:
            yield make_diagnostic(
                "SL601",
                subject,
                "state %r is unreachable from initial state %r"
                % (state, machine.initial),
                suggestion="add a transition into it or delete it",
            )

    # SL602/SL603: guard overlap and statically constant guards.
    by_source: Dict[str, List] = {}
    for transition in machine.transitions:
        by_source.setdefault(transition.source, []).append(transition)
    for source, transitions in by_source.items():
        seen_guards: Dict[str, str] = {}
        for index, transition in enumerate(transitions):
            guard_text = str(transition.guard)
            if guard_text in seen_guards:
                yield make_diagnostic(
                    "SL602",
                    subject,
                    "transitions '%s -> %s' and '%s -> %s' share the "
                    "guard '%s'; transitions fire in declaration order, "
                    "so the second can never fire"
                    % (
                        source,
                        seen_guards[guard_text],
                        source,
                        transition.target,
                        guard_text,
                    ),
                )
            else:
                seen_guards[guard_text] = transition.target
            if not ctx.env:
                continue
            status = formula_status(transition.guard, ctx.env)
            if status == ALWAYS and index < len(transitions) - 1:
                yield make_diagnostic(
                    "SL603",
                    subject,
                    "guard '%s' of transition '%s -> %s' is statically "
                    "always true and shadows %d later transition(s) out "
                    "of %r"
                    % (
                        transition.guard,
                        source,
                        transition.target,
                        len(transitions) - 1 - index,
                        source,
                    ),
                )
            elif status == NEVER:
                yield make_diagnostic(
                    "SL603",
                    subject,
                    "guard '%s' of transition '%s -> %s' can never hold "
                    "— the transition is dead"
                    % (transition.guard, source, transition.target),
                )


# ----------------------------------------------------------------------
# SL7xx — spec-set level
# ----------------------------------------------------------------------


def check_spec_set(rules, machines, ctx: LintContext) -> Iterator[Diagnostic]:
    """SL701/SL702: duplicate ids and duplicate rule bodies."""
    seen_ids: Dict[str, int] = {}
    for rule in rules:
        seen_ids[rule.rule_id] = seen_ids.get(rule.rule_id, 0) + 1
    for rule_id, count in seen_ids.items():
        if count > 1:
            yield make_diagnostic(
                "SL701",
                "rule %s" % rule_id,
                "rule id %r is defined %d times in this spec set"
                % (rule_id, count),
            )
    seen_names: Dict[str, int] = {}
    for machine in machines:
        seen_names[machine.name] = seen_names.get(machine.name, 0) + 1
    for name, count in seen_names.items():
        if count > 1:
            yield make_diagnostic(
                "SL701",
                "machine %s" % name,
                "machine name %r is defined %d times in this spec set"
                % (name, count),
            )

    by_body: Dict[str, str] = {}
    for rule in rules:
        body = str(rule.effective_formula())
        if body in by_body and by_body[body] != rule.rule_id:
            yield make_diagnostic(
                "SL702",
                "rule %s" % rule.rule_id,
                "effective formula duplicates rule %r (gate folded in): "
                "'%s'" % (by_body[body], body),
                suggestion="merge the rules or differentiate their "
                "gates/formulas",
            )
        else:
            by_body.setdefault(body, rule.rule_id)


#: The per-rule checks, in reporting order.
RULE_CHECKS = (
    check_signal_references,
    check_instate_references,
    check_type_confusion,
    check_temporal_bounds,
    check_static_comparisons,
    check_gate_vacuity,
    check_vacuous_implications,
    check_multirate_windows,
    check_slow_signal_functions,
    check_warmup_hazards,
)
