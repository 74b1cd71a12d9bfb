"""Static robustness-margin prover — abstract interpretation of specs.

PR 7 gave every rule a *dynamic* robustness margin: per-row ``[lower,
upper]`` intervals from :mod:`repro.core.robustness`, computed over one
concrete trace.  This module computes the *static* counterpart: a single
sound ``[lower, upper]`` interval per rule that contains every per-row
value the dynamic evaluator can ever produce, for any trace whose
signals stay inside a declared environment.  It lifts the interval
walk of :mod:`repro.analysis.intervals` from expressions to formulas,
on the quantitative lattice:

* **expressions** evaluate through the shared abstract evaluator
  :func:`~repro.analysis.intervals.expr_interval` to an interval plus a
  *may-NaN* flag;
* **comparisons** map operand intervals to margin intervals exactly as
  :func:`repro.core.evaluator._comparison_margin` maps operand values to
  margins, with NaN folded to the operator's infinity;
* **connectives** follow the min/max decomposition of the dynamic
  semantics (``and`` = pointwise min, ``or`` = pointwise max, ``not``
  negates and swaps, ``->`` = ``or`` over the negated antecedent);
* **temporal windows** widen for truncation: any window reaching past
  the trace pads its lower bound with ``-inf`` and its upper bound with
  ``+inf`` dynamically, so the static interval must admit those pads
  unless the window provably never truncates (only ``[0, 0]`` windows
  qualify on a finite trace);
* **machine guards** (``in_state``) lift to the full line, refined to
  certainly-false when the named state is unreachable from the
  machine's initial state (:meth:`~repro.core.statemachine.StateMachine.
  reachable_states`, the relation speclint's SL601 reports).

Soundness contract (checked by ``tests/analysis/
test_margins_differential.py`` over every paper rule and 500+ fuzzed
(spec, trace, injection) triples): for every row ``i`` of any conforming
trace, ``static.lo <= dynamic.lower[i]`` and ``dynamic.upper[i] <=
static.hi``.  Two consequences power the audit's plan findings:

* ``static.lo > 0`` proves every row TRUE — the rule is statically
  unfalsifiable in that environment, so its campaign cell can only
  read ``"S"`` (the report's ``prunable`` cells);
* ``static.hi < 0`` proves every row FALSE — the cell is statically
  doomed to raw violations (the audit's AU502).

Environments come in two flavours: :func:`margin_env` seeds signals from
DBC physical ranges (the in-range, non-NaN model shared with speclint),
and :func:`cell_env` widens every signal an injection test can influence
(through the :class:`~repro.analysis.depgraph.DependencyGraph`) to its
*codable* range — the full IEEE line plus NaN for 32-bit floats, both
booleans, every raw enum value — which is exactly what bit flips and
exceptional-value injections can put on the bus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.depgraph import DependencyGraph
from repro.analysis.intervals import (
    TOP,
    Interval,
    abs_,
    expr_interval,
    max_,
    min_,
    neg,
    sub,
)
from repro.core.ast import (
    Always,
    And,
    BoolConst,
    Comparison,
    Eventually,
    Formula,
    Fresh,
    Historically,
    Implies,
    InState,
    Next,
    Not,
    Once,
    Or,
    SignalPredicate,
    SignalRef,
)
from repro.core.monitor import DEFAULT_PERIOD, Rule
from repro.core.statemachine import StateMachine
from repro.core.windows import bounds_to_rows
from repro.errors import EvaluationError

_INF = math.inf

#: Certainly-true margin interval (every row TRUE, infinitely robust).
CERTAIN_TRUE = Interval(_INF, _INF)

#: Certainly-false margin interval (every row FALSE).
CERTAIN_FALSE = Interval(-_INF, -_INF)


# ----------------------------------------------------------------------
# Environments
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MarginEnv:
    """The abstract state the prover runs under.

    Attributes:
        intervals: per-signal value ranges; signals absent from the map
            are unbounded *and* possibly NaN (fully unknown).
        nan_signals: signals whose samples may additionally be NaN —
            injected 32-bit floats decode bit patterns, and the paper
            injected NaN explicitly, so an influenced float carries the
            flag while the nominal DBC model does not.
    """

    intervals: Mapping[str, Interval]
    nan_signals: FrozenSet[str] = frozenset()


def margin_env(database: object) -> MarginEnv:
    """The nominal environment: DBC physical ranges, no NaN.

    Same model as :func:`repro.analysis.analyzer.database_env` — sound
    for traces of in-range, non-NaN data (every nominal simulation).
    """
    from repro.analysis.analyzer import database_env

    return MarginEnv(intervals=database_env(database))


def cell_env(
    database: object,
    targets: Sequence[str],
    graph: DependencyGraph,
) -> Optional[MarginEnv]:
    """The environment of one (injection test x rule) campaign cell.

    Every signal the test's targets can influence (reachability over the
    flow edges, targets included) is widened from its physical range to
    its *codable* range — what the CAN codec can actually deliver:

    * 32-bit IEEE floats decode any bit pattern, so the interval is the
      full line and the may-NaN flag is set (the HIL type-checker
      accepts NaN and infinities by design, and bit flips bypass it);
    * booleans stay ``[0, 1]`` (one bit codes nothing else);
    * enums widen to the hull of the physical range and ``[0, max_raw]``
      (a flipped field can hold any raw value).

    Uninfluenced signals keep their DBC ranges: the plant sensors are
    range-limited physical models and the exogenous driver inputs are
    scripted in-range.  Returns ``None`` when a target is not in the
    database — the cell cannot be reasoned about (and the campaign
    harness would raise), so callers skip it, as the audit's AU303
    finding does.
    """
    if any(target not in database for target in targets):  # type: ignore[operator]
        return None
    base = margin_env(database)
    intervals: Dict[str, Interval] = dict(base.intervals)
    nan_signals: Set[str] = set(base.nan_signals)
    for name in sorted(graph.targets_influence(targets)):
        if name not in database:  # type: ignore[operator]
            continue
        signal = database.signal(name)  # type: ignore[attr-defined]
        kind = signal.kind.value
        if kind == "bool":
            intervals[name] = Interval(0.0, 1.0)
        elif kind == "enum":
            current = intervals.get(name, TOP)
            intervals[name] = Interval(
                min(current.lo, 0.0),
                max(current.hi, float(signal.max_raw)),
            )
        else:
            intervals[name] = TOP
            nan_signals.add(name)
    return MarginEnv(intervals=intervals, nan_signals=frozenset(nan_signals))


# ----------------------------------------------------------------------
# Abstract formula evaluation: one margin interval
# ----------------------------------------------------------------------


def _comparison_margin_interval(node: Comparison, env: MarginEnv) -> Interval:
    """Static hull of :func:`~repro.core.evaluator._comparison_margin`.

    Mirrors the dynamic margin exactly: ``right - left`` for ``<``/
    ``<=``, ``left - right`` for ``>``/``>=``, signed distances for
    ``==``/``!=``.  A possibly-NaN operand widens toward the infinity
    the dynamic evaluator folds NaN margins to (``+inf`` for ``!=``,
    ``-inf`` otherwise).
    """
    left, left_nan = expr_interval(node.left, env.intervals, env.nan_signals)
    right, right_nan = expr_interval(
        node.right, env.intervals, env.nan_signals
    )
    may_nan = left_nan or right_nan
    if node.op in ("<", "<="):
        margin = sub(right, left)
    elif node.op in (">", ">="):
        margin = sub(left, right)
    elif node.op == "==":
        margin = neg(abs_(sub(left, right)))
    elif node.op == "!=":
        margin = abs_(sub(left, right))
    else:
        return TOP
    if may_nan:
        if node.op == "!=":
            margin = Interval(margin.lo, _INF)
        else:
            margin = Interval(-_INF, margin.hi)
    return margin


def _in_state_margin(
    node: InState, machines: Mapping[str, StateMachine]
) -> Interval:
    """``in_state`` lifts boolean codes to ``±inf``; an unreachable
    state is certainly false.  Unknown machines/states stay TOP — the
    dynamic evaluator raises there, so any answer is vacuously sound."""
    machine = machines.get(node.machine)
    if machine is None or node.state not in machine.states:
        return TOP
    if node.state not in machine.reachable_states():
        return CERTAIN_FALSE
    return TOP


def _window_margin(
    inner: Interval, lo: float, hi: float, period: float, minimum: bool
) -> Interval:
    """Sound widening of a margin interval through a bounded window.

    The dynamic aggregation pads truncated windows with ``-inf`` on the
    lower array and ``+inf`` on the upper array, so:

    * a min-window (always/historically) keeps the inner lower bound
      only when no row's window can truncate (``hi`` rounds to offset
      0), and keeps the inner upper bound only when every row's window
      contains at least one real sample (``lo`` rounds to offset 0);
    * a max-window (eventually/once) is the mirror image.

    Windows too tight to contain a sample raise dynamically; TOP is the
    sound answer for an analysis that must not raise.  So is an
    unbounded window: its row count cannot be materialised at all.
    """
    if not math.isfinite(hi):
        return TOP
    try:
        lo_idx, hi_idx = bounds_to_rows(lo, hi, period)
    except EvaluationError:
        return TOP
    if minimum:
        new_lo = inner.lo if hi_idx == 0 else -_INF
        new_hi = inner.hi if lo_idx == 0 else _INF
    else:
        new_hi = inner.hi if hi_idx == 0 else _INF
        new_lo = inner.lo if lo_idx == 0 else -_INF
    return Interval(new_lo, new_hi)


def formula_margin(
    formula: Formula,
    env: MarginEnv,
    period: float = DEFAULT_PERIOD,
    machines: Sequence[StateMachine] = (),
) -> Interval:
    """Static ``[lower, upper]`` hull of the dynamic per-row margins.

    For any trace sampled at ``period`` whose signals conform to
    ``env``, every per-row value of both arrays of
    :func:`repro.core.evaluator.evaluate_robustness` lies inside the
    returned interval.
    """
    by_name = {machine.name: machine for machine in machines}
    return _formula_margin(formula, env, period, by_name)


def _formula_margin(
    node: Formula,
    env: MarginEnv,
    period: float,
    machines: Mapping[str, StateMachine],
) -> Interval:
    if isinstance(node, BoolConst):
        return CERTAIN_TRUE if node.value else CERTAIN_FALSE
    if isinstance(node, SignalPredicate):
        interval, may_nan = expr_interval(
            SignalRef(node.name), env.intervals, env.nan_signals
        )
        # Dynamic: nonzero is TRUE (+inf), zero FALSE (-inf); NaN != 0
        # is True, so a NaN row is TRUE and cannot break certainty.
        if not interval.contains(0.0):
            return CERTAIN_TRUE
        if interval.is_point and interval.lo == 0.0 and not may_nan:
            return CERTAIN_FALSE
        return TOP
    if isinstance(node, Fresh):
        return TOP
    if isinstance(node, InState):
        return _in_state_margin(node, machines)
    if isinstance(node, Comparison):
        return _comparison_margin_interval(node, env)
    if isinstance(node, Not):
        inner = _formula_margin(node.operand, env, period, machines)
        return neg(inner)
    if isinstance(node, And):
        return min_(
            _formula_margin(node.left, env, period, machines),
            _formula_margin(node.right, env, period, machines),
        )
    if isinstance(node, Or):
        return max_(
            _formula_margin(node.left, env, period, machines),
            _formula_margin(node.right, env, period, machines),
        )
    if isinstance(node, Implies):
        return max_(
            neg(_formula_margin(node.left, env, period, machines)),
            _formula_margin(node.right, env, period, machines),
        )
    if isinstance(node, Next):
        # The last row is always the undecidable pad; its interval is
        # the full line, so the hull over all rows is too.
        _formula_margin(node.operand, env, period, machines)
        return TOP
    if isinstance(node, (Always, Historically)):
        inner = _formula_margin(node.operand, env, period, machines)
        return _window_margin(inner, node.lo, node.hi, period, minimum=True)
    if isinstance(node, (Eventually, Once)):
        inner = _formula_margin(node.operand, env, period, machines)
        return _window_margin(inner, node.lo, node.hi, period, minimum=False)
    return TOP


def rule_margin(
    rule: Rule,
    env: MarginEnv,
    period: float = DEFAULT_PERIOD,
    machines: Sequence[StateMachine] = (),
) -> Interval:
    """Static margin interval of a rule's effective formula (gate folded
    in) — what the monitor's robustness pass actually evaluates.  Intent
    filters and settle/warm-up masking only *dismiss* violations; they
    never create FALSE rows, so a positive static lower bound still
    proves the final letter ``"S"``."""
    return formula_margin(
        rule.effective_formula(), env, period=period, machines=machines
    )


# ----------------------------------------------------------------------
# Campaign-level analysis: rules x plan cells, seeds
# ----------------------------------------------------------------------

#: Rule-level lower bounds in (0, TIGHT_MARGIN] are "thin proofs": the
#: rule is statically unfalsifiable, but by less than one unit of
#: margin, so modelling slack could be hiding a falsifiable rule.
TIGHT_MARGIN = 1.0


@dataclass(frozen=True)
class RuleMarginResult:
    """Static margin interval of one rule under the nominal DBC env."""

    rule_id: str
    interval: Interval

    @property
    def provably_safe(self) -> bool:
        """Whether no in-range trace can ever falsify the rule."""
        return self.interval.lo > 0


@dataclass(frozen=True)
class CellMarginResult:
    """Static margin interval of one (injection test x rule) cell."""

    test_label: str
    kind: str
    targets: Tuple[str, ...]
    rule_id: str
    interval: Interval

    def prunable(self, threshold: float) -> bool:
        """Whether the cell can be skipped: the static lower bound
        clears ``threshold``, so every row is provably TRUE."""
        return self.interval.lo > threshold

    @property
    def doomed(self) -> bool:
        """Whether every row is provably FALSE (pre-filter)."""
        return self.interval.hi < 0


@dataclass
class MarginReport:
    """Everything ``repro margins`` computed for one rule set."""

    target: str
    period: float
    threshold: float
    rules: List[RuleMarginResult] = field(default_factory=list)
    cells: List[CellMarginResult] = field(default_factory=list)

    def seeds(self) -> List[CellMarginResult]:
        """Falsification seeds: the non-prunable cells, ranked most
        promising first (lowest static lower bound, then lowest upper
        bound, then label order) — the ROADMAP item 3 work list."""
        candidates = [
            cell for cell in self.cells if not cell.prunable(self.threshold)
        ]
        candidates.sort(
            key=lambda cell: (
                cell.interval.lo,
                cell.interval.hi,
                cell.test_label,
                cell.rule_id,
            )
        )
        return candidates

    def summary(self) -> Dict[str, int]:
        """Integer statistics (shape mirrors the audit summary)."""
        return {
            "rules": len(self.rules),
            "provably_safe_rules": sum(
                1 for rule in self.rules if rule.provably_safe
            ),
            "cells": len(self.cells),
            "prunable_cells": sum(
                1 for cell in self.cells if cell.prunable(self.threshold)
            ),
            "doomed_cells": sum(1 for cell in self.cells if cell.doomed),
            "seeds": len(self.seeds()),
        }

    def to_dict(self) -> Dict[str, object]:
        """The target object of the ``repro.margins/v1`` format."""
        from repro.core.robustness import float_to_json

        def interval_dump(interval: Interval) -> Dict[str, object]:
            return {
                "lower": float_to_json(interval.lo),
                "upper": float_to_json(interval.hi),
            }

        return {
            "name": self.target,
            "period": self.period,
            "threshold": self.threshold,
            "rules": [
                {
                    "rule": rule.rule_id,
                    "provably_safe": rule.provably_safe,
                    **interval_dump(rule.interval),
                }
                for rule in self.rules
            ],
            "cells": [
                {
                    "test": cell.test_label,
                    "kind": cell.kind,
                    "targets": list(cell.targets),
                    "rule": cell.rule_id,
                    "prunable": cell.prunable(self.threshold),
                    "doomed": cell.doomed,
                    **interval_dump(cell.interval),
                }
                for cell in self.cells
            ],
            "seeds": [
                {
                    "rank": rank,
                    "test": cell.test_label,
                    "rule": cell.rule_id,
                    **interval_dump(cell.interval),
                }
                for rank, cell in enumerate(self.seeds(), start=1)
            ],
            "summary": self.summary(),
        }

    def format_text(self) -> str:
        """Human-readable report: per-rule intervals, notable cells,
        and the head of the seed ranking."""
        lines = ["margins %s (period %gs, threshold %g):" % (
            self.target, self.period, self.threshold
        )]
        lines.append("rule margins (nominal DBC ranges):")
        for rule in self.rules:
            note = "  provably safe" if rule.provably_safe else ""
            lines.append(
                "  %-12s %s%s" % (rule.rule_id, rule.interval, note)
            )
        summary = self.summary()
        notable = [
            cell
            for cell in self.cells
            if cell.prunable(self.threshold) or cell.doomed
        ]
        if notable:
            lines.append("notable cells:")
            for cell in notable:
                status = "prunable" if cell.prunable(self.threshold) else (
                    "doomed"
                )
                lines.append(
                    "  %-28s x %-12s %s (%s)"
                    % (cell.test_label, cell.rule_id, cell.interval, status)
                )
        seeds = self.seeds()
        if seeds:
            lines.append("top falsification seeds:")
            for rank, cell in enumerate(seeds[:10], start=1):
                lines.append(
                    "  #%-3d %-28s x %-12s %s"
                    % (rank, cell.test_label, cell.rule_id, cell.interval)
                )
        lines.append(
            "summary: %d rule(s) (%d provably safe), %d cell(s) "
            "(%d prunable, %d doomed), %d seed(s)"
            % (
                summary["rules"],
                summary["provably_safe_rules"],
                summary["cells"],
                summary["prunable_cells"],
                summary["doomed_cells"],
                summary["seeds"],
            )
        )
        return "\n".join(lines)


def analyze_margins(
    rules: Sequence[Rule],
    machines: Sequence[StateMachine] = (),
    database: object = None,
    plan: object = None,
    period: Optional[float] = None,
    threshold: float = 0.0,
    target: str = "rule set",
) -> MarginReport:
    """Run the prover over a rule set and (optionally) a campaign plan.

    Per rule: the static margin interval under the nominal DBC
    environment.  Per plan cell: the interval under the cell's
    injection-widened environment (cells of unknown-target tests are
    skipped — the harness would raise before monitoring them, exactly
    the audit's AU303 finding).  ``threshold`` is the pruning bar cells
    are judged against (must be non-negative so pruning stays sound).
    """
    if threshold < 0:
        raise ValueError(
            "margin threshold must be non-negative, got %r" % (threshold,)
        )
    if database is None:
        from repro.can.fsracc import fsracc_database

        database = fsracc_database()
    if period is None:
        period = plan.period if plan is not None else DEFAULT_PERIOD  # type: ignore[attr-defined]
    rules = list(rules)
    machines = list(machines)
    env = margin_env(database)
    graph = DependencyGraph(database, rules, machines)
    report = MarginReport(
        target=target, period=float(period), threshold=float(threshold)
    )
    for rule in rules:
        report.rules.append(
            RuleMarginResult(
                rule_id=rule.rule_id,
                interval=rule_margin(
                    rule, env, period=period, machines=machines
                ),
            )
        )
    if plan is not None:
        env_cache: Dict[Tuple[str, ...], Optional[MarginEnv]] = {}
        for test in plan.tests:  # type: ignore[attr-defined]
            targets = tuple(test.targets)
            if targets not in env_cache:
                env_cache[targets] = cell_env(database, targets, graph)
            test_env = env_cache[targets]
            if test_env is None:
                continue
            for rule in rules:
                report.cells.append(
                    CellMarginResult(
                        test_label=test.label,
                        kind=test.kind,
                        targets=targets,
                        rule_id=rule.rule_id,
                        interval=rule_margin(
                            rule, test_env, period=period, machines=machines
                        ),
                    )
                )
    return report


def analyze_margins_specs(
    specs: object,
    database: object = None,
    plan: object = None,
    period: Optional[float] = None,
    threshold: float = 0.0,
    target: str = "spec set",
) -> MarginReport:
    """Run the prover over a loaded :class:`~repro.core.specfile.SpecSet`."""
    return analyze_margins(
        specs.rules,  # type: ignore[attr-defined]
        machines=specs.machines,  # type: ignore[attr-defined]
        database=database,
        plan=plan,
        period=period,
        threshold=threshold,
        target=target,
    )
