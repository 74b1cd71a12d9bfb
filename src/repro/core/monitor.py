"""The runtime monitor — rules checked against captured traces.

A :class:`Monitor` bundles safety :class:`Rule` objects and mode
:class:`~repro.core.statemachine.StateMachine` definitions, and checks
them offline against a :class:`~repro.logs.trace.Trace` (as the paper
did, on stored log data).  The result is a :class:`MonitorReport` with a
per-rule verdict, the individual violations, and the S/V letters used by
the paper's Table I.

Rule semantics per trace row ``i``:

* if the row is masked (initial settle window, or a warm-up window after
  the rule's activation trigger), the row is not checked;
* otherwise the rule's formula (optionally gated:
  ``gate -> formula``) is evaluated three-valued at ``i``.

A rule is **violated** if, after intent filters, at least one violation
run remains.  A rule whose raw violations are all dismissed by its
filters reports satisfied — the filters exist precisely to encode the
paper's "relax the rule when false positives are found" workflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ast import Formula, Implies
from repro.core.evaluator import (
    EvalContext,
    evaluate_formula,
    evaluate_robustness,
)
from repro.core.intent import IntentFilter, apply_filters
from repro.core.parser import parse_formula
from repro.core.robustness import (
    RuleRobustness,
    float_to_json,
    summarize_bounds,
)
from repro.core.statemachine import StateMachine
from repro.core.types import (
    FALSE_CODE,
    TRUE_CODE,
    UNKNOWN_CODE,
    Verdict,
)
from repro.core.violations import (
    NearMiss,
    Violation,
    annotate_margins,
    extract_violations,
)
from repro.core.warmup import WarmupSpec
from repro.errors import SpecError, non_negative_threshold, positive_seconds
from repro.logs.trace import Trace, TraceView
from repro.obs import get_registry

#: Default monitor sampling period — the vehicle's fast message period.
DEFAULT_PERIOD = 0.02


@dataclass(frozen=True)
class Rule:
    """One monitored safety property.

    Attributes:
        rule_id: short identifier (e.g. ``"rule3"``).
        name: human-readable title.
        formula: the property, checked at every unmasked row.
        gate: optional guard; rows where the gate is false are vacuously
            satisfied (the property is only meaningful under the gate,
            e.g. while the ACC is enabled).
        warmup: optional §V-C2 warm-up suppression.
        initial_settle: seconds at the start of the trace left unchecked
            (power-on transients, first updates of slow signals).
        filters: intent-approximation filters applied to violations.
        description: what the rule protects against.
    """

    rule_id: str
    name: str
    formula: Formula
    gate: Optional[Formula] = None
    warmup: Optional[WarmupSpec] = None
    initial_settle: float = 0.0
    filters: Tuple[IntentFilter, ...] = ()
    description: str = ""

    @classmethod
    def from_text(
        cls,
        rule_id: str,
        name: str,
        formula: str,
        gate: Optional[str] = None,
        warmup: Optional[WarmupSpec] = None,
        initial_settle: float = 0.0,
        filters: Tuple[IntentFilter, ...] = (),
        description: str = "",
    ) -> "Rule":
        """Build a rule from specification source text."""
        return cls(
            rule_id=rule_id,
            name=name,
            formula=parse_formula(formula),
            gate=parse_formula(gate) if gate else None,
            warmup=warmup,
            initial_settle=initial_settle,
            filters=filters,
            description=description,
        )

    def effective_formula(self) -> Formula:
        """The formula actually evaluated (gate folded in)."""
        if self.gate is None:
            return self.formula
        return Implies(self.gate, self.formula)

    def signals(self) -> Tuple[str, ...]:
        """All signals the rule needs from the trace."""
        names = list(self.effective_formula().signals())
        if self.warmup is not None:
            names.extend(self.warmup.trigger.signals())
        return tuple(dict.fromkeys(names))

    def machines(self) -> Tuple[str, ...]:
        """All state machines the rule references."""
        return self.effective_formula().machines()

    def relaxed(self, *filters: IntentFilter) -> "Rule":
        """A copy of this rule with extra intent filters attached."""
        return Rule(
            rule_id=self.rule_id,
            name=self.name,
            formula=self.formula,
            gate=self.gate,
            warmup=self.warmup,
            initial_settle=self.initial_settle,
            filters=self.filters + tuple(filters),
            description=self.description,
        )


@dataclass
class RuleResult:
    """Outcome of checking one rule against one trace."""

    rule: Rule
    verdict: Verdict
    violations: List[Violation]
    dismissed: List[Violation]
    rows_total: int
    rows_checked: int
    rows_masked: int
    rows_unknown: int
    #: Rule-level robustness interval; ``None`` unless the check ran
    #: with ``robustness=True``.
    robustness: Optional[RuleRobustness] = None
    #: Near-miss record for a passing rule whose margin fell at or
    #: under the configured threshold; ``None`` otherwise.
    near_miss: Optional[NearMiss] = None

    @property
    def violated(self) -> bool:
        """Whether any violation survived the intent filters."""
        return bool(self.violations)

    @property
    def letter(self) -> str:
        """The Table I letter: ``V`` if violated, else ``S``."""
        return "V" if self.violated else "S"


@dataclass
class MonitorReport:
    """All rule results for one checked trace.

    ``notes`` carries trace-level diagnostics that belong to no single
    rule — e.g. the online monitor reporting that required signals never
    arrived, so buffered data was never evaluated.
    """

    trace_name: str
    period: float
    duration: float
    results: Dict[str, RuleResult] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def result(self, rule_id: str) -> RuleResult:
        """Result for one rule."""
        try:
            return self.results[rule_id]
        except KeyError:
            raise SpecError("report has no rule %s" % rule_id) from None

    def letter(self, rule_id: str) -> str:
        """``S``/``V`` for one rule."""
        return self.result(rule_id).letter

    def letters(self) -> Dict[str, str]:
        """``S``/``V`` per rule id."""
        return {rule_id: r.letter for rule_id, r in self.results.items()}

    def violated_rules(self) -> List[str]:
        """Ids of all violated rules."""
        return [rid for rid, r in self.results.items() if r.violated]

    @property
    def all_satisfied(self) -> bool:
        """Whether no rule was violated."""
        return not self.violated_rules()

    def violation_count(self) -> int:
        """Total violations across rules (post-filter)."""
        return sum(len(r.violations) for r in self.results.values())

    def margins(self) -> Dict[str, RuleRobustness]:
        """Per-rule robustness intervals (rules checked with margins)."""
        return {
            rule_id: result.robustness
            for rule_id, result in self.results.items()
            if result.robustness is not None
        }

    def near_misses(self) -> List[NearMiss]:
        """All near-miss records, closest approach first."""
        return sorted(
            (
                result.near_miss
                for result in self.results.values()
                if result.near_miss is not None
            ),
            key=lambda near: near.margin,
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable digest of the report (for tooling/CI)."""
        return {
            "trace": self.trace_name,
            "period": self.period,
            "duration": self.duration,
            "all_satisfied": self.all_satisfied,
            "notes": list(self.notes),
            "rules": {
                rule_id: self._rule_dict(result)
                for rule_id, result in self.results.items()
            },
        }

    @staticmethod
    def _rule_dict(result: RuleResult) -> Dict[str, object]:
        digest: Dict[str, object] = {
            "name": result.rule.name,
            "letter": result.letter,
            "verdict": result.verdict.name,
            "violations": [
                {
                    "start_time": violation.start_time,
                    "end_time": violation.end_time,
                    "rows": violation.rows,
                    "severity": violation.severity.value,
                    "witness": dict(violation.witness),
                    "margin": float_to_json(violation.margin),
                }
                for violation in result.violations
            ],
            "dismissed": len(result.dismissed),
            "rows_checked": result.rows_checked,
            "rows_masked": result.rows_masked,
            "rows_unknown": result.rows_unknown,
        }
        if result.robustness is not None:
            digest["robustness"] = result.robustness.to_dict()
        if result.near_miss is not None:
            digest["near_miss"] = result.near_miss.to_dict()
        return digest

    def summary(self) -> str:
        """Human-readable per-rule table.

        When the check ran with margins, each row gains a robustness
        column (the interval, or the point margin once decided) and
        near misses are listed after the table.
        """
        with_margins = bool(self.margins())
        lines = [
            "trace %r  (%.1f s at %.0f ms)"
            % (self.trace_name, self.duration, self.period * 1000.0),
        ]
        header = "%-8s %-7s %-10s %-10s" % (
            "rule", "letter", "violations", "dismissed",
        )
        if with_margins:
            header += " %-22s" % "robustness"
        lines.append(header + " name")
        for rule_id in sorted(self.results):
            result = self.results[rule_id]
            row = "%-8s %-7s %-10d %-10d" % (
                rule_id,
                result.letter,
                len(result.violations),
                len(result.dismissed),
            )
            if with_margins:
                row += " %-22s" % (
                    "-" if result.robustness is None
                    else str(result.robustness)
                )
            lines.append(row + " " + result.rule.name)
        for near in self.near_misses():
            lines.append("near miss: %s" % near)
        for note in self.notes:
            lines.append("note: %s" % note)
        return "\n".join(lines)


class Monitor:
    """A passive, bolt-on test monitor over a set of rules."""

    def __init__(
        self,
        rules: Sequence[Rule],
        machines: Sequence[StateMachine] = (),
        period: float = DEFAULT_PERIOD,
        strict: bool = False,
        database=None,
    ) -> None:
        ids = [rule.rule_id for rule in rules]
        if len(set(ids)) != len(ids):
            raise SpecError("duplicate rule ids: %s" % ids)
        self.rules: List[Rule] = list(rules)
        self.machines: List[StateMachine] = list(machines)
        self.period = positive_seconds("period", period)
        machine_names = {machine.name for machine in self.machines}
        for rule in self.rules:
            for name in rule.machines():
                if name not in machine_names:
                    raise SpecError(
                        "rule %s references undefined state machine %r"
                        % (rule.rule_id, name)
                    )
        if strict:
            self._require_lint_clean(database)

    def _require_lint_clean(self, database) -> None:
        """Strict mode: reject error-level static-analysis findings."""
        from repro.analysis import Severity, lint_rules

        errors = [
            diagnostic
            for diagnostic in lint_rules(
                self.rules,
                machines=self.machines,
                database=database,
                period=self.period,
            )
            if diagnostic.severity is Severity.ERROR
        ]
        if errors:
            raise SpecError(
                "monitor rules failed strict lint with %d error(s):\n%s"
                % (len(errors), "\n".join(d.format() for d in errors))
            )

    def required_signals(self) -> Tuple[str, ...]:
        """All trace signals needed by rules and machine guards."""
        names: List[str] = []
        for rule in self.rules:
            names.extend(rule.signals())
        for machine in self.machines:
            names.extend(machine.signals())
        return tuple(dict.fromkeys(names))

    def check(
        self,
        trace: Trace,
        start: Optional[float] = None,
        end: Optional[float] = None,
        robustness: bool = False,
        near_miss_threshold: Optional[float] = None,
    ) -> MonitorReport:
        """Check every rule against ``trace`` and build a report.

        With ``robustness=True`` each rule additionally gets its
        quantitative margin interval (see
        :mod:`repro.core.robustness`) and each violation its depth;
        ``near_miss_threshold`` then flags passing rules whose certain
        margin bound is at most the threshold.  The boolean verdicts
        and letters are bit-identical either way — the numeric lattice
        runs beside the boolean one, never instead of it.
        """
        view = trace.to_view(
            self.period,
            signals=self.required_signals(),
            start=start,
            end=end,
        )
        return self.check_view(
            view,
            trace_name=trace.name,
            robustness=robustness,
            near_miss_threshold=near_miss_threshold,
        )

    def check_view(
        self,
        view: TraceView,
        trace_name: str = "",
        robustness: bool = False,
        near_miss_threshold: Optional[float] = None,
    ) -> MonitorReport:
        """Check every rule against an already-built view."""
        if near_miss_threshold is not None:
            non_negative_threshold("near_miss_threshold", near_miss_threshold)
            robustness = True
        registry = get_registry()
        registry.counter("monitor.checks").inc()
        ctx = EvalContext(view)
        with registry.span("monitor.machines"):
            for machine in self.machines:
                ctx.machine_states[machine.name] = machine.run(ctx)
                ctx.machine_alphabets[machine.name] = machine.alphabet
        report = MonitorReport(
            trace_name=trace_name,
            period=view.period,
            duration=view.end_time - view.start_time,
        )
        for rule in self.rules:
            with registry.span("monitor.rule.%s" % rule.rule_id):
                report.results[rule.rule_id] = self._check_rule(
                    rule,
                    ctx,
                    robustness=robustness,
                    near_miss_threshold=near_miss_threshold,
                )
        return report

    # ------------------------------------------------------------------

    def _check_rule(
        self,
        rule: Rule,
        ctx: EvalContext,
        robustness: bool = False,
        near_miss_threshold: Optional[float] = None,
    ) -> RuleResult:
        codes = evaluate_formula(rule.effective_formula(), ctx)
        result = check_rows(
            rule, ctx, codes, 0, ctx.view.n_rows - 1, robustness=robustness
        )
        if robustness:
            result.near_miss = _detect_near_miss(
                rule.rule_id,
                result.robustness,
                result.violations,
                near_miss_threshold,
            )
        registry = get_registry()
        registry.counter("monitor.rows_checked").inc(result.rows_checked)
        registry.counter("monitor.rows_masked").inc(result.rows_masked)
        registry.counter("monitor.violations").inc(len(result.violations))
        registry.counter("monitor.dismissed").inc(len(result.dismissed))
        if robustness:
            registry.counter("monitor.margins").inc()
            if result.near_miss is not None:
                registry.counter("monitor.near_misses").inc()
        return result


def row_mask(rule: Rule, ctx: EvalContext, first_row: int = 0) -> np.ndarray:
    """Rows of ``ctx.view`` the rule leaves unchecked.

    A row is masked inside the rule's initial settle window or inside a
    warm-up window after its activation trigger.  The settle window is
    anchored at stream row 0, and view row 0 is stream row
    ``first_row`` (nonzero for an online chunk).
    """
    view = ctx.view
    masked = np.zeros(view.n_rows, dtype=bool)
    if rule.initial_settle > 0:
        settle_end = int(round(rule.initial_settle / view.period)) - first_row
        if settle_end >= 0:
            masked[: settle_end + 1] = True
    if rule.warmup is not None:
        masked |= rule.warmup.mask(ctx)
    return masked


def rule_verdict(
    violations: List[Violation],
    dismissed: List[Violation],
    rows_unknown: int,
    rows_total: int,
) -> Verdict:
    """The rule-level verdict from a rule's (accumulated) row result."""
    if violations:
        return Verdict.FALSE
    if dismissed:
        # All violations dismissed as not reflecting real intent.
        return Verdict.TRUE
    if rows_unknown or not rows_total:
        return Verdict.UNKNOWN
    return Verdict.TRUE


def check_rows(
    rule: Rule,
    ctx: EvalContext,
    codes: np.ndarray,
    lo: int,
    hi: int,
    first_row: int = 0,
    origin: float = 0.0,
    robustness: bool = False,
) -> RuleResult:
    """Check one rule on rows ``[lo, hi]`` of ``ctx.view``.

    The single per-rule row checker behind both monitors: the offline
    :class:`Monitor` runs it once over the whole view, the online
    monitor once per chunk over the chunk's emitted rows.  ``codes``
    are the rule's evaluated verdict codes over the view (not
    modified).  View row 0 is stream row ``first_row``, and ``origin``
    is the time of stream row 0 (read only when ``first_row`` is
    nonzero); violation rows and the worst row are reported in stream
    rows.  Rows outside ``[lo, hi]`` are neutral, exactly like masked
    rows.  Touches no metrics registry.
    """
    view = ctx.view
    masked = row_mask(rule, ctx, first_row)
    rows_total = hi - lo + 1
    rows_masked = int(masked[lo : hi + 1].sum())
    masked[:lo] = True
    masked[hi + 1 :] = True
    codes = codes.copy()
    codes[masked] = TRUE_CODE

    # Witness columns are only materialized when a violation exists —
    # the common all-satisfied rule pays nothing for them.
    if (codes == FALSE_CODE).any():
        witness_signals = {
            name: view.values(name)
            for name in rule.signals()
            if name in view
        }
        raw = extract_violations(
            codes, view.times, rule.rule_id, view.period, witness_signals
        )
    else:
        raw = []
    kept, dropped = apply_filters(raw, rule.filters, ctx)

    rule_robustness: Optional[RuleRobustness] = None
    if robustness:
        bounds = evaluate_robustness(rule.effective_formula(), ctx)
        lower = bounds.lower.copy()
        upper = bounds.upper.copy()
        # Masked rows are neutral in the numeric lattice too — they
        # cannot be the rule's minimum, exactly as the boolean path
        # forces them TRUE.
        lower[masked] = np.inf
        upper[masked] = np.inf
        rule_robustness = summarize_bounds(lower, upper, view.times)
        kept = annotate_margins(kept, upper)
        dropped = annotate_margins(dropped, upper)
        if first_row and rule_robustness.worst_row is not None:
            # Recompute the time from the stream origin rather than
            # reading the view's times: a chunk view's base is already
            # the sum origin + first_row * period, and adding the
            # in-view offset to that drifts a last-place unit from the
            # offline view's origin + row * period.
            row = first_row + rule_robustness.worst_row
            rule_robustness = replace(
                rule_robustness,
                worst_row=row,
                worst_time=origin + view.period * row,
            )
    if first_row:
        kept, dropped = (
            [
                replace(
                    violation,
                    start_row=violation.start_row + first_row,
                    end_row=violation.end_row + first_row,
                )
                for violation in group
            ]
            for group in (kept, dropped)
        )

    rows_unknown = int((codes == UNKNOWN_CODE).sum())
    return RuleResult(
        rule=rule,
        verdict=rule_verdict(kept, dropped, rows_unknown, rows_total),
        violations=kept,
        dismissed=dropped,
        rows_total=rows_total,
        rows_checked=rows_total - rows_masked,
        rows_masked=rows_masked,
        rows_unknown=rows_unknown,
        robustness=rule_robustness,
    )


def _detect_near_miss(
    rule_id: str,
    robustness: RuleRobustness,
    kept: List[Violation],
    threshold: Optional[float],
) -> Optional[NearMiss]:
    """The near-miss policy shared by the offline and online monitors.

    Only *passing* rules (letter ``S``) can near-miss — a violated rule
    is reported through its violations, margin-annotated.  The certain
    margin bound must be finite (an ``inf`` bound means nothing metric
    was ever at stake) and at most the threshold.  ``crossed`` marks a
    negative margin: the raw formula failed somewhere, but intent
    filters dismissed every run.
    """
    if threshold is None or kept:
        return None
    margin = robustness.upper
    if not np.isfinite(margin) or margin > threshold:
        return None
    return NearMiss(
        rule_id=rule_id,
        margin=margin,
        time=robustness.worst_time,
        row=robustness.worst_row,
        threshold=threshold,
        crossed=margin < 0.0,
    )
