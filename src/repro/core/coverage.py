"""Monitoring coverage analysis.

Section III-C: "expert derived rules may not provide as clear a notion of
monitoring coverage" as requirement-derived ones.  This module makes the
coverage a rule set *does* achieve measurable, along two axes:

* **Row coverage** — per rule: how much of the trace was actually
  checked (not masked), how often its gate admitted checking, and how
  often its premise was exercised.  A rule whose premise never fires has
  verified nothing, however green its column looks.
* **Signal coverage** — which of the broadcast signals the rule set
  references at all.  Broadcast state no rule reads is observability the
  monitor is leaving on the table (§V-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.ast import Implies
from repro.core.evaluator import EvalContext, evaluate_formula
from repro.core.monitor import Monitor, Rule, row_mask
from repro.core.types import TRUE_CODE
from repro.logs.trace import Trace


@dataclass(frozen=True)
class RuleCoverage:
    """How thoroughly one rule exercised one trace."""

    rule_id: str
    rows_total: int
    rows_checked: int
    rows_gate_active: int
    rows_premise_active: int

    @property
    def checked_fraction(self) -> float:
        """Fraction of rows not masked away."""
        return self.rows_checked / self.rows_total if self.rows_total else 0.0

    @property
    def gate_fraction(self) -> float:
        """Fraction of checked rows where the gate admitted checking."""
        if self.rows_checked == 0:
            return 0.0
        return self.rows_gate_active / self.rows_checked

    @property
    def premise_fraction(self) -> float:
        """Fraction of checked rows where the rule's premise held —
        the rows on which the rule actually verified something."""
        if self.rows_checked == 0:
            return 0.0
        return self.rows_premise_active / self.rows_checked

    @property
    def vacuous(self) -> bool:
        """True when the premise never fired: the rule verified nothing."""
        return self.rows_premise_active == 0


@dataclass
class CoverageReport:
    """Coverage of a rule set over one trace."""

    rules: Dict[str, RuleCoverage]
    referenced_signals: Tuple[str, ...]
    unmonitored_signals: Tuple[str, ...]

    @property
    def signal_coverage(self) -> float:
        """Fraction of broadcast signals referenced by at least one rule."""
        total = len(self.referenced_signals) + len(self.unmonitored_signals)
        return len(self.referenced_signals) / total if total else 0.0

    def vacuous_rules(self) -> List[str]:
        """Rules whose premise never fired on this trace."""
        return [
            rule_id
            for rule_id, coverage in self.rules.items()
            if coverage.vacuous
        ]

    def summary(self) -> str:
        """Human-readable coverage table."""
        lines = [
            "%-10s %-9s %-9s %-9s %s"
            % ("rule", "checked", "gated-in", "premise", "note"),
            "-" * 52,
        ]
        for rule_id in sorted(self.rules):
            coverage = self.rules[rule_id]
            note = "VACUOUS" if coverage.vacuous else ""
            lines.append(
                "%-10s %7.1f%% %7.1f%% %7.1f%%  %s"
                % (
                    rule_id,
                    100 * coverage.checked_fraction,
                    100 * coverage.gate_fraction,
                    100 * coverage.premise_fraction,
                    note,
                )
            )
        lines.append("")
        lines.append(
            "signal coverage: %.0f%% (%d referenced, %d unmonitored%s)"
            % (
                100 * self.signal_coverage,
                len(self.referenced_signals),
                len(self.unmonitored_signals),
                ": " + ", ".join(self.unmonitored_signals)
                if self.unmonitored_signals
                else "",
            )
        )
        return "\n".join(lines)


def coverage_report(monitor: Monitor, trace: Trace) -> CoverageReport:
    """Measure ``monitor``'s rule coverage over ``trace``."""
    view = trace.to_view(monitor.period, signals=monitor.required_signals())
    ctx = EvalContext(view)
    for machine in monitor.machines:
        ctx.machine_states[machine.name] = machine.run(ctx)
        ctx.machine_alphabets[machine.name] = machine.alphabet

    per_rule: Dict[str, RuleCoverage] = {}
    for rule in monitor.rules:
        per_rule[rule.rule_id] = _rule_coverage(rule, ctx)

    referenced = set(monitor.required_signals())
    available = set(trace.signals())
    return CoverageReport(
        rules=per_rule,
        referenced_signals=tuple(sorted(referenced & available)),
        unmonitored_signals=tuple(sorted(available - referenced)),
    )


def _rule_coverage(rule: Rule, ctx: EvalContext) -> RuleCoverage:
    checked = ~row_mask(rule, ctx)

    if rule.gate is not None:
        gate_codes = evaluate_formula(rule.gate, ctx)
        gate_active = checked & (gate_codes == TRUE_CODE)
    else:
        gate_active = checked.copy()

    # The premise of an implication-shaped formula; other shapes count
    # every gated-in row as exercised.
    if isinstance(rule.formula, Implies):
        premise_codes = evaluate_formula(rule.formula.left, ctx)
        premise_active = gate_active & (premise_codes == TRUE_CODE)
    else:
        premise_active = gate_active

    return RuleCoverage(
        rule_id=rule.rule_id,
        rows_total=ctx.view.n_rows,
        rows_checked=int(checked.sum()),
        rows_gate_active=int(gate_active.sum()),
        rows_premise_active=int(premise_active.sum()),
    )
