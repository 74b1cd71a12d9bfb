"""E19 — static margin prover: bound quality against dynamic margins.

``margins_static.txt`` lists the prover's per-rule ``[lower, upper]``
intervals for the paper rules next to the dynamic rule-level margins of
a nominal campaign leg, with the containment contract (static interval
brackets the dynamic value) checked for every rule.  The prover's cost
is a host timing, measured by the ``audit`` workload of
``bench/run.py``.
"""

from __future__ import annotations

from repro.analysis.margins import analyze_margins
from repro.core.monitor import Monitor
from repro.hil.simulator import HilSimulator
from repro.rules.safety_rules import paper_rules
from repro.vehicle.scenario import steady_follow

#: Same seed as every other reproduction artifact (see conftest.py).
SEED = 2014


def test_static_bounds_bracket_dynamic_margins(publish):
    rules = paper_rules()

    report = analyze_margins(rules, target="paper rules")

    # One nominal simulated leg for the dynamic side of the table.
    simulator = HilSimulator(
        scenario=steady_follow(duration=30.0), seed=SEED
    )
    simulator.run_for(30.0)
    monitor = Monitor(rules)
    checked = monitor.check(simulator.result().trace, robustness=True)

    statics = {entry.rule_id: entry.interval for entry in report.rules}
    lines = [
        "STATIC MARGIN PROVER VS DYNAMIC MARGINS (E19)",
        "",
        "%-8s %-22s %s" % ("rule", "static [lo, hi]", "dynamic margin"),
    ]
    contained = True
    for rule in rules:
        static = statics[rule.rule_id]
        robustness = checked.result(rule.rule_id).robustness
        inside = static.lo <= robustness.lower and (
            robustness.upper <= static.hi
        )
        contained = contained and inside
        lines.append(
            "%-8s %-22s [%g, %g]%s"
            % (
                rule.rule_id,
                str(static),
                robustness.lower,
                robustness.upper,
                "" if inside else "  OUTSIDE",
            )
        )
    lines.append("")
    lines.append("every dynamic margin inside its static interval: %s" % contained)
    publish("margins_static.txt", "\n".join(lines))

    assert contained
