"""E19 — static margin prover: bound quality against dynamic margins.

``margins_static.txt`` lists the prover's per-rule ``[lower, upper]``
intervals for the paper rules next to the dynamic rule-level margins of
a nominal campaign leg, with the containment contract (static interval
brackets the dynamic value) checked for every rule, and the prover's
wall clock measured against one simulated test — the whole point of the
static pass is that it costs milliseconds where a campaign leg costs
seconds.
"""

from __future__ import annotations

import time

from repro.analysis.margins import analyze_margins
from repro.core.monitor import Monitor
from repro.hil.simulator import HilSimulator
from repro.rules.safety_rules import paper_rules
from repro.vehicle.scenario import steady_follow

#: Same seed as every other reproduction artifact (see conftest.py).
SEED = 2014


def test_static_bounds_bracket_dynamic_margins(publish):
    rules = paper_rules()

    started = time.perf_counter()
    report = analyze_margins(rules, target="paper rules")
    static_s = time.perf_counter() - started

    # One nominal simulated leg for the dynamic side of the table.
    started = time.perf_counter()
    simulator = HilSimulator(
        scenario=steady_follow(duration=30.0), seed=SEED
    )
    simulator.run_for(30.0)
    monitor = Monitor(rules)
    checked = monitor.check(simulator.result().trace, robustness=True)
    dynamic_s = time.perf_counter() - started

    statics = {entry.rule_id: entry.interval for entry in report.rules}
    lines = [
        "STATIC MARGIN PROVER VS DYNAMIC MARGINS (E19)",
        "static pass: %7.4f s   nominal leg: %7.2f s" % (static_s, dynamic_s),
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
    # The static pass must be orders cheaper than simulating one leg.
    assert static_s < dynamic_s

