"""E10 (extension) — silent/stuck sensor detectability.

The paper's rules are *value-based*: they constrain what broadcast values
may say.  A failed node that stops broadcasting (or a stuck sensor that
repeats its last value) defeats every such rule — the held values keep
satisfying them while the vehicle's view of the world silently freezes.

This bench injects both failure modes into the radar channel during
target following and reports which rules notice:

* all seven paper rules stay satisfied under both faults (monitors built
  only from the paper's rule set would call these tests PASS);
* a freshness watchdog (``age(TargetRange)`` bound) flags the silent
  sensor immediately;
* the range/rel-vel consistency check flags the *stuck* sensor (the
  frozen range firmly disagrees with the live relative velocity).
"""

from repro.core.monitor import Monitor
from repro.hil.simulator import HilSimulator
from repro.rules.safety_rules import (
    RULE_IDS,
    consistency_rule,
    freshness_rule,
    paper_rules,
)
from repro.vehicle.lead import Appear, ChangeSpeed
from repro.vehicle.driver import DriverAction
from repro.vehicle.scenario import Scenario


def closing_scenario() -> Scenario:
    """Following a lead that later brakes — the worst time to lose radar."""
    return Scenario(
        name="radar-fault",
        duration=1e9,
        lead_script=(
            Appear(time=5.0, range_m=55.0, speed=27.0),
            ChangeSpeed(time=25.0, speed=20.0, accel=1.5),
        ),
        driver_actions=(
            DriverAction(time=2.0, acc_on=True, set_speed=31.0, headway=2),
        ),
        initial_velocity=27.0,
    )


def run_with_fault(mode: str, seed: int = 2014):
    simulator = HilSimulator(closing_scenario(), seed=seed)
    simulator.run_for(20.0)
    if mode == "silence":
        simulator.injection.inject_silence("TargetRange")
    elif mode == "stick":
        simulator.injection.inject_stick("TargetRange")
    simulator.run_for(15.0)
    return simulator.result()


def render(rows) -> str:
    lines = [
        "EXTENSION: SILENT / STUCK SENSOR DETECTABILITY",
        "radar TargetRange fault injected while following a braking lead",
        "",
        "%-12s %-22s %-12s %-12s" % ("fault", "paper rules 0-6", "freshness", "consistency"),
        "-" * 62,
    ]
    for mode, letters, fresh, consistent in rows:
        lines.append(
            "%-12s %-22s %-12s %-12s" % (mode, letters, fresh, consistent)
        )
    lines += [
        "",
        "value-based rules cannot see a frozen world; freshness and",
        "cross-signal consistency checks close the gap.",
    ]
    return "\n".join(lines)


def test_silent_sensor_detectability(publish):
    rules = (
        paper_rules()
        + [freshness_rule("TargetRange", 0.5), consistency_rule()]
    )
    monitor = Monitor(rules)

    rows = []
    reports = {}
    for mode in ("none", "silence", "stick"):
        result = run_with_fault(mode)
        report = monitor.check(result.trace)
        reports[mode] = report
        rows.append(
            (
                mode,
                "".join(report.letter(rule_id) for rule_id in RULE_IDS),
                report.letter("fresh_targetrange"),
                report.letter("consistency"),
            )
        )
    publish("silent_sensor.txt", render(rows))

    # Baseline: everything clean.
    assert reports["none"].all_satisfied
    # Both faults sail past the paper's value-based rules...
    for mode in ("silence", "stick"):
        for rule_id in RULE_IDS:
            assert reports[mode].letter(rule_id) == "S", (mode, rule_id)
    # ...but the freshness watchdog catches the silent sensor...
    assert reports["silence"].letter("fresh_targetrange") == "V"
    # ...and the consistency check catches the stuck one.
    assert reports["stick"].letter("consistency") == "V"
