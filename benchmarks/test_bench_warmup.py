"""E5 — §V-C2 ablation: warm-up after discrete value jumps.

A scenario with repeated target acquisitions (cut-ins and cut-outs)
exercises the range/relative-velocity consistency check.  At every
acquisition ``TargetRange`` jumps discretely from 0 to the true range, so
the first observed "change" disagrees with the (correctly negative)
relative velocity — a false alarm unless the rule warms up.

Reproduced shape: without warm-up, every acquisition fires the check;
with the activation warm-up, zero false alarms remain.
"""

from repro.core.monitor import Monitor
from repro.hil.simulator import HilSimulator
from repro.rules.safety_rules import consistency_rule
from repro.vehicle.driver import DriverAction
from repro.vehicle.lead import Appear, Disappear
from repro.vehicle.scenario import Scenario

ACQUISITIONS = 6


def acquisition_scenario() -> Scenario:
    """A drive where a closing target appears and disappears repeatedly."""
    script = []
    t = 10.0
    for _ in range(ACQUISITIONS):
        # The target appears already closing (slower than the ego), so
        # relative velocity is genuinely negative at acquisition.
        script.append(Appear(time=t, range_m=70.0, speed=22.0))
        script.append(Disappear(time=t + 12.0))
        t += 20.0
    return Scenario(
        name="acquisitions",
        duration=t,
        lead_script=tuple(script),
        driver_actions=(
            DriverAction(time=2.0, acc_on=True, set_speed=29.0, headway=2),
        ),
        initial_velocity=27.0,
    )


def render(without_warmup, with_warmup) -> str:
    return "\n".join(
        [
            "SECTION V-C2 ABLATION: WARM-UP AFTER ACTIVATION JUMPS",
            "range/rel-vel consistency check over %d target acquisitions"
            % ACQUISITIONS,
            "",
            "%-40s %d" % ("false alarms without warm-up", without_warmup),
            "%-40s %d" % ("false alarms with activation warm-up", with_warmup),
        ]
    )


def test_warmup_ablation(publish):
    trace = HilSimulator(acquisition_scenario(), seed=2014).run().trace

    bare = Monitor([consistency_rule(with_warmup=False)])
    warmed = Monitor([consistency_rule(with_warmup=True)])
    bare_result = bare.check(trace).result("consistency")
    warmed_result = warmed.check(trace).result("consistency")

    publish(
        "warmup_ablation.txt",
        render(len(bare_result.violations), len(warmed_result.violations)),
    )

    # Acquisition jumps fire the un-warmed rule (nearly every cut-in;
    # occasionally the ego happens to be slower than the appearing lead,
    # in which case there is no sign disagreement to flag)...
    assert len(bare_result.violations) >= ACQUISITIONS - 2
    # ...and warm-up removes all of them (there is no real fault here).
    assert not warmed_result.violated
