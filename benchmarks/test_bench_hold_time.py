"""E12 (extension) — injection hold-time sensitivity.

The paper held each injected fault for 20 s "to allow time for the fault
to manifest into a specification violation" but did not justify the
number.  This sweep re-runs critical campaign rows with shorter holds and
counts detected violations.  The effect is not simply monotone: shorter
holds mean more injection *switches* per test (each switch is a transient
that can trip rules #3/#5), while longer holds give slow manifestations
time to develop (closing a 50 m gap, failing rule #1's 5 s recovery
window).  The 2 s holds detect the least; 5 s and 20 s trade transient
detections for manifestation detections.
"""

from repro.rules.safety_rules import RULE_IDS
from repro.testing.campaign import InjectionTest, RobustnessCampaign

HOLD_TIMES = (2.0, 5.0, 20.0)

ROWS = [
    InjectionTest("Random Velocity", "Random", ("Velocity",)),
    InjectionTest("Random TargetRange", "Random", ("TargetRange",)),
    InjectionTest("Random ACCSetSpeed", "Random", ("ACCSetSpeed",)),
    InjectionTest(
        "mRandom Range+", "mRandom",
        ("TargetRange", "TargetRelVel", "VehicleAhead"),
    ),
]


def violated_cells(hold_time, seed=2014):
    campaign = RobustnessCampaign(
        seed=seed, hold_time=hold_time, gap_time=2.0, settle_time=15.0
    )
    cells = {}
    for test in ROWS:
        outcome = campaign.run_test(test)
        cells[test.label] = "".join(
            outcome.letters[rule_id] for rule_id in RULE_IDS
        )
    return cells


def render(by_hold) -> str:
    lines = [
        "EXTENSION: INJECTION HOLD-TIME SENSITIVITY",
        "same injections, held for different durations",
        "",
        "%-24s %s" % ("test", "   ".join("%4.0fs" % h for h in HOLD_TIMES)),
        "-" * 52,
    ]
    for test in ROWS:
        row = "   ".join(
            "%d V " % by_hold[hold][test.label].count("V")
            for hold in HOLD_TIMES
        )
        lines.append("%-24s %s" % (test.label, row))
    totals = [
        sum(cells.count("V") for cells in by_hold[hold].values())
        for hold in HOLD_TIMES
    ]
    lines.append("-" * 52)
    lines.append(
        "%-24s %s" % ("total violated cells", "   ".join("%d V " % t for t in totals))
    )
    lines.append("")
    lines.append(
        "slow manifestations (gap collapse, headway non-recovery) need the"
    )
    lines.append(
        "paper's 20 s holds; very short holds trade them for switch"
    )
    lines.append("transients and detect the least overall.")
    return "\n".join(lines)


def test_hold_time_sensitivity(publish):
    by_hold = {hold: violated_cells(hold) for hold in HOLD_TIMES}
    publish("hold_time.txt", render(by_hold))

    totals = {
        hold: sum(cells.count("V") for cells in by_hold[hold].values())
        for hold in HOLD_TIMES
    }
    # The paper's 20 s holds reveal strictly more than 2 s holds; the
    # relationship is not required to be monotone in between (switch
    # transients vs slow manifestations trade off).
    assert totals[20.0] > totals[2.0]
