"""E11 (extension) — robustness testing on the *vehicle* profile.

The paper could not run robustness tests on the real vehicle ("which we
were not permitted to do robustness testing on") and warns that the
HIL's strong type checking "likely missed problems that would be
expected to be present in the real system" (§V-C3).  With a simulated
vehicle we can run the forbidden experiment: the same campaign rows on
the vehicle profile, where invalid enumerated values reach the feature.

Reported: the SelHeadway rows side by side.  On the HIL every random
enum injection is rejected and the row is clean; on the vehicle the
wild enum values reach the feature — and the campaign finds a Rule #2
violation the HIL could never exhibit: with a garbage headway selection
the commanded gap and the feature's fallback gap disagree, and the
feature accelerates inside the commanded safety margin.  §V-C3's
warning ("robustness testing of the HIL platform likely missed
problems"), demonstrated.
"""

from repro.hil.typecheck import HIL_PROFILE, VEHICLE_PROFILE
from repro.rules.safety_rules import RULE_IDS
from repro.testing.campaign import InjectionTest, RobustnessCampaign

ROWS = [
    InjectionTest("Random SelHeadway", "Random", ("SelHeadway",)),
    InjectionTest("Bitflips SelHeadway", "Bitflips", ("SelHeadway",)),
    InjectionTest("Random TargetRange", "Random", ("TargetRange",)),
]


def run_campaign(checker, seed=2014):
    campaign = RobustnessCampaign(checker=checker, seed=seed)
    return {test.label: campaign.run_test(test) for test in ROWS}


def render(hil, vehicle) -> str:
    lines = [
        "EXTENSION: ROBUSTNESS TESTING ON THE VEHICLE PROFILE",
        "(the experiment the paper was not permitted to run)",
        "",
        "%-24s %-10s %-10s %-10s %-10s"
        % ("test", "HIL", "rejected", "vehicle", "rejected"),
        "-" * 68,
    ]
    for label in hil:
        h, v = hil[label], vehicle[label]
        lines.append(
            "%-24s %-10s %-10d %-10s %-10d"
            % (
                label,
                "".join(h.letters[r] for r in RULE_IDS),
                h.rejections,
                "".join(v.letters[r] for r in RULE_IDS),
                v.rejections,
            )
        )
    lines += [
        "",
        "On the vehicle, out-of-range SelHeadway enums reach the feature.",
        "Its unknown-enum fallback gap then disagrees with the commanded",
        "headway, and Rule #2 catches the feature accelerating inside the",
        "commanded margin — a violation the HIL campaign could never find",
        "because its type checking rejected the faults (§V-C3).",
    ]
    return "\n".join(lines)


def test_vehicle_profile_campaign(publish):
    hil = run_campaign(HIL_PROFILE)
    vehicle = run_campaign(VEHICLE_PROFILE)

    publish("vehicle_campaign.txt", render(hil, vehicle))

    # The HIL rejected enum injections the vehicle admitted.
    assert hil["Random SelHeadway"].rejections > 0
    assert vehicle["Random SelHeadway"].rejections == 0
    # The vehicle profile exercised strictly more faults.
    total_hil = sum(outcome.rejections for outcome in hil.values())
    total_vehicle = sum(outcome.rejections for outcome in vehicle.values())
    assert total_vehicle < total_hil
    # The vehicle campaign reveals a violation the HIL campaign missed —
    # exactly the §V-C3 fidelity-gap prediction.
    assert "V" not in hil["Random SelHeadway"].letters.values()
    assert "V" in vehicle["Random SelHeadway"].letters.values()
    # Float-signal rows behave identically on both profiles (floats were
    # never guarded, §III-A).
    assert (
        hil["Random TargetRange"].letters
        == vehicle["Random TargetRange"].letters
    )
