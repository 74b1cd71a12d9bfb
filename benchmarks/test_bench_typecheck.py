"""E6 — §V-C3 ablation: HIL strong type checking vs the real vehicle.

The dSPACE HIL's value checking rejected injections the real vehicle
would have admitted ("prohibiting things such as out-of-range enumerated
values"), so "robustness testing of the HIL platform likely missed
problems that would be expected to be present in the real system".

This bench replays the same injection request stream against both
profiles and reports how many requests each admits.
"""

import numpy as np

from repro.can.fsracc import FSRACC_INPUTS, fsracc_database
from repro.hil.injection import InjectionHarness
from repro.hil.typecheck import HIL_PROFILE, VEHICLE_PROFILE
from repro.testing.random_injection import random_values

REQUESTS_PER_SIGNAL = 40


def build_request_stream(database, seed=2014):
    rng = np.random.default_rng(seed)
    requests = []
    for name in FSRACC_INPUTS:
        signal = database.signal(name)
        for value in random_values(signal, REQUESTS_PER_SIGNAL, rng):
            requests.append((name, value))
    return requests


def run_profile(database, checker, requests):
    harness = InjectionHarness(database, checker)
    for name, value in requests:
        harness.inject_value(name, value)
        harness.clear(name)
    return harness


def render(total, hil, vehicle) -> str:
    return "\n".join(
        [
            "SECTION V-C3 ABLATION: HIL TYPE CHECKING VS REAL VEHICLE",
            "identical random injection request stream on both profiles",
            "",
            "%-44s %d" % ("injection requests", total),
            "%-44s %d" % ("rejected by HIL strong type checking", hil.rejections),
            "%-44s %d" % ("rejected on the vehicle profile", vehicle.rejections),
            "%-44s %d"
            % (
                "faults the HIL never exercised",
                hil.rejections - vehicle.rejections,
            ),
            "",
            "sample HIL rejections:",
        ]
        + [
            "  %-14s %-12r %s" % entry
            for entry in hil.rejection_log[:5]
        ]
    )


def test_typecheck_profiles(publish):
    database = fsracc_database()
    requests = build_request_stream(database)

    hil = run_profile(database, HIL_PROFILE, requests)
    vehicle = run_profile(database, VEHICLE_PROFILE, requests)

    publish("typecheck_ablation.txt", render(len(requests), hil, vehicle))

    # The HIL profile blocks strictly more faults than the vehicle: the
    # §V-C3 fidelity gap.
    assert hil.rejections > vehicle.rejections
    assert vehicle.rejections == 0
    # All HIL rejections are enum-typed signals (floats pass even when
    # exceptional).
    assert all(entry[0] == "SelHeadway" for entry in hil.rejection_log)
