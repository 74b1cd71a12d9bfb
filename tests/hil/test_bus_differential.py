"""The simulator on the compiled bus against the per-frame bus oracle.

Each scenario runs a short HIL simulation twice, once as it ships and
once on the oracle of ``helpers.per_frame_bus`` (per-signal encode and
decode of every frame, one scalar jitter draw per frame, one trace
append per signal), and requires the same traces bit for bit, NaN
included, and the same frame and injection counts.
"""

import pytest

from helpers import per_frame_bus
from repro.hil.simulator import HilSimulator
from repro.vehicle.scenario import cut_in, steady_follow


def inject_value(injection):
    injection.inject_value("Velocity", float("nan"))
    injection.inject_value("ACCSetSpeed", 1e30)
    injection.inject_value("SelHeadway", 7)  # rejected on the HIL profile
    injection.inject_value("TargetRange", -0.0)


def inject_bitflips(injection):
    injection.inject_bitflips("TargetRange", (30, 22))
    injection.inject_bitflips("SelHeadway", (1,))  # some flips are suppressed


def inject_stick(injection):
    injection.inject_stick("Velocity")
    injection.inject_stick("VehicleAhead")


def inject_silence(injection):
    injection.inject_silence("TargetRelVel")


SCENARIOS = {
    "none": None,
    "value": inject_value,
    "bitflip": inject_bitflips,
    "stick": inject_stick,
    "silence": inject_silence,
}


def run(scenario, inject, seed):
    simulator = HilSimulator(scenario, seed=seed)
    simulator.run_for(2.0)
    if inject is not None:
        inject(simulator.injection)
    simulator.run_for(1.5)
    simulator.injection.clear_all()
    simulator.run_for(0.5)
    return simulator


def fingerprint(simulator):
    trace = simulator.recorder.trace
    return {
        "signals": {
            name: tuple(
                array.tobytes() for array in trace.update_arrays(name)
            )
            for name in trace.signals()
        },
        "frames_sent": simulator.bus.frames_sent,
        "frames_dropped": simulator.bus.frames_dropped,
        "attempts": simulator.injection.attempts,
        "rejections": simulator.injection.rejections,
        "gap": simulator.min_gap,
    }


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
@pytest.mark.parametrize(
    "scenario,seed", [(steady_follow(4.0), 7), (cut_in(4.0), 2014)],
    ids=["steady_follow", "cut_in"],
)
def test_compiled_bus_matches_per_frame_oracle(kind, scenario, seed):
    got = fingerprint(run(scenario, SCENARIOS[kind], seed))
    with per_frame_bus():
        oracle = run(scenario, SCENARIOS[kind], seed)
    assert type(oracle.bus).__name__ == "PerFrameBus"
    want = fingerprint(oracle)
    assert got == want
    if kind == "silence":
        assert want["frames_dropped"] > 0
    if kind == "value":
        assert want["rejections"] == 1
