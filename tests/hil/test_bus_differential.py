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


def columns(trace):
    return {
        name: tuple(array.tobytes() for array in trace.update_arrays(name))
        for name in trace.signals()
    }


def fingerprint(simulator):
    return {
        "signals": columns(simulator.recorder.trace),
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


# Changes made while the testbench runs, at times that fall between
# frames of the same message, so each lands mid-hold.


def injections_mid_hold(simulator):
    """Set and clear injections one at a time: the messages the harness
    declares to the bus follow every change."""
    injection = simulator.injection
    simulator.run_for(1.03)
    injection.inject_value("Velocity", 31.5)
    simulator.run_for(0.37)
    injection.inject_bitflips("TargetRange", (30,))
    simulator.run_for(0.41)
    injection.clear("Velocity")
    simulator.run_for(0.29)
    injection.inject_silence("TargetRelVel")
    injection.inject_stick("ACCSetSpeed")
    simulator.run_for(0.23)
    injection.clear("TargetRelVel")
    injection.clear("Velocity")  # already clear
    simulator.run_for(0.31)
    injection.inject_value("SelHeadway", 3)
    injection.inject_value("SelHeadway", 9)  # rejected: the 3 stays
    simulator.run_for(0.43)
    injection.clear_all()
    simulator.run_for(0.33)
    assert not injection.targets


def driver_overrides_mid_run(simulator):
    """Set and clear driver overrides; each shows on the bus from the
    next frame of its message on, whatever the scripted driver does."""
    script = simulator.scenario.make_driver()

    def on_bus(**expected):
        scripted = script.step(simulator.time)
        for signal, field in (
            ("AccelPedPos", "accel_pedal"),
            ("BrakePedPres", "brake_pressure"),
            ("ACCSetSpeed", "set_speed"),
            ("SelHeadway", "headway"),
            ("AccActive", "acc_on"),
        ):
            want = expected.get(field, getattr(scripted, field))
            assert simulator.recorder.trace.updates(signal)[-1][1] == want, signal

    simulator.run_for(1.07)
    simulator.set_driver_override("set_speed", 12.0)
    simulator.run_for(0.61)
    on_bus(set_speed=12.0)
    simulator.set_driver_override("brake_pressure", 40.0)
    simulator.set_driver_override("headway", 3.0)
    simulator.run_for(0.53)
    on_bus(set_speed=12.0, brake_pressure=40.0, headway=3)
    simulator.clear_driver_override("brake_pressure")
    simulator.set_driver_override("acc_on", 0.0)
    simulator.run_for(0.47)
    on_bus(set_speed=12.0, headway=3, acc_on=0.0)
    simulator.clear_driver_override("set_speed")
    simulator.clear_driver_override("acc_on")
    simulator.clear_driver_override("accel_pedal")  # never set
    simulator.run_for(0.51)
    on_bus(headway=3)


SCRIPTS = {
    "injections": injections_mid_hold,
    "overrides": driver_overrides_mid_run,
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
@pytest.mark.parametrize("seed", [5, 2014])
def test_mid_run_changes_match_per_frame_oracle(script, seed):
    def run_script():
        simulator = HilSimulator(cut_in(4.0), seed=seed)
        SCRIPTS[script](simulator)
        return fingerprint(simulator)

    got = run_script()
    with per_frame_bus():
        want = run_script()
    assert got == want
