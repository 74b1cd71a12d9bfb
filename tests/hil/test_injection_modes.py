"""Stick and silence injection modes (extension faults)."""

import pytest

from helpers import tap_frame
from repro.can.fsracc import fsracc_database
from repro.hil.injection import InjectionHarness, InjectionMode
from repro.hil.simulator import HilSimulator
from repro.hil.typecheck import HIL_PROFILE
from repro.vehicle.scenario import steady_follow


@pytest.fixture
def harness(database):
    return InjectionHarness(database, HIL_PROFILE)


def tap_value(database, harness, signal_name, true_value):
    message = database.message_for_signal(signal_name)
    values = tap_frame(database, harness.tap, message, {signal_name: true_value})
    return None if values is None else values[signal_name]


class TestStick:
    def test_freezes_at_first_observed_value(self, database, harness):
        harness.inject_stick("Velocity")
        assert tap_value(database, harness, "Velocity", 27.0) == 27.0
        assert tap_value(database, harness, "Velocity", 30.0) == 27.0
        assert tap_value(database, harness, "Velocity", 5.0) == 27.0

    def test_clear_unfreezes(self, database, harness):
        harness.inject_stick("Velocity")
        tap_value(database, harness, "Velocity", 27.0)
        harness.clear("Velocity")
        assert tap_value(database, harness, "Velocity", 30.0) == 30.0

    def test_refreeze_latches_new_value(self, database, harness):
        harness.inject_stick("Velocity")
        tap_value(database, harness, "Velocity", 27.0)
        harness.clear("Velocity")
        harness.inject_stick("Velocity")
        assert tap_value(database, harness, "Velocity", 31.0) == 31.0
        assert tap_value(database, harness, "Velocity", 12.0) == 31.0

    def test_other_signals_in_message_unaffected(self, database, harness):
        harness.inject_stick("TargetRange")
        message = database.message_for_signal("TargetRange")
        tap_frame(
            database,
            harness.tap,
            message,
            {"TargetRange": 50.0, "VehicleAhead": False},
        )
        out = tap_frame(
            database,
            harness.tap,
            message,
            {"TargetRange": 10.0, "VehicleAhead": True},
        )
        assert out["TargetRange"] == 50.0
        assert out["VehicleAhead"] is True


class TestSilence:
    def test_silenced_signal_drops_the_frame(self, database, harness):
        harness.inject_silence("TargetRange")
        assert tap_value(database, harness, "TargetRange", 50.0) is None

    def test_clear_restores_transmission(self, database, harness):
        harness.inject_silence("TargetRange")
        harness.clear("TargetRange")
        assert tap_value(database, harness, "TargetRange", 50.0) == 50.0

    def test_unrelated_messages_keep_flowing(self, database, harness):
        harness.inject_silence("TargetRange")
        assert tap_value(database, harness, "Velocity", 27.0) == 27.0


class TestOnTheBench:
    def test_silence_stops_updates_and_counts_drops(self):
        simulator = HilSimulator(steady_follow(1e9), seed=8)
        simulator.run_for(10.0)
        before = simulator.recorder.trace.update_count("TargetRange")
        simulator.injection.inject_silence("TargetRange")
        simulator.run_for(5.0)
        after = simulator.recorder.trace.update_count("TargetRange")
        assert after == before
        assert simulator.bus.frames_dropped > 0

    def test_stuck_signal_keeps_updating_with_constant_value(self):
        simulator = HilSimulator(steady_follow(1e9), seed=8)
        simulator.run_for(10.0)
        simulator.injection.inject_stick("Velocity")
        simulator.run_for(5.0)
        updates = [
            value
            for timestamp, value in simulator.recorder.trace.updates("Velocity")
            if timestamp > 10.5
        ]
        assert len(updates) > 100          # frames keep flowing
        assert len(set(updates)) == 1      # but the value is frozen

    def test_paper_rules_blind_to_silence_freshness_rule_not(self):
        """A silent radar defeats every value-based rule; only the
        freshness watchdog notices (the extension finding)."""
        from repro.core.monitor import Monitor
        from repro.rules import freshness_rule, paper_rules

        simulator = HilSimulator(steady_follow(1e9), seed=8)
        simulator.run_for(15.0)
        simulator.injection.inject_silence("TargetRange")
        simulator.run_for(10.0)
        trace = simulator.result().trace

        monitor = Monitor(paper_rules() + [freshness_rule("TargetRange", 0.5)])
        report = monitor.check(trace)
        for rule_id in ("rule0", "rule1", "rule5", "rule6"):
            assert report.letter(rule_id) == "S"
        assert report.letter("fresh_targetrange") == "V"


class TestFreshnessRule:
    def test_satisfied_on_nominal_traffic(self, nominal_trace):
        from repro.core.monitor import Monitor
        from repro.rules import freshness_rule

        report = Monitor([freshness_rule("RequestedTorque", 0.5)]).check(
            nominal_trace
        )
        assert report.letter("fresh_requestedtorque") == "S"

    def test_age_bound_respects_slow_periods(self, nominal_trace):
        from repro.core.monitor import Monitor
        from repro.rules import freshness_rule

        # RequestedTorque updates every 80 ms; a 40 ms bound must fail.
        report = Monitor([freshness_rule("RequestedTorque", 0.04)]).check(
            nominal_trace
        )
        assert report.letter("fresh_requestedtorque") == "V"
