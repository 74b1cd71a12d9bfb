"""Injection harness: multiplexor semantics, taps, rejection accounting."""

import math

import pytest

from helpers import tap_frame
from repro.can.fsracc import fsracc_database
from repro.errors import InjectionError
from repro.hil.injection import InjectionHarness, InjectionMode
from repro.hil.typecheck import HIL_PROFILE, VEHICLE_PROFILE


@pytest.fixture
def harness(database):
    return InjectionHarness(database, HIL_PROFILE)


def transmit(database, harness, signal_name, true_value):
    """Run a frame of the message carrying ``signal_name`` through the
    tap; return the value delivered."""
    message = database.message_for_signal(signal_name)
    values = tap_frame(database, harness.tap, message, {signal_name: true_value})
    return values[signal_name]


class TestValueInjection:
    def test_pass_through_by_default(self, database, harness):
        assert transmit(database, harness, "Velocity", 27.0) == 27.0

    def test_enabled_injection_overrides_value(self, database, harness):
        assert harness.inject_value("Velocity", -500.0).accepted
        assert transmit(database, harness, "Velocity", 27.0) == -500.0

    def test_clear_restores_pass_through(self, database, harness):
        harness.inject_value("Velocity", -500.0)
        harness.clear("Velocity")
        assert transmit(database, harness, "Velocity", 27.0) == 27.0

    def test_exceptional_value_reaches_the_wire(self, database, harness):
        harness.inject_value("TargetRange", float("nan"))
        assert math.isnan(transmit(database, harness, "TargetRange", 50.0))

    def test_rejected_injection_passes_true_value(self, database, harness):
        result = harness.inject_value("SelHeadway", 6)
        assert not result.accepted
        assert transmit(database, harness, "SelHeadway", 2) == 2

    def test_rejections_are_counted_and_logged(self, database, harness):
        harness.inject_value("SelHeadway", 6)
        harness.inject_value("SelHeadway", 2)
        assert harness.attempts == 2
        assert harness.rejections == 1
        assert harness.rejection_log[0][0] == "SelHeadway"

    def test_vehicle_profile_admits_bad_enum(self, database):
        harness = InjectionHarness(database, VEHICLE_PROFILE)
        assert harness.inject_value("SelHeadway", 6).accepted
        assert transmit(database, harness, "SelHeadway", 2) == 6

    def test_unknown_signal_rejected(self, harness):
        with pytest.raises(InjectionError):
            harness.inject_value("NotASignal", 1.0)

    def test_multiple_signals_in_one_message(self, database, harness):
        harness.inject_value("TargetRange", 999.0)
        message = database.message_for_signal("TargetRange")
        values = tap_frame(
            database,
            harness.tap,
            message,
            {"TargetRange": 50.0, "VehicleAhead": True},
        )
        assert values["TargetRange"] == 999.0
        assert values["VehicleAhead"] is True


class TestBitflipInjection:
    def test_flip_applies_on_every_transmission(self, database, harness):
        harness.inject_bitflips("Velocity", (31,))  # sign bit
        assert transmit(database, harness, "Velocity", 27.0) == -27.0
        assert transmit(database, harness, "Velocity", 10.0) == -10.0

    def test_flip_offsets_validated(self, harness):
        with pytest.raises(InjectionError):
            harness.inject_bitflips("Velocity", (32,))
        with pytest.raises(InjectionError):
            harness.inject_bitflips("VehicleAhead", (1,))

    def test_mask_wider_than_field_rejected(self, harness):
        # SelHeadway is a 3-bit field: a 4-bit mask cannot fit, even
        # before any single offset is range-checked (AU302's dynamic
        # counterpart).
        with pytest.raises(InjectionError, match="only 3 bit"):
            harness.inject_bitflips("SelHeadway", (0, 1, 2, 3))
        assert not harness.is_enabled("SelHeadway")

    def test_duplicate_offsets_rejected(self, harness):
        # A duplicated offset XORs back to a no-op — reject it rather
        # than silently weakening the fault.
        with pytest.raises(InjectionError, match="duplicate"):
            harness.inject_bitflips("Velocity", (3, 3))
        assert not harness.is_enabled("Velocity")

    def test_hil_profile_suppresses_invalid_enum_flips(self, database, harness):
        # SelHeadway = 2 (0b010); flipping bit 2 gives 6, an invalid enum
        # that the HIL's strong checking refuses to put on the wire.
        harness.inject_bitflips("SelHeadway", (2,))
        assert transmit(database, harness, "SelHeadway", 2) == 2

    def test_hil_profile_admits_valid_enum_flips(self, database, harness):
        # SelHeadway = 2 (0b010); flipping bit 0 gives 3, a valid value.
        harness.inject_bitflips("SelHeadway", (0,))
        assert transmit(database, harness, "SelHeadway", 2) == 3

    def test_vehicle_profile_admits_invalid_enum_flips(self, database):
        harness = InjectionHarness(database, VEHICLE_PROFILE)
        harness.inject_bitflips("SelHeadway", (2,))
        assert transmit(database, harness, "SelHeadway", 2) == 6

    def test_float_flips_always_pass(self, database, harness):
        harness.inject_bitflips("Velocity", (30, 23))
        value = transmit(database, harness, "Velocity", 27.0)
        assert value != 27.0


class TestBookkeeping:
    def test_enabled_signals_listed(self, harness):
        harness.inject_value("Velocity", 1.0)
        harness.inject_bitflips("TargetRange", (0,))
        assert harness.enabled_signals() == ("TargetRange", "Velocity")
        assert harness.is_enabled("Velocity")
        assert not harness.is_enabled("ThrotPos")

    def test_clear_all(self, harness):
        harness.inject_value("Velocity", 1.0)
        harness.inject_value("ThrotPos", 2.0)
        harness.clear_all()
        assert harness.enabled_signals() == ()

    def test_reinjection_replaces_previous(self, database, harness):
        harness.inject_value("Velocity", 1.0)
        harness.inject_value("Velocity", 2.0)
        assert transmit(database, harness, "Velocity", 27.0) == 2.0
