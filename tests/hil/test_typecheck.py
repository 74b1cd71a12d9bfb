"""HIL vs vehicle injection type-check profiles (§III-A, §V-C3)."""

import pytest

from repro.can.signal import SignalDef, SignalType
from repro.hil.typecheck import (
    CheckProfile,
    HIL_PROFILE,
    InjectionTypeChecker,
    VEHICLE_PROFILE,
)

FLOAT_SIG = SignalDef("f", 0, 32, SignalType.FLOAT, minimum=0.0, maximum=100.0)
BOOL_SIG = SignalDef("b", 0, 1, SignalType.BOOL)
ENUM_SIG = SignalDef(
    "e", 0, 3, SignalType.ENUM, enum_labels={1: "A", 2: "B", 3: "C"}
)
RAW_ENUM = SignalDef("r", 0, 4, SignalType.ENUM, minimum=1, maximum=5)


class TestHilProfile:
    def test_floats_pass_including_out_of_physical_range(self):
        # The paper injected ±2000 into signals with far smaller ranges.
        assert HIL_PROFILE.check(FLOAT_SIG, 2000.0).accepted
        assert HIL_PROFILE.check(FLOAT_SIG, -2000.0).accepted

    def test_exceptional_floats_pass(self):
        # §III-A: NaN and infinities were injectable on the HIL.
        for value in (float("nan"), float("inf"), float("-inf")):
            assert HIL_PROFILE.check(FLOAT_SIG, value).accepted

    def test_non_numeric_float_rejected(self):
        assert not HIL_PROFILE.check(FLOAT_SIG, "fast").accepted  # type: ignore[arg-type]

    def test_bools_limited_to_binary(self):
        assert HIL_PROFILE.check(BOOL_SIG, True).accepted
        assert HIL_PROFILE.check(BOOL_SIG, 0).accepted
        assert not HIL_PROFILE.check(BOOL_SIG, 2).accepted

    def test_out_of_range_enum_prohibited(self):
        # §V-C3: "prohibiting things such as out-of-range enumerated values".
        assert HIL_PROFILE.check(ENUM_SIG, 2).accepted
        result = HIL_PROFILE.check(ENUM_SIG, 6)
        assert not result.accepted
        assert "out-of-range" in result.reason

    def test_enum_bounds_without_labels(self):
        assert HIL_PROFILE.check(RAW_ENUM, 5).accepted
        assert not HIL_PROFILE.check(RAW_ENUM, 0).accepted
        assert not HIL_PROFILE.check(RAW_ENUM, 6).accepted

    def test_enum_requires_integer(self):
        assert not HIL_PROFILE.check(ENUM_SIG, 1.5).accepted  # type: ignore[arg-type]
        assert not HIL_PROFILE.check(ENUM_SIG, True).accepted


class TestVehicleProfile:
    def test_out_of_range_enum_admitted(self):
        # The fidelity gap: the real vehicle has no strong value checking.
        assert VEHICLE_PROFILE.check(ENUM_SIG, 6).accepted

    def test_unrepresentable_enum_still_rejected(self):
        # Physics, not policy: 9 does not fit a 3-bit field.
        assert not VEHICLE_PROFILE.check(ENUM_SIG, 9).accepted

    def test_floats_and_bools_pass(self):
        assert VEHICLE_PROFILE.check(FLOAT_SIG, float("nan")).accepted
        assert VEHICLE_PROFILE.check(BOOL_SIG, 1).accepted

    def test_non_binary_bool_still_rejected(self):
        # A boolean wire bit cannot carry the value 2 either way.
        assert not VEHICLE_PROFILE.check(BOOL_SIG, 2).accepted


class TestProfiles:
    def test_shared_instances_have_expected_profiles(self):
        assert HIL_PROFILE.profile is CheckProfile.HIL
        assert VEHICLE_PROFILE.profile is CheckProfile.VEHICLE

    def test_profiles_differ_exactly_on_enum_policy(self):
        checker_hil = InjectionTypeChecker(CheckProfile.HIL)
        checker_veh = InjectionTypeChecker(CheckProfile.VEHICLE)
        assert not checker_hil.check(ENUM_SIG, 7).accepted
        assert checker_veh.check(ENUM_SIG, 7).accepted

    @pytest.mark.parametrize(
        "checker", [HIL_PROFILE, VEHICLE_PROFILE], ids=["hil", "vehicle"]
    )
    @pytest.mark.parametrize(
        "value", [1e39, -1e39, 10**400], ids=["1e39", "-1e39", "int1e400"]
    )
    def test_float_outside_float32_rejected(self, checker, value):
        # Regression: accepted, then the injection tap raised CodecError
        # mid-run.  The reason is the codec's own.
        result = checker.check(FLOAT_SIG, value)
        assert not result.accepted
        assert result.reason == "f: cannot encode %r as float32" % (value,)
