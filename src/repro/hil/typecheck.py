"""Injection value checking — the HIL's strong typing versus the vehicle.

Section III-A: on the dSPACE HIL, "the injected values were limited by
data-type bounds checking performed by the interface", restricting
injections to floats (*including* exceptional values such as NaN and
infinity), booleans, and valid enumeration values.  Section V-C3 then
observes that this strong type checking is a fidelity gap: the real
vehicle network has no such guard, so HIL robustness testing "likely
missed problems that would be expected to be present in the real system".

Two checker profiles reproduce that difference:

* :data:`HIL_PROFILE` — type-level checking: any float (exceptional
  values allowed), booleans must be 0/1, enums must be values from the
  enumeration.  Physical range limits are *not* enforced (the paper
  injected ±2000 into signals whose physical range is far smaller).
* :data:`VEHICLE_PROFILE` — no checking beyond what the wire format can
  represent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.can.signal import SignalDef, SignalType, SignalValue


class CheckProfile(enum.Enum):
    """Where the injection interface lives."""

    HIL = "hil"
    VEHICLE = "vehicle"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking one injected value."""

    accepted: bool
    reason: str = ""


#: The one accepting result: a bit-flip injection re-checks its value
#: on every frame, and results are immutable.
ACCEPTED = CheckResult(True)


class InjectionTypeChecker:
    """Applies a profile's value checking to injection requests."""

    def __init__(self, profile: CheckProfile = CheckProfile.HIL) -> None:
        self.profile = profile

    def check(self, signal: SignalDef, value: SignalValue) -> CheckResult:
        """Decide whether ``value`` may be injected into ``signal``."""
        representable = self._check_representable(signal, value)
        if not representable.accepted:
            return representable
        if self.profile is CheckProfile.VEHICLE:
            return ACCEPTED
        return self._check_hil(signal, value)

    # ------------------------------------------------------------------

    @staticmethod
    def _check_representable(
        signal: SignalDef, value: SignalValue
    ) -> CheckResult:
        """Both profiles: the value must fit the wire format at all."""
        if signal.kind is SignalType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return CheckResult(False, "not a number")
            return ACCEPTED
        if signal.kind is SignalType.BOOL:
            if isinstance(value, bool) or value in (0, 1):
                return ACCEPTED
            return CheckResult(False, "not a boolean")
        if isinstance(value, bool) or not isinstance(value, int):
            return CheckResult(False, "enum value must be an integer")
        if not 0 <= value <= signal.max_raw:
            return CheckResult(False, "does not fit the enum field")
        return ACCEPTED

    @staticmethod
    def _check_hil(signal: SignalDef, value: SignalValue) -> CheckResult:
        """HIL strong type checking (type-level, not physical-range)."""
        if signal.kind is SignalType.FLOAT:
            # Floats pass, including NaN and infinities (§III-A).
            return ACCEPTED
        if signal.kind is SignalType.BOOL:
            return ACCEPTED
        # Enums: out-of-range enumerated values are prohibited (§V-C3).
        assert isinstance(value, int)
        if signal.enum_labels and value not in signal.enum_labels:
            return CheckResult(
                False, "out-of-range enumerated value %d" % value
            )
        if signal.minimum is not None and value < signal.minimum:
            return CheckResult(False, "enum below minimum")
        if signal.maximum is not None and value > signal.maximum:
            return CheckResult(False, "enum above maximum")
        return ACCEPTED


#: Shared strict checker (dSPACE HIL behaviour).
HIL_PROFILE = InjectionTypeChecker(CheckProfile.HIL)
#: Shared permissive checker (real vehicle behaviour).
VEHICLE_PROFILE = InjectionTypeChecker(CheckProfile.VEHICLE)

#: Checker profiles by name — the CLI/worker construction registry.
CHECKER_PROFILES = {
    CheckProfile.HIL.value: HIL_PROFILE,
    CheckProfile.VEHICLE.value: VEHICLE_PROFILE,
}


def checker_named(name: str) -> InjectionTypeChecker:
    """Look up a checker profile by name (``"hil"`` or ``"vehicle"``)."""
    try:
        return CHECKER_PROFILES[name]
    except KeyError:
        raise ValueError(
            "unknown checker profile %r (choose from %s)"
            % (name, ", ".join(sorted(CHECKER_PROFILES)))
        ) from None
