"""The paper's safety specification — Rules #0 through #6 (§III-C).

Each rule is expressed in the monitor's specification language, gated on
``ACCEnabled`` where the paper implies the property only binds while the
feature claims control authority.  Rule #0 is ungated: it *is* the
consistency check between ``ServiceACC`` and ``ACCEnabled``.

Every rule exists in two flavours:

* the **strict** form — the rules as first written, from expert-elicited
  common sense with no knowledge of the control internals;
* the **relaxed** form — after the triage of §IV-A, with intent
  approximation applied: magnitude/duration filters on torque-trend rules
  (hill climbs and cut-ins produce negligible or fleeting increases that
  do not imply intent), premise margins, warm-up after target
  acquisition, and a one-cycle tolerance on Rule #5.

Notes on encodings:

* *Headway time* (Rule #1) is ``TargetRange / Velocity`` seconds.
* *Desired headway distance* (Rule #2) is the selected time gap times
  speed.  The headway enum maps 1/2/3 to 1.2/1.8/2.4 s, which the spec
  encodes as the linear form ``0.6 + 0.6 * SelHeadway``.
* *Torque increasing* uses the freshness-aware ``rising()`` (i.e.
  ``delta()``), because ``RequestedTorque`` broadcasts on the slow
  period (§V-C1).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.intent import (
    DurationFilter,
    IntentFilter,
    MagnitudeFilter,
    PersistenceFilter,
)
from repro.core.monitor import Rule
from repro.core.statemachine import StateMachine
from repro.core.warmup import WarmupSpec, activation_warmup
from repro.errors import positive_seconds

#: Ids of the seven paper rules, in order.
RULE_IDS: Tuple[str, ...] = (
    "rule0",
    "rule1",
    "rule2",
    "rule3",
    "rule4",
    "rule5",
    "rule6",
)

#: Spec-language expression for the selected headway time gap, seconds.
HEADWAY_TIME_EXPR = "(0.6 + 0.6 * SelHeadway)"

#: Seconds left unchecked at the start of every trace (power-on settle).
INITIAL_SETTLE = 0.5

#: Torque increments below this are negligible for intent purposes, Nm.
#: Sits above one slew-limited publication step (800 Nm/s x 80 ms = 64 Nm),
#: so an isolated full-rate step never reads as sustained intent.
TORQUE_INTENT_THRESHOLD = 70.0


def rule0() -> Rule:
    """#0: if ServiceACC is true, ACCEnabled must be false."""
    return Rule.from_text(
        rule_id="rule0",
        name="ServiceACC implies not enabled",
        formula="ServiceACC -> not ACCEnabled",
        initial_settle=INITIAL_SETTLE,
        description=(
            "Consistency check: the feature must not keep control of the "
            "vehicle when it knows something is wrong."
        ),
    )


def rule1() -> Rule:
    """#1: headway below 1.0 s must recover above 1.0 s within 5 s."""
    return Rule.from_text(
        rule_id="rule1",
        name="Headway recovery",
        formula=(
            "TargetRange / Velocity < 1.0 -> "
            "eventually[0, 5s] TargetRange / Velocity > 1.0"
        ),
        gate="ACCEnabled and VehicleAhead and TargetRange > 0",
        initial_settle=INITIAL_SETTLE,
        description=(
            "Derived from an existing headway metric: dangerously small "
            "headway time must be transient."
        ),
    )


def rule2(strict: bool = True) -> Rule:
    """#2: no torque increase when closer than half the desired headway."""
    rule = Rule.from_text(
        rule_id="rule2",
        name="No acceleration when too close",
        formula=(
            "TargetRange < 0.5 * %s * Velocity -> "
            "not rising(RequestedTorque)" % HEADWAY_TIME_EXPR
        ),
        gate="ACCEnabled and VehicleAhead",
        initial_settle=INITIAL_SETTLE,
        description=(
            "The feature must not try to increase speed when it is "
            "already too close to the target vehicle."
        ),
    )
    if strict:
        return rule
    # Relaxation (§IV-A): small headway plus mild acceleration is normal
    # during overtaking/cut-ins; warm up after acquisition and dismiss
    # negligible or fleeting torque increases.
    relaxed = rule.relaxed(
        MagnitudeFilter("delta(RequestedTorque)", TORQUE_INTENT_THRESHOLD),
        DurationFilter(0.2),
    )
    return Rule(
        rule_id=relaxed.rule_id,
        name=relaxed.name,
        formula=relaxed.formula,
        gate=relaxed.gate,
        warmup=activation_warmup("VehicleAhead", 3.0),
        initial_settle=relaxed.initial_settle,
        filters=relaxed.filters,
        description=relaxed.description + " (relaxed: cut-in tolerant)",
    )


def rule3(strict: bool = True) -> Rule:
    """#3: above set speed with negative torque, torque stays negative."""
    margin = "" if strict else " + 0.5"
    rule = Rule.from_text(
        rule_id="rule3",
        name="Negative torque latched above set speed",
        formula=(
            "(Velocity > ACCSetSpeed%s and RequestedTorque < 0) -> "
            "next RequestedTorque < 0" % margin
        ),
        gate="ACCEnabled",
        initial_settle=INITIAL_SETTLE,
        description=(
            "Once the feature is shedding speed above the set speed, it "
            "must not flip back to positive torque on the next step."
        ),
    )
    if strict:
        return rule
    return rule.relaxed(
        MagnitudeFilter("delta(RequestedTorque)", TORQUE_INTENT_THRESHOLD)
    )


def rule4(strict: bool = True) -> Rule:
    """#4: above set speed, torque stops increasing within 400 ms."""
    margin = "" if strict else " + 0.5"
    rule = Rule.from_text(
        rule_id="rule4",
        name="Slow down above set speed",
        formula=(
            "Velocity > ACCSetSpeed%s -> "
            "eventually[0, 400ms] not rising(RequestedTorque)" % margin
        ),
        gate="ACCEnabled",
        initial_settle=INITIAL_SETTLE,
        description=(
            "While above the set speed the feature should start holding "
            "or shedding speed within 400 ms."
        ),
    )
    if strict:
        return rule
    return rule.relaxed(
        MagnitudeFilter("delta(RequestedTorque)", TORQUE_INTENT_THRESHOLD),
        DurationFilter(0.1),
    )


def rule5(strict: bool = True) -> Rule:
    """#5: a requested deceleration must actually be a deceleration."""
    rule = Rule.from_text(
        rule_id="rule5",
        name="Requested decel is negative",
        formula="BrakeRequested -> RequestedDecel <= 0",
        gate="ACCEnabled",
        initial_settle=INITIAL_SETTLE,
        description=(
            "If the feature asserts BrakeRequested, the accompanying "
            "RequestedDecel value must not be positive."
        ),
    )
    if strict:
        return rule
    # §IV-A: "one cycle of bad requested deceleration may be tolerated"
    # — though even dismissed transients stay in the report as clues.
    return rule.relaxed(PersistenceFilter(2))


def rule6() -> Rule:
    """#6: no positive torque request when the target is extremely close."""
    return Rule.from_text(
        rule_id="rule6",
        name="No thrust at near collision",
        formula=(
            "(VehicleAhead and TargetRange < 1) -> "
            "(not TorqueRequested or RequestedTorque < 0)"
        ),
        gate="ACCEnabled",
        initial_settle=INITIAL_SETTLE,
        description=(
            "Near-collision check: with the target vehicle extremely "
            "close, the feature must not request an increase in speed."
        ),
    )


def consistency_rule(with_warmup: bool = True) -> Rule:
    """Range / relative-velocity agreement (§V-C2's motivating check).

    The paper observed that the change in ``TargetRange`` must agree
    with the sign of ``TargetRelVel`` in any non-fault condition —
    except at target acquisition, where range jumps discretely from 0,
    so the rule needs warming up.  This is the check the FSRACC itself
    "has enough information to do... it just doesn't".
    """
    return Rule.from_text(
        rule_id="consistency",
        name="Range rate agrees with relative velocity",
        formula=(
            "not ((rate(TargetRange) > 0.75 and TargetRelVel < -0.75) or "
            "(rate(TargetRange) < -0.75 and TargetRelVel > 0.75) or "
            "(abs(rate(TargetRange)) < 0.05 and abs(TargetRelVel) > 2.0))"
        ),
        gate="ACCEnabled and VehicleAhead",
        warmup=activation_warmup("VehicleAhead", 1.0) if with_warmup else None,
        initial_settle=INITIAL_SETTLE,
        description=(
            "The observed range rate and the broadcast relative velocity "
            "must not firmly disagree — neither in sign, nor by the range "
            "freezing while the relative velocity says it should move."
        ),
    )


def freshness_rule(signal: str, max_age: float, period: float = 0.02) -> Rule:
    """A staleness watchdog: ``signal`` must keep updating (extension).

    Value-based rules are blind to a *silent* sensor — every held sample
    still satisfies them.  This rule bounds the age of the most recent
    update instead, catching lost messages and dead nodes.  ``max_age``
    is in seconds; it is converted to monitor rows of ``period`` seconds.
    Both must be positive and finite (:class:`ParameterError`).
    """
    max_age = positive_seconds("max_age", max_age)
    period = positive_seconds("period", period)
    max_rows = max(1, int(round(max_age / period)))
    return Rule.from_text(
        rule_id="fresh_%s" % signal.lower(),
        name="%s keeps updating" % signal,
        formula="age(%s) <= %d" % (signal, max_rows),
        initial_settle=INITIAL_SETTLE,
        description=(
            "Freshness watchdog: %s must update at least every %.2f s "
            "(stale data means a lost message or silent node)."
            % (signal, max_age)
        ),
    )


def mode_machine() -> StateMachine:
    """A mode machine for ACC engagement (§V-B's state-machine style).

    Lets rules be written against modal state (``in_state(acc, engaged)``)
    instead of repeating signal predicates, and demonstrates how the
    specification language avoids nested temporal operators.
    """
    return StateMachine(
        name="acc",
        states=("idle", "engaged", "fault"),
        initial="idle",
        transitions=(
            ("idle", "engaged", "ACCEnabled"),
            ("idle", "fault", "ServiceACC"),
            ("engaged", "fault", "ServiceACC"),
            ("engaged", "idle", "not ACCEnabled"),
            ("fault", "idle", "not ServiceACC"),
        ),
    )


def rule5_modal() -> Rule:
    """Rule #5 written against the mode machine instead of a signal gate."""
    return Rule.from_text(
        rule_id="rule5m",
        name="Requested decel is negative (modal)",
        formula="in_state(acc, engaged) -> "
        "(BrakeRequested -> RequestedDecel <= 0)",
        initial_settle=INITIAL_SETTLE,
        description="Machine-gated variant of rule #5.",
    )


def paper_rules(relaxed: bool = False) -> List[Rule]:
    """The seven Table I rules, strict or relaxed."""
    strict = not relaxed
    return [
        rule0(),
        rule1(),
        rule2(strict=strict),
        rule3(strict=strict),
        rule4(strict=strict),
        rule5(strict=strict),
        rule6(),
    ]


def rules_by_id(relaxed: bool = False) -> Dict[str, Rule]:
    """The Table I rules keyed by id."""
    return {rule.rule_id: rule for rule in paper_rules(relaxed)}


def paper_specset(relaxed: bool = False):
    """The Table I rules as a :class:`~repro.core.specfile.SpecSet`.

    The shape the CLI works in: ``check``/``online``/``lint`` treat the
    bundled rules exactly like a loaded ``.rules`` file.
    """
    from repro.core.specfile import SpecSet

    return SpecSet(rules=paper_rules(relaxed=relaxed))
