"""Signal dependency graph — which injections can reach which rules.

The campaign's observability chain is ``simulator component -> CAN frame
-> signal -> rule AST reference``.  This module makes that chain a
queryable graph: *flow edges* say which component consumes which signals
and produces which others, and rule references (collected with the
generic :mod:`repro.analysis.walker`) say which signals the monitor
actually reads.  From those two relations the auditor answers

* which DBC signals / machine states no rule references (monitoring
  coverage, family 2 of ``repro audit``), and
* which injection targets reach which rules (the relation behind the
  AU3xx checks and the injection-widened environments of
  :func:`~repro.analysis.margins.cell_env`).

Influence is computed as reachability over the flow edges: injecting a
signal perturbs every output of every component that (transitively)
consumes it.  The closure is deliberately an over-approximation — an
edge means "may influence", never "must" — so ``dead_rules`` is sound:
a rule reported dead for a target set provably sees the same samples as
an uninjected run.

The default flow for the FSRACC vehicle is derived from the DBC's
``sender`` fields: the feature (sender ``fsracc``) consumes its Fig. 1
inputs and produces its outputs; the actuation outputs drive the plant,
which the chassis / powertrain / radar sensors then measure back onto
the bus.  Driver-operated signals (sender ``body``) are exogenous — the
scripted driver produces them regardless of what the vehicle does — so
nothing influences them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.walker import walk
from repro.core.ast import Fresh, InState, SignalPredicate, SignalRef, TraceFunc
from repro.core.statemachine import StateMachine


@dataclass(frozen=True)
class FlowEdge:
    """One component of the closed loop: inputs it reads, outputs it
    drives.  Any input may influence every output."""

    component: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]


#: Senders whose messages carry plant-coupled sensor measurements (the
#: values change when the vehicle moves).
PLANT_SENSORS = ("chassis", "powertrain", "radar")

#: The driver-operated sender: its signals are scripted, not fed back.
EXOGENOUS_SENDER = "body"


def fsracc_flow(database) -> Tuple[FlowEdge, ...]:
    """The FSRACC closed-loop flow, derived from DBC ``sender`` fields.

    Two edges close the loop: the feature maps its inputs to its
    actuation outputs, and the plant maps actuation (plus the driver's
    brake, which also moves the car) back to the sensor measurements.
    """
    from repro.can.fsracc import FSRACC_ALL_INPUTS, FSRACC_OUTPUTS

    plant_outputs: List[str] = []
    for sender in PLANT_SENSORS:
        plant_outputs.extend(database.signals_from(sender))
    return (
        FlowEdge("fsracc", tuple(FSRACC_ALL_INPUTS), tuple(FSRACC_OUTPUTS)),
        FlowEdge(
            "plant",
            tuple(FSRACC_OUTPUTS) + ("BrakePedPres", "AccelPedPos"),
            tuple(plant_outputs),
        ),
    )


def _referenced_names(node) -> Iterable[str]:
    for current in walk(node):
        if isinstance(current, (SignalRef, SignalPredicate, Fresh)):
            yield current.name
        elif isinstance(current, TraceFunc):
            yield current.signal


class DependencyGraph:
    """Reachability between injected signals and monitored rules.

    Args:
        database: the CAN database (signal universe).
        rules: the monitored :class:`~repro.core.monitor.Rule` objects.
        machines: state machines in scope; a rule referencing a machine
            via ``in_state()`` transitively depends on every signal in
            that machine's transition guards.
        flow: component flow edges; defaults to :func:`fsracc_flow`.
    """

    def __init__(
        self,
        database,
        rules: Sequence,
        machines: Sequence[StateMachine] = (),
        flow: Optional[Sequence[FlowEdge]] = None,
    ) -> None:
        self.database = database
        self.rules = list(rules)
        self.machines = {machine.name: machine for machine in machines}
        self.flow: Tuple[FlowEdge, ...] = (
            tuple(flow) if flow is not None else fsracc_flow(database)
        )
        self._unresolved: set = set()
        self._rule_signals: Dict[str, FrozenSet[str]] = {
            rule.rule_id: self._collect_rule_signals(rule)
            for rule in self.rules
        }
        self._influence: Dict[str, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    # Rule-side references
    # ------------------------------------------------------------------

    def _machine_guard_signals(self, name: str) -> List[str]:
        machine = self.machines.get(name)
        if machine is None:
            return []
        names: List[str] = []
        for transition in machine.transitions:
            names.extend(_referenced_names(transition.guard))
        return names

    def _collect_rule_signals(self, rule) -> FrozenSet[str]:
        from repro.analysis.checks import rule_parts

        names: List[str] = []
        for _, node in rule_parts(rule):
            names.extend(_referenced_names(node))
            for current in walk(node):
                if isinstance(current, InState):
                    if current.machine not in self.machines:
                        # The rule depends on a machine whose guards are
                        # not in scope: its true signal footprint is
                        # unknown, so it must never be reported dead.
                        self._unresolved.add(rule.rule_id)
                    names.extend(self._machine_guard_signals(current.machine))
        return frozenset(names)

    def rule_signals(self, rule_id: str) -> FrozenSet[str]:
        """Every signal a rule reads — directly, or through the guards
        of a state machine it references."""
        return self._rule_signals[rule_id]

    def referenced_signals(self) -> FrozenSet[str]:
        """The union of all rule references and machine guard signals."""
        names: List[str] = []
        for signals in self._rule_signals.values():
            names.extend(signals)
        for name in self.machines:
            names.extend(self._machine_guard_signals(name))
        return frozenset(names)

    def unreferenced_signals(self) -> Tuple[str, ...]:
        """DBC signals referenced by no rule and no machine guard,
        sorted — the statically blind Table I columns."""
        referenced = self.referenced_signals()
        return tuple(
            name
            for name in self.database.signal_names()
            if name not in referenced
        )

    def referenced_states(self, machine_name: str) -> FrozenSet[str]:
        """States of ``machine_name`` named by any rule's in_state()."""
        states: List[str] = []
        for rule in self.rules:
            from repro.analysis.checks import rule_parts

            for _, node in rule_parts(rule):
                for current in walk(node):
                    if (
                        isinstance(current, InState)
                        and current.machine == machine_name
                    ):
                        states.append(current.state)
        return frozenset(states)

    def unreferenced_states(self, machine_name: str) -> Tuple[str, ...]:
        """Declared states of ``machine_name`` no rule ever queries."""
        machine = self.machines[machine_name]
        referenced = self.referenced_states(machine_name)
        return tuple(
            state for state in machine.states if state not in referenced
        )

    # ------------------------------------------------------------------
    # Injection-side influence
    # ------------------------------------------------------------------

    def influence(self, signal: str) -> FrozenSet[str]:
        """All signals an injection into ``signal`` may perturb
        (including itself): the reachable set over the flow edges."""
        cached = self._influence.get(signal)
        if cached is not None:
            return cached
        reached = {signal}
        frontier = [signal]
        while frontier:
            current = frontier.pop()
            for edge in self.flow:
                if current not in edge.inputs:
                    continue
                for output in edge.outputs:
                    if output not in reached:
                        reached.add(output)
                        frontier.append(output)
        result = frozenset(reached)
        self._influence[signal] = result
        return result

    def targets_influence(self, targets: Sequence[str]) -> FrozenSet[str]:
        """The union of :meth:`influence` over a test's target set."""
        reached: FrozenSet[str] = frozenset()
        for target in targets:
            reached |= self.influence(target)
        return reached

    def rules_reached(self, targets: Sequence[str]) -> Tuple[str, ...]:
        """Ids of rules reading at least one influenced signal, in rule
        order — the live (injection x rule) cells."""
        reached = self.targets_influence(targets)
        return tuple(
            rule.rule_id
            for rule in self.rules
            if rule.rule_id in self._unresolved
            or self._rule_signals[rule.rule_id] & reached
        )

    def dead_rules(self, targets: Sequence[str]) -> Tuple[str, ...]:
        """Ids of rules no injected signal can reach, in rule order —
        the statically dead cells the audit reports as AU304."""
        live = set(self.rules_reached(targets))
        return tuple(
            rule.rule_id for rule in self.rules if rule.rule_id not in live
        )
