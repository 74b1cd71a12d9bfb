"""State machines for mode-based specification state.

Section V-B: the paper's specification language combines its simplified
temporal logic with state machine descriptions "to encode modal system
state or to reduce the complexity of temporal operators" — nesting of
temporal operators is avoided by moving modal bookkeeping into machines.

A machine has named states and guarded transitions; guards are ordinary
*propositional* formulas of the specification language (temporal
operators are rejected — that is the point of the machines).  The monitor
runs every machine over the trace once, producing a per-row state name
that formulas reference with ``in_state(machine, state)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ast import Formula
from repro.core.evaluator import EvalContext, evaluate_formula
from repro.core.parser import parse_formula
from repro.core.types import TRUE_CODE
from repro.errors import SpecError

#: A transition may be given as ``(source, target, guard_text)``.
TransitionSpec = Union["Transition", Tuple[str, str, str]]


@dataclass(frozen=True)
class Transition:
    """One guarded transition."""

    source: str
    target: str
    guard: Formula

    @classmethod
    def parse(cls, source: str, target: str, guard_text: str) -> "Transition":
        """Build a transition from guard source text."""
        return cls(source, target, parse_formula(guard_text))


class StateMachine:
    """A deterministic mode machine evaluated over a trace.

    Semantics per row: transitions *out of the current state* are tried
    in declaration order; the first one whose guard is TRUE fires, and the
    machine occupies the target state from that same row onward.  At most
    one transition fires per row.  UNKNOWN guards do not fire.
    """

    def __init__(
        self,
        name: str,
        states: Sequence[str],
        initial: str,
        transitions: Sequence[TransitionSpec],
    ) -> None:
        if not name:
            raise SpecError("state machine needs a name")
        if len(set(states)) != len(states):
            raise SpecError("%s: duplicate state names" % name)
        self.name = name
        self.states: Tuple[str, ...] = tuple(states)
        if initial not in self.states:
            raise SpecError(
                "%s: initial state %r not among states" % (name, initial)
            )
        self.initial = initial
        self.transitions: List[Transition] = []
        for spec in transitions:
            transition = (
                spec
                if isinstance(spec, Transition)
                else Transition.parse(spec[0], spec[1], spec[2])
            )
            if transition.source not in self.states:
                raise SpecError(
                    "%s: unknown source state %r" % (name, transition.source)
                )
            if transition.target not in self.states:
                raise SpecError(
                    "%s: unknown target state %r" % (name, transition.target)
                )
            if transition.guard.has_temporal():
                raise SpecError(
                    "%s: guard %s contains a temporal operator; encode "
                    "timing in states instead" % (name, transition.guard)
                )
            if transition.guard.machines():
                raise SpecError(
                    "%s: guards may not reference other state machines"
                    % name
                )
            self.transitions.append(transition)

    @property
    def alphabet(self) -> frozenset:
        """The set of state names."""
        return frozenset(self.states)

    def signals(self) -> Tuple[str, ...]:
        """All signals referenced by any guard."""
        names: List[str] = []
        for transition in self.transitions:
            names.extend(transition.guard.signals())
        return tuple(dict.fromkeys(names))

    def reachable_states(self) -> FrozenSet[str]:
        """States reachable from the initial state over any chain of
        transitions.  Guards are ignored, so this over-approximates the
        states a run can occupy."""
        successors: Dict[str, List[str]] = {}
        for transition in self.transitions:
            successors.setdefault(transition.source, []).append(
                transition.target
            )
        reachable = {self.initial}
        frontier = [self.initial]
        while frontier:
            for target in successors.get(frontier.pop(), ()):
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        return frozenset(reachable)

    def run(self, ctx: EvalContext, initial: Optional[str] = None) -> np.ndarray:
        """Evaluate the machine over the context's trace view.

        Returns one state name per row (numpy unicode array).  ``initial``
        overrides the starting state — used by the online monitor to
        resume a machine mid-stream.
        """
        if initial is not None and initial not in self.states:
            raise SpecError(
                "%s: cannot resume from unknown state %r" % (self.name, initial)
            )
        n = ctx.n_rows
        guard_codes = [
            evaluate_formula(transition.guard, ctx)
            for transition in self.transitions
        ]
        by_source: Dict[str, List[int]] = {}
        for index, transition in enumerate(self.transitions):
            by_source.setdefault(transition.source, []).append(index)

        result = np.empty(n, dtype="U%d" % max(len(s) for s in self.states))
        current = initial if initial is not None else self.initial
        for row in range(n):
            for index in by_source.get(current, ()):
                if guard_codes[index][row] == TRUE_CODE:
                    current = self.transitions[index].target
                    break
            result[row] = current
        return result
