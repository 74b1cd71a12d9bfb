"""Predicate alphabets for the symbolic monitor automata.

The automata compiler (:mod:`repro.analysis.automata`) views a trace as
a word whose letters are *truth assignments to atomic predicates* —
comparisons, boolean signal reads and freshness tests.  This module
extracts that atom set from a formula (expanding ``in_state`` through
its machine's transition guards) and enumerates the **coherent**
assignments: the subsets of atoms that some in-range, non-NaN row could
satisfy simultaneously.

Coherence is decided with strict bounds tracked per comparison group,
so that ``x < 1`` and ``x > 1`` are recognized as disjoint (the closed
:class:`~repro.analysis.intervals.Interval` cannot express that).
Comparisons are normalized to ``expression op constant`` form and
grouped by structural left-hand side; each group's bound set is
intersected, and bare-signal groups are also met with the signal's DBC
range.  The closed hull of every group then becomes a keyed bound for
the shared abstract evaluator
(:func:`~repro.analysis.intervals.expr_interval`), which re-walks each
group's expression and meets every keyed sub-expression with its hull
on the way up — catching e.g. ``abs(E) < 0.05`` against ``E > 0.75``.

Soundness contract: the letter set **over-approximates** the feasible
assignments.  Every in-range, non-NaN row induces a letter that
survives the filter (its actual values witness every interval the
filter intersects), so dropping a letter never removes a real
behaviour.  The converse does not hold — a surviving letter may still
be infeasible — which can only make the automata prover *less*
complete, never unsound.  Out-of-range or NaN data voids the
guarantee, exactly as it does for interval folding and the margin
prover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover — import cycle is runtime-only
    from repro.can.database import CanDatabase

from repro.analysis.intervals import (
    TOP,
    EmptyMeet,
    Interval,
    expr_interval,
)
from repro.core.ast import (
    And,
    Binary,
    BoolConst,
    Comparison,
    Constant,
    Expr,
    Formula,
    Fresh,
    Implies,
    InState,
    Not,
    Or,
    SignalPredicate,
    SignalRef,
)
from repro.core.statemachine import StateMachine

#: Hard cap on distinct atoms per alphabet: letters are subsets of the
#: atom set, so ``k`` atoms mean up to ``2**k`` letters — beyond ~12 the
#: product construction stops being interactive.
MAX_ALPHABET_ATOMS = 12

_NEGATED_OP = {
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
    "==": "!=",
    "!=": "==",
}

#: ``c op E``  ⇔  ``E mirror(op) c``.
_MIRRORED_OP = {
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
    "==": "==",
    "!=": "!=",
}


class AlphabetError(Exception):
    """The formula set cannot be given a tractable predicate alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered atom set plus its coherent letters.

    ``atoms[i]``'s truth in letter ``mask`` is bit ``i`` of ``mask``.
    ``letters`` lists every coherent bitmask in ascending order.
    ``machines`` names the state machines whose guards contributed
    atoms, in first-reference order.
    """

    atoms: Tuple[Formula, ...]
    letters: Tuple[int, ...]
    machines: Tuple[str, ...] = ()

    def index(self, atom: Formula) -> int:
        """Bit position of ``atom`` (structural equality)."""
        return self.atoms.index(atom)

    def truth(self, letter: int, index: int) -> bool:
        """Truth of atom ``index`` under ``letter``."""
        return bool((letter >> index) & 1)

    def atom_texts(self) -> Tuple[str, ...]:
        """Source-like rendering of every atom, in bit order."""
        return tuple(str(atom) for atom in self.atoms)


# ----------------------------------------------------------------------
# Atom collection
# ----------------------------------------------------------------------


def collect_atoms(
    formulas: Iterable[Formula],
    machines: Mapping[str, StateMachine],
) -> Tuple[Tuple[Formula, ...], Tuple[str, ...]]:
    """Atoms and referenced machine names across ``formulas``.

    ``in_state`` references pull the guard atoms of *every* transition
    of the named machine into the alphabet (the automaton must track
    the machine, so the guards become part of the letter).  Unknown
    machines raise :class:`AlphabetError`.
    """
    atoms: List[Formula] = []
    seen: Set[Formula] = set()
    machine_names: List[str] = []

    def walk(node: Formula) -> None:
        if isinstance(node, (Comparison, SignalPredicate, Fresh)):
            if node not in seen:
                seen.add(node)
                atoms.append(node)
            return
        if isinstance(node, InState):
            if node.machine not in machines:
                raise AlphabetError(
                    "in_state references unknown machine %r" % node.machine
                )
            if node.machine not in machine_names:
                machine_names.append(node.machine)
                for transition in machines[node.machine].transitions:
                    walk(transition.guard)
            return
        for child in node.children():
            if isinstance(child, Formula):
                walk(child)

    for formula in formulas:
        walk(formula)
    return tuple(atoms), tuple(machine_names)


# ----------------------------------------------------------------------
# Strict-bound constraint accumulation
# ----------------------------------------------------------------------


class _Constraint:
    """An intersected bound set ``lo (<|<=) E (<|<=) hi`` plus excluded
    points, for one structural expression group."""

    __slots__ = ("lo", "lo_strict", "hi", "hi_strict", "excluded")

    def __init__(self) -> None:
        self.lo = -math.inf
        self.lo_strict = False
        self.hi = math.inf
        self.hi_strict = False
        self.excluded: Set[float] = set()

    def add(self, op: str, bound: float) -> None:
        if op == "<":
            if bound < self.hi or (bound == self.hi and not self.hi_strict):
                self.hi, self.hi_strict = bound, True
        elif op == "<=":
            if bound < self.hi:
                self.hi, self.hi_strict = bound, False
        elif op == ">":
            if bound > self.lo or (bound == self.lo and not self.lo_strict):
                self.lo, self.lo_strict = bound, True
        elif op == ">=":
            if bound > self.lo:
                self.lo, self.lo_strict = bound, False
        elif op == "==":
            self.add(">=", bound)
            self.add("<=", bound)
        else:  # "!="
            self.excluded.add(bound)

    @property
    def empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            if self.lo_strict or self.hi_strict:
                return True
            if self.lo in self.excluded:
                return True
        return False

    def hull(self) -> Optional[Interval]:
        """The closed over-approximation, or ``None`` when empty."""
        if self.empty:
            return None
        return Interval(self.lo, self.hi)

    def restrict(self, interval: Interval) -> None:
        """Also require membership in a closed ``interval``."""
        self.add(">=", interval.lo)
        self.add("<=", interval.hi)


def _normalized(
    comparison: Comparison, value: bool
) -> Tuple[Expr, str, float]:
    """``(expression, op, constant)`` form of a comparison atom's truth.

    Constant sides move to the right (mirroring the operator); two
    non-constant sides become ``left - right op 0``.
    """
    op = comparison.op if value else _NEGATED_OP[comparison.op]
    if isinstance(comparison.right, Constant):
        return (comparison.left, op, float(comparison.right.value))
    if isinstance(comparison.left, Constant):
        return (
            comparison.right,
            _MIRRORED_OP[op],
            float(comparison.left.value),
        )
    return (Binary("-", comparison.left, comparison.right), op, 0.0)


def _letter_coherent(
    letter: int,
    atoms: Sequence[Formula],
    env: Mapping[str, Interval],
    bool_signals: FrozenSet[str],
) -> bool:
    """Whether some in-range row could realize this truth assignment."""
    groups: Dict[Expr, _Constraint] = {}
    for index, atom in enumerate(atoms):
        value = bool((letter >> index) & 1)
        if isinstance(atom, Comparison):
            key, op, bound = _normalized(atom, value)
        elif isinstance(atom, SignalPredicate):
            key = SignalRef(atom.name)
            if atom.name in bool_signals:
                op, bound = "==", (1.0 if value else 0.0)
            else:
                op, bound = ("!=" if value else "=="), 0.0
        else:  # Fresh: timing, not values — always coherent either way
            continue
        constraint = groups.setdefault(key, _Constraint())
        constraint.add(op, bound)
        if constraint.empty:
            return False

    # Bare-signal groups also meet the signal's range; every group hull
    # then bounds its expression in one walk over the DBC ranges.
    hulls: Dict[Expr, Interval] = {}
    for key, constraint in groups.items():
        if isinstance(key, SignalRef):
            constraint.restrict(env.get(key.name, TOP))
        hull = constraint.hull()
        if hull is None:
            return False
        hulls[key] = hull
    try:
        for key in groups:
            expr_interval(key, env, bounds=hulls)
    except EmptyMeet:
        return False
    return True


# ----------------------------------------------------------------------
# Alphabet construction
# ----------------------------------------------------------------------


def build_alphabet(
    formulas: Iterable[Formula],
    machines: Mapping[str, StateMachine],
    env: Optional[Mapping[str, Interval]] = None,
    bool_signals: FrozenSet[str] = frozenset(),
    max_atoms: int = MAX_ALPHABET_ATOMS,
) -> Alphabet:
    """The coherent predicate alphabet of ``formulas``.

    ``env`` maps signal names to their DBC physical ranges (see
    :func:`~repro.analysis.analyzer.database_env`) and seeds the
    coherence filter; ``bool_signals`` names the signals whose only
    in-range values are 0 and 1.  Raises :class:`AlphabetError` when
    the atom count exceeds ``max_atoms``.
    """
    atoms, machine_names = collect_atoms(formulas, machines)
    if len(atoms) > max_atoms:
        raise AlphabetError(
            "alphabet needs %d atoms, budget is %d" % (len(atoms), max_atoms)
        )
    ranges: Mapping[str, Interval] = env if env is not None else {}
    letters = tuple(
        mask
        for mask in range(1 << len(atoms))
        if _letter_coherent(mask, atoms, ranges, bool_signals)
    )
    if not letters:
        # Only reachable with an inconsistent environment; a real DBC
        # always admits at least one row.
        raise AlphabetError("no coherent letter exists under the DBC ranges")
    return Alphabet(atoms=atoms, letters=letters, machines=machine_names)


def dbc_environment(
    database: "CanDatabase",
) -> Tuple[Dict[str, Interval], FrozenSet[str]]:
    """``(signal ranges, bool-kind signal names)`` for a CAN database."""
    from repro.analysis.analyzer import database_env

    bools = set()
    for message in database.messages():
        for signal in message.signals:
            if signal.kind.value == "bool":
                bools.add(signal.name)
    return database_env(database), frozenset(bools)


def evaluate_proposition(
    formula: Formula,
    truth: Mapping[Formula, bool],
) -> bool:
    """Evaluate a propositional (guard) formula under an atom assignment.

    ``truth`` maps atomic formulas (structural equality) to booleans.
    Raises ``KeyError`` for atoms missing from the assignment and
    :class:`AlphabetError` for temporal operators (machine guards are
    validated propositional at construction).
    """
    if isinstance(formula, BoolConst):
        return formula.value
    if isinstance(formula, (Comparison, SignalPredicate, Fresh)):
        return truth[formula]
    if isinstance(formula, Not):
        return not evaluate_proposition(formula.operand, truth)
    if isinstance(formula, And):
        return evaluate_proposition(
            formula.left, truth
        ) and evaluate_proposition(formula.right, truth)
    if isinstance(formula, Or):
        return evaluate_proposition(
            formula.left, truth
        ) or evaluate_proposition(formula.right, truth)
    if isinstance(formula, Implies):
        return not evaluate_proposition(
            formula.left, truth
        ) or evaluate_proposition(formula.right, truth)
    raise AlphabetError(
        "formula %s is not propositional" % type(formula).__name__
    )
