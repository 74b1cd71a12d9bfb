"""Symbolic monitor automata — the decision-procedure backbone.

Every rule of the spec language compiles to a **deterministic finite
automaton over the predicate alphabet** of
:mod:`repro.analysis.predicates`: states are Brzozowski residuals of
the formula (what must still hold of the remaining trace), letters are
coherent truth assignments to the rule's atoms, and ``in_state``
references are expanded by running the referenced state machine in
lockstep inside the product state.  Three decision procedures ride on
the construction:

* **monitorability certificates** — each rule is classified
  ``bounded`` / ``safety`` / ``co-safety`` / ``neither`` and, for
  bounded rules, given its *exact* decision horizon in rows (the
  longest letter sequence before every verdict is forced), which the
  audit cross-checks against the conservative
  :class:`~repro.core.online.OnlineMonitor` horizon;
* an **emptiness/containment prover** — ``a`` contradicts ``b`` iff
  the automaton of ``a ∧ b`` cannot reach its accepting sink (and
  cannot loop satisfied forever); ``a`` implies ``b`` iff ``a ∧ ¬b``
  is empty; ``a`` is valid iff its own automaton cannot reach its
  rejecting sink (nor loop falsified forever) — the only prover behind
  the audit's AU101/AU102 pair findings and the AU103 vacuity
  questions interval folding leaves open;
* **observable-signal reduction** — a signal is droppable for a rule
  when no reachable state distinguishes letters that differ only in
  that signal's atoms, which the fleet rollup surfaces as a
  per-stream bandwidth hint.

Temporal windows are normalized to integer row counts through
:func:`~repro.core.windows.bounds_to_rows` first, so one automaton is
valid for exactly one sampling period.  Bounded windows strictly
shrink with every derivative, so bounded formulas always yield acyclic
automata; cycles can only be introduced by *unbounded* windows
(``hi = inf``), which the surface grammar cannot write but the AST
admits.  Cycle states are judged by a Kleene *suspension verdict*
(unbounded until pending forever is false, unbounded release pending
forever is true); where that evaluation is indeterminate the
classifier degrades to ``neither`` and the provers to ``unknown`` —
conservative, never unsound.

Soundness contract (shared with the margin prover): verdicts hold for
in-range, non-NaN data under classical comparison negation.  The
letter set over-approximates feasibility (see
:mod:`repro.analysis.predicates`), so ``prove_*`` answers "proved" only
when *no* letter sequence — feasible or not — reaches a satisfying
verdict.  Past operators (``once`` / ``historically``) are outside the
compiled fragment and reported as unsupported: a ``prove_*`` question
over them answers "unknown" and is counted as
``audit.prover.undecided.unsupported_formula``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.intervals import Interval
from repro.analysis.predicates import (
    Alphabet,
    AlphabetError,
    MAX_ALPHABET_ATOMS,
    build_alphabet,
    dbc_environment,
    evaluate_proposition,
)
from repro.core.ast import (
    Always,
    And,
    BoolConst,
    Comparison,
    Eventually,
    Formula,
    Fresh,
    Historically,
    Implies,
    InState,
    Next,
    Not,
    Once,
    Or,
    SignalPredicate,
)
from repro.core.monitor import DEFAULT_PERIOD
from repro.core.statemachine import StateMachine
from repro.core.windows import bounds_to_rows
from repro.errors import EvaluationError, count, positive_seconds
from repro.obs import get_registry

#: Default cap on DFA states per compilation (product states included).
DEFAULT_STATE_BUDGET = 20000

#: Tri-state decision-procedure verdicts.
YES = "yes"
NO = "no"
UNKNOWN = "unknown"

#: Monitorability classes.
BOUNDED = "bounded"
SAFETY = "safety"
CO_SAFETY = "co-safety"
NEITHER = "neither"


class UnsupportedFormulaError(Exception):
    """The formula is outside the compiled fragment."""


class StateBudgetError(Exception):
    """Compilation exceeded the state budget."""


# ----------------------------------------------------------------------
# The residual term IR
# ----------------------------------------------------------------------


class Term:
    """Base class of residual terms (negation-normal form)."""

    __slots__ = ()


@dataclass(frozen=True)
class _Const(Term):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TT = _Const(True)
FF = _Const(False)


@dataclass(frozen=True)
class Lit(Term):
    """Atom ``index`` of the alphabet, possibly negated."""

    index: int
    positive: bool

    def __str__(self) -> str:
        return "a%d" % self.index if self.positive else "!a%d" % self.index


@dataclass(frozen=True)
class MLit(Term):
    """``in_state(machine, state)`` — resolved against the product's
    machine component, not the alphabet."""

    machine: str
    state: str
    positive: bool

    def __str__(self) -> str:
        body = "%s=%s" % (self.machine, self.state)
        return body if self.positive else "!(%s)" % body


@dataclass(frozen=True)
class Conj(Term):
    operands: FrozenSet[Term]

    def __str__(self) -> str:
        return "(%s)" % " & ".join(sorted(str(o) for o in self.operands))


@dataclass(frozen=True)
class Disj(Term):
    operands: FrozenSet[Term]

    def __str__(self) -> str:
        return "(%s)" % " | ".join(sorted(str(o) for o in self.operands))


@dataclass(frozen=True)
class Delay(Term):
    """``operand`` shifted ``steps`` rows into the future (``next``)."""

    steps: int
    operand: Term

    def __str__(self) -> str:
        return "X^%d %s" % (self.steps, self.operand)


@dataclass(frozen=True)
class Until(Term):
    """``left U[lo, hi] right`` over rows; ``hi=None`` is unbounded.

    Semantics: some row ``k`` in ``[lo, hi]`` satisfies ``right`` and
    every earlier row (from 0) satisfies ``left``.
    """

    lo: int
    hi: Optional[int]
    left: Term
    right: Term

    def __str__(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        return "(%s U[%d,%s] %s)" % (self.left, self.lo, hi, self.right)


@dataclass(frozen=True)
class Release(Term):
    """The dual: ``right`` holds at every row of ``[lo, hi]`` unless an
    earlier row satisfied ``left`` (for ``always``, ``left`` is false)."""

    lo: int
    hi: Optional[int]
    left: Term
    right: Term

    def __str__(self) -> str:
        hi = "inf" if self.hi is None else str(self.hi)
        return "(%s R[%d,%s] %s)" % (self.left, self.lo, hi, self.right)


def conj(operands: Iterable[Term]) -> Term:
    """N-ary conjunction: flatten, absorb constants, prune complements."""
    flat: Set[Term] = set()
    for operand in operands:
        if operand == FF:
            return FF
        if operand == TT:
            continue
        if isinstance(operand, Conj):
            flat |= operand.operands
        else:
            flat.add(operand)
    for term in flat:
        if isinstance(term, Lit) and Lit(term.index, not term.positive) in flat:
            return FF
        if isinstance(term, MLit) and (
            MLit(term.machine, term.state, not term.positive) in flat
        ):
            return FF
    if not flat:
        return TT
    if len(flat) == 1:
        return next(iter(flat))
    return Conj(frozenset(flat))


def disj(operands: Iterable[Term]) -> Term:
    """N-ary disjunction, dual of :func:`conj`."""
    flat: Set[Term] = set()
    for operand in operands:
        if operand == TT:
            return TT
        if operand == FF:
            continue
        if isinstance(operand, Disj):
            flat |= operand.operands
        else:
            flat.add(operand)
    for term in flat:
        if isinstance(term, Lit) and Lit(term.index, not term.positive) in flat:
            return TT
        if isinstance(term, MLit) and (
            MLit(term.machine, term.state, not term.positive) in flat
        ):
            return TT
    if not flat:
        return FF
    if len(flat) == 1:
        return next(iter(flat))
    return Disj(frozenset(flat))


def delay(steps: int, operand: Term) -> Term:
    if steps == 0 or operand in (TT, FF):
        return operand
    if isinstance(operand, Delay):
        return Delay(steps + operand.steps, operand.operand)
    return Delay(steps, operand)


def until(lo: int, hi: Optional[int], left: Term, right: Term) -> Term:
    if right == FF:
        return FF
    if right == TT and (lo == 0 or left == TT):
        return TT
    return Until(lo, hi, left, right)


def release(lo: int, hi: Optional[int], left: Term, right: Term) -> Term:
    if right == TT:
        return TT
    if right == FF and (lo == 0 or left == FF):
        return FF
    return Release(lo, hi, left, right)


def neg_term(term: Term) -> Term:
    """Classical negation, dualizing the NNF structure."""
    if term == TT:
        return FF
    if term == FF:
        return TT
    if isinstance(term, Lit):
        return Lit(term.index, not term.positive)
    if isinstance(term, MLit):
        return MLit(term.machine, term.state, not term.positive)
    if isinstance(term, Conj):
        return disj(neg_term(o) for o in term.operands)
    if isinstance(term, Disj):
        return conj(neg_term(o) for o in term.operands)
    if isinstance(term, Delay):
        return delay(term.steps, neg_term(term.operand))
    if isinstance(term, Until):
        return release(
            term.lo, term.hi, neg_term(term.left), neg_term(term.right)
        )
    if isinstance(term, Release):
        return until(
            term.lo, term.hi, neg_term(term.left), neg_term(term.right)
        )
    raise TypeError("not a term: %r" % (term,))


def _dec(hi: Optional[int]) -> Optional[int]:
    return None if hi is None else hi - 1


class _Assignment:
    """One letter's resolved truth: alphabet atoms plus the machine
    states *after* this row's transition (``run()`` updates the state
    with the row's values before ``in_state`` reads it)."""

    __slots__ = ("bits", "states")

    def __init__(self, bits: int, states: Mapping[str, str]) -> None:
        self.bits = bits
        self.states = states

    def lit(self, index: int) -> bool:
        return bool((self.bits >> index) & 1)

    def mlit(self, machine: str, state: str) -> bool:
        return self.states[machine] == state


def step_term(term: Term, assign: _Assignment) -> Term:
    """The Brzozowski derivative: what the rows after this one must
    satisfy, given this row's letter."""
    if term in (TT, FF):
        return term
    if isinstance(term, Lit):
        return TT if assign.lit(term.index) == term.positive else FF
    if isinstance(term, MLit):
        return TT if assign.mlit(term.machine, term.state) == term.positive else FF
    if isinstance(term, Conj):
        return conj(step_term(o, assign) for o in term.operands)
    if isinstance(term, Disj):
        return disj(step_term(o, assign) for o in term.operands)
    if isinstance(term, Delay):
        return delay(term.steps - 1, term.operand)
    if isinstance(term, Until):
        if term.lo > 0:
            return conj(
                (
                    step_term(term.left, assign),
                    until(term.lo - 1, _dec(term.hi), term.left, term.right),
                )
            )
        now = step_term(term.right, assign)
        if term.hi == 0:
            return now
        rest = conj(
            (
                step_term(term.left, assign),
                until(0, _dec(term.hi), term.left, term.right),
            )
        )
        return disj((now, rest))
    if isinstance(term, Release):
        if term.lo > 0:
            return disj(
                (
                    step_term(term.left, assign),
                    release(term.lo - 1, _dec(term.hi), term.left, term.right),
                )
            )
        now = step_term(term.right, assign)
        if term.hi == 0:
            return now
        rest = disj(
            (
                step_term(term.left, assign),
                release(0, _dec(term.hi), term.left, term.right),
            )
        )
        return conj((now, rest))
    raise TypeError("not a term: %r" % (term,))


def _suspension(term: Term) -> Optional[bool]:
    """Kleene limit verdict if the run stays in this state forever.

    An unbounded ``until`` whose witness never arrives is false; an
    unbounded ``release`` never discharged is true.  Anything that
    cannot persist in a cycle (literals, delays, bounded windows) is
    indeterminate — callers treat ``None`` conservatively.
    """
    if term == TT:
        return True
    if term == FF:
        return False
    if isinstance(term, Until):
        return False if term.hi is None else None
    if isinstance(term, Release):
        return True if term.hi is None else None
    if isinstance(term, Conj):
        verdicts = {_suspension(o) for o in term.operands}
        if False in verdicts:
            return False
        if verdicts == {True}:
            return True
        return None
    if isinstance(term, Disj):
        verdicts = {_suspension(o) for o in term.operands}
        if True in verdicts:
            return True
        if verdicts == {False}:
            return False
        return None
    return None


# ----------------------------------------------------------------------
# Formula → term translation
# ----------------------------------------------------------------------


def _window_rows(
    lo: float, hi: float, period: float
) -> Tuple[int, Optional[int]]:
    """Integer row bounds of a ``[lo, hi]`` seconds window."""
    if math.isinf(hi):
        return (int(math.ceil(lo / period - 1e-9)), None)
    return bounds_to_rows(lo, hi, period)


def formula_to_term(
    formula: Formula,
    alphabet: Alphabet,
    period: float,
) -> Term:
    """Translate a formula into the residual IR over ``alphabet``.

    Raises :class:`UnsupportedFormulaError` for past operators and
    :class:`~repro.errors.EvaluationError` for windows that contain no
    sample row at ``period``.
    """
    index: Dict[Formula, int] = {
        atom: i for i, atom in enumerate(alphabet.atoms)
    }

    def build(node: Formula, positive: bool) -> Term:
        if isinstance(node, BoolConst):
            return TT if node.value == positive else FF
        if isinstance(node, (Comparison, SignalPredicate, Fresh)):
            return Lit(index[node], positive)
        if isinstance(node, InState):
            return MLit(node.machine, node.state, positive)
        if isinstance(node, Not):
            return build(node.operand, not positive)
        if isinstance(node, And):
            parts = (build(node.left, positive), build(node.right, positive))
            return conj(parts) if positive else disj(parts)
        if isinstance(node, Or):
            parts = (build(node.left, positive), build(node.right, positive))
            return disj(parts) if positive else conj(parts)
        if isinstance(node, Implies):
            parts = (
                build(node.left, not positive),
                build(node.right, positive),
            )
            return disj(parts) if positive else conj(parts)
        if isinstance(node, Next):
            return delay(1, build(node.operand, positive))
        if isinstance(node, Always):
            lo, hi = _window_rows(node.lo, node.hi, period)
            operand = build(node.operand, positive)
            if positive:
                return release(lo, hi, FF, operand)
            return until(lo, hi, TT, operand)
        if isinstance(node, Eventually):
            lo, hi = _window_rows(node.lo, node.hi, period)
            operand = build(node.operand, positive)
            if positive:
                return until(lo, hi, TT, operand)
            return release(lo, hi, FF, operand)
        if isinstance(node, (Once, Historically)):
            raise UnsupportedFormulaError(
                "past operator %s is outside the automata fragment"
                % type(node).__name__.lower()
            )
        raise UnsupportedFormulaError(
            "cannot compile %s" % type(node).__name__
        )

    return build(formula, True)


# ----------------------------------------------------------------------
# The automaton
# ----------------------------------------------------------------------


@dataclass
class Automaton:
    """A compiled deterministic automaton over a predicate alphabet.

    ``states[i]`` is the ``(residual term, machine states)`` product
    state; ``transitions[i][p]`` is the successor under letter
    *position* ``p`` (an index into ``alphabet.letters``, not the raw
    bitmask).  State 0 is initial; the TT/FF sinks, when reachable,
    collapse their machine component.
    """

    alphabet: Alphabet
    machines: Tuple[StateMachine, ...]
    states: List[Tuple[Term, Tuple[str, ...]]]
    transitions: List[Tuple[int, ...]]
    accept: Optional[int]
    reject: Optional[int]
    #: Entry state per machine-state combination.  A rule is re-checked
    #: at every row, where its machines may be anywhere — so the
    #: automaton is compiled from *every* combination, and state 0 is
    #: the machine-initial entry.  Decision procedures quantify over
    #: all entries, which keeps their "no"/horizon answers sound at
    #: any starting row.
    initials: Dict[Tuple[str, ...], int] = field(default_factory=dict)
    _letter_position: Dict[int, int] = field(default_factory=dict, repr=False)
    _cycle_cache: Optional[List[List[int]]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self._letter_position:
            self._letter_position = {
                mask: pos for pos, mask in enumerate(self.alphabet.letters)
            }
        if not self.initials:
            self.initials = {(): 0}

    @property
    def n_states(self) -> int:
        return len(self.states)

    def is_sink(self, state: int) -> bool:
        return state in (self.accept, self.reject)

    def verdict(self, state: int) -> Optional[bool]:
        """``True``/``False`` at a sink, ``None`` while undecided."""
        if state == self.accept:
            return True
        if state == self.reject:
            return False
        return None

    def step(self, state: int, letter_mask: int) -> int:
        """Successor under a raw letter bitmask.

        Raises ``KeyError`` when the mask was pruned as incoherent —
        on real in-range data that indicates a filter bug, and the
        differential harness asserts it never happens.
        """
        return self.transitions[state][self._letter_position[letter_mask]]

    def run(
        self,
        letter_masks: Iterable[int],
        machine_states: Optional[Tuple[str, ...]] = None,
    ) -> Optional[bool]:
        """Verdict after consuming ``letter_masks`` (``None`` when the
        word ends undecided).  ``machine_states`` picks the entry for a
        mid-trace start; the default is the machine-initial entry."""
        if machine_states is None:
            state = 0
        else:
            state = self.initials[machine_states]
        for mask in letter_masks:
            state = self.step(state, mask)
            if self.is_sink(state):
                break
        return self.verdict(state)

    # -- structure ------------------------------------------------------

    def cyclic_sccs(self) -> List[List[int]]:
        """Non-sink strongly connected components that contain a cycle
        (size > 1, or a self-loop), iterative Tarjan."""
        if self._cycle_cache is not None:
            return self._cycle_cache
        n = self.n_states
        index_of = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: List[int] = []
        sccs: List[List[int]] = []
        counter = 0
        for root in range(n):
            if index_of[root] != -1 or self.is_sink(root):
                continue
            work: List[Tuple[int, int]] = [(root, 0)]
            while work:
                node, child_pos = work.pop()
                if child_pos == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack[node] = True
                recurse = False
                successors = self.transitions[node]
                while child_pos < len(successors):
                    succ = successors[child_pos]
                    child_pos += 1
                    if self.is_sink(succ):
                        continue
                    if index_of[succ] == -1:
                        work.append((node, child_pos))
                        work.append((succ, 0))
                        recurse = True
                        break
                    if on_stack[succ]:
                        low[node] = min(low[node], index_of[succ])
                if recurse:
                    continue
                if low[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or any(
                        succ == node for succ in self.transitions[node]
                    ):
                        sccs.append(component)
                else:
                    # propagate low to the parent on the work stack
                    pass
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        self._cycle_cache = sccs
        return sccs

    def horizon_rows(self) -> Optional[int]:
        """Exact decision horizon: the longest letter sequence from any
        entry state before a sink is reached, or ``None`` when a
        reachable cycle makes it unbounded."""
        if self.cyclic_sccs():
            return None
        depth: Dict[int, int] = {}
        order: List[int] = []
        seen: Set[int] = set()
        stack: List[Tuple[int, bool]] = [
            (entry, False) for entry in self.initials.values()
        ]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            if not self.is_sink(node):
                for succ in self.transitions[node]:
                    if succ not in seen:
                        stack.append((succ, False))
        for node in order:  # reverse-post-order: children first
            if self.is_sink(node):
                depth[node] = 0
            else:
                depth[node] = 1 + max(
                    depth[succ] for succ in self.transitions[node]
                )
        return max(depth[entry] for entry in self.initials.values())

    # -- decision procedures --------------------------------------------

    def _scc_verdicts(self) -> List[Set[Optional[bool]]]:
        return [
            {_suspension(self.states[member][0]) for member in scc}
            for scc in self.cyclic_sccs()
        ]

    def satisfiable(self) -> str:
        """Can any letter sequence satisfy the formula? (tri-state)

        ``"no"`` is a *proof* of emptiness over all letter sequences
        (hence over all real traces); ``"yes"`` may rest on letters the
        coherence filter failed to prune, so callers must not treat it
        as a constructive witness.
        """
        if self.accept is not None:
            return YES
        verdicts = self._scc_verdicts()
        if any(v == {True} for v in verdicts):
            return YES
        if any(True in v or None in v for v in verdicts):
            return UNKNOWN
        return NO

    def falsifiable(self) -> str:
        """Can any letter sequence violate the formula? (tri-state)"""
        if self.reject is not None:
            return YES
        verdicts = self._scc_verdicts()
        if any(v == {False} for v in verdicts):
            return YES
        if any(False in v or None in v for v in verdicts):
            return UNKNOWN
        return NO

    def classify(self) -> Tuple[str, bool, bool]:
        """``(class, safety, co_safety)`` of the compiled language."""
        verdicts = self._scc_verdicts()
        if not verdicts:
            return (BOUNDED, True, True)
        safety = all(v == {True} for v in verdicts)
        co_safety = all(v == {False} for v in verdicts)
        if safety:
            return (SAFETY, True, False)
        if co_safety:
            return (CO_SAFETY, False, True)
        return (NEITHER, False, False)


def _advance_machine(
    machine: StateMachine,
    state: str,
    truth: Mapping[Formula, bool],
) -> str:
    """One :meth:`StateMachine.run` step: the first transition out of
    ``state`` (declaration order) whose guard holds fires."""
    for transition in machine.transitions:
        if transition.source != state:
            continue
        if evaluate_proposition(transition.guard, truth):
            return transition.target
    return state


def _support(term: Term, memo: Dict[Term, int]) -> int:
    """Bitmask of the alphabet atoms :func:`step_term` reads when it
    steps ``term``: a delay reads nothing this row, a window with
    ``lo > 0`` only its left operand, a last-row window only its right
    one.  Machine literals read the product state, not the letter."""
    mask = memo.get(term)
    if mask is not None:
        return mask
    if isinstance(term, Lit):
        mask = 1 << term.index
    elif isinstance(term, (Conj, Disj)):
        mask = 0
        for operand in term.operands:
            mask |= _support(operand, memo)
    elif isinstance(term, (Until, Release)):
        if term.lo > 0:
            mask = _support(term.left, memo)
        elif term.hi == 0:
            mask = _support(term.right, memo)
        else:
            mask = _support(term.left, memo) | _support(term.right, memo)
    else:
        mask = 0
    memo[term] = mask
    return mask


def compile_term(
    term: Term,
    alphabet: Alphabet,
    machines: Sequence[StateMachine] = (),
    max_states: int = DEFAULT_STATE_BUDGET,
) -> Automaton:
    """Determinize ``term`` over ``alphabet`` by derivative exploration.

    ``machines`` are the state machines referenced by ``MLit`` terms;
    their joint state is tracked in the product.  Raises
    :class:`StateBudgetError` past ``max_states``.

    A state's derivative depends only on the atoms its term reads and
    on the machines' next states, so the letters are split into
    classes that agree on both, and each class is stepped once.  States
    are still interned and pushed in letter order, which keeps the
    numbering that of a letter-by-letter exploration.
    """
    machines = tuple(machines)
    letters = alphabet.letters
    names = tuple(machine.name for machine in machines)
    # Per letter: the atom-truth map (for guards) and the bit accessor.
    truth_maps: List[Dict[Formula, bool]] = []
    for mask in letters:
        truth_maps.append(
            {
                atom: bool((mask >> i) & 1)
                for i, atom in enumerate(alphabet.atoms)
            }
        )

    initial_machine_state = tuple(machine.initial for machine in machines)
    sink_key: Tuple[str, ...] = ()

    def state_key(term_: Term, mstates: Tuple[str, ...]):
        if term_ in (TT, FF):
            return (term_, sink_key)
        return (term_, mstates)

    states: List[Tuple[Term, Tuple[str, ...]]] = []
    indices: Dict[Tuple[Term, Tuple[str, ...]], int] = {}
    transitions: List[Tuple[int, ...]] = []

    def intern(key: Tuple[Term, Tuple[str, ...]]) -> int:
        found = indices.get(key)
        if found is not None:
            return found
        if len(states) >= max_states:
            raise StateBudgetError(
                "automaton exceeds the %d-state budget" % max_states
            )
        indices[key] = len(states)
        states.append(key)
        transitions.append(())
        return indices[key]

    supports: Dict[Term, int] = {}
    partitions: Dict[
        Tuple[int, Tuple[str, ...]],
        Tuple[List[int], List[Tuple[int, Tuple[str, ...]]]],
    ] = {}

    def letter_classes(support: int, mstates: Tuple[str, ...]):
        """Per letter position its class, and per class (in order of
        first letter) that letter and the machines' next states."""
        key = (support, mstates)
        found = partitions.get(key)
        if found is not None:
            return found
        numbers: Dict[Tuple[int, Tuple[str, ...]], int] = {}
        class_of: List[int] = []
        firsts: List[Tuple[int, Tuple[str, ...]]] = []
        for pos, mask in enumerate(letters):
            new_mstates = tuple(
                _advance_machine(machine, mstate, truth_maps[pos])
                for machine, mstate in zip(machines, mstates)
            )
            class_key = (mask & support, new_mstates)
            number = numbers.get(class_key)
            if number is None:
                number = numbers[class_key] = len(firsts)
                firsts.append((mask, new_mstates))
            class_of.append(number)
        partitions[key] = found = (class_of, firsts)
        return found

    # One entry per machine-state combination (machine-initial first, as
    # state 0): rules restart at every row, so the machines may be in
    # any state when the word begins.
    combos: List[Tuple[str, ...]] = [initial_machine_state]
    for combo in itertools.product(*(machine.states for machine in machines)):
        if combo != initial_machine_state:
            combos.append(combo)
    initials: Dict[Tuple[str, ...], int] = {}
    for combo in combos:
        initials[combo] = intern(state_key(term, combo))
    frontier = list(initials.values())
    explored: Set[int] = set()
    while frontier:
        current = frontier.pop()
        if current in explored:
            continue
        explored.add(current)
        current_term, current_mstates = states[current]
        if current_term in (TT, FF):
            transitions[current] = tuple(
                current for _ in alphabet.letters
            )
            continue
        class_of, firsts = letter_classes(
            _support(current_term, supports), current_mstates
        )
        successors: List[int] = []
        for mask, new_mstates in firsts:
            assign = _Assignment(mask, dict(zip(names, new_mstates)))
            successor_term = step_term(current_term, assign)
            successors.append(intern(state_key(successor_term, new_mstates)))
        row = tuple(successors[number] for number in class_of)
        transitions[current] = row
        frontier.extend(
            successor for successor in row if successor not in explored
        )

    accept = indices.get((TT, sink_key))
    reject = indices.get((FF, sink_key))
    return Automaton(
        alphabet=alphabet,
        machines=machines,
        states=states,
        transitions=transitions,
        accept=accept,
        reject=reject,
        initials=initials,
    )


def _machine_map(
    machines: Sequence[StateMachine],
) -> Dict[str, StateMachine]:
    return {machine.name: machine for machine in machines}


def compile_formulas(
    formulas: Sequence[Formula],
    machines: Sequence[StateMachine] = (),
    env: Optional[Mapping[str, Interval]] = None,
    bool_signals: FrozenSet[str] = frozenset(),
    period: float = DEFAULT_PERIOD,
    max_atoms: int = MAX_ALPHABET_ATOMS,
) -> Tuple[Alphabet, Tuple[StateMachine, ...], List[Term]]:
    """Shared alphabet and residual terms for several formulas.

    The alphabet covers the union of the formulas' atoms so that their
    terms can be combined (conjunction, negation) and compiled against
    one another — the basis of the containment prover.
    """
    by_name = _machine_map(machines)
    alphabet = build_alphabet(
        formulas, by_name, env=env, bool_signals=bool_signals,
        max_atoms=max_atoms,
    )
    used = tuple(by_name[name] for name in alphabet.machines)
    terms = [
        formula_to_term(formula, alphabet, period) for formula in formulas
    ]
    return alphabet, used, terms


def compile_formula(
    formula: Formula,
    machines: Sequence[StateMachine] = (),
    env: Optional[Mapping[str, Interval]] = None,
    bool_signals: FrozenSet[str] = frozenset(),
    period: float = DEFAULT_PERIOD,
    max_states: int = DEFAULT_STATE_BUDGET,
    max_atoms: int = MAX_ALPHABET_ATOMS,
) -> Automaton:
    """Compile one formula to its automaton (see module docstring)."""
    alphabet, used, terms = compile_formulas(
        [formula], machines, env=env, bool_signals=bool_signals,
        period=period, max_atoms=max_atoms,
    )
    return compile_term(terms[0], alphabet, used, max_states=max_states)


# ----------------------------------------------------------------------
# The provers
# ----------------------------------------------------------------------

PROVED = "proved"

#: The typed give-ups a prover answers ``"unknown"`` for, each counted
#: as ``audit.prover.undecided.<reason>`` (the audit is the provers'
#: consumer).  Any other exception is a bug and propagates.
_GIVE_UP_REASONS = {
    StateBudgetError: "state_budget",
    UnsupportedFormulaError: "unsupported_formula",
    AlphabetError: "alphabet",
    EvaluationError: "evaluation",
}
_GIVE_UPS = tuple(_GIVE_UP_REASONS)


def count_give_up(reason: str) -> str:
    """Count a question the prover gave up on for ``reason``; its
    answer is ``"unknown"``."""
    get_registry().counter("audit.prover.undecided.%s" % reason).inc()
    return UNKNOWN


class FormulaPair:
    """Two formulas compiled to terms over one shared alphabet.

    The pair's questions — contradiction and implication either way —
    combine the same two terms, so the alphabet is built once per pair.
    A question the prover gives up on answers ``"unknown"``, is counted
    (:func:`count_give_up`) and appends its reason to ``give_ups``.
    """

    def __init__(
        self,
        a: Formula,
        b: Formula,
        machines: Sequence[StateMachine] = (),
        env: Optional[Mapping[str, Interval]] = None,
        bool_signals: FrozenSet[str] = frozenset(),
        period: float = DEFAULT_PERIOD,
        max_states: int = DEFAULT_STATE_BUDGET,
    ) -> None:
        self.max_states = max_states
        self.give_ups: List[str] = []
        self._failure: Optional[str] = None
        try:
            self._compiled = compile_formulas(
                [a, b], machines, env=env, bool_signals=bool_signals,
                period=period,
            )
        except _GIVE_UPS as exc:
            self._failure = _GIVE_UP_REASONS[type(exc)]

    def _proves_empty(self, combined: Callable[[Term, Term], Term]) -> str:
        if self._failure is not None:
            return self._give_up(self._failure)
        alphabet, used, (a, b) = self._compiled
        try:
            automaton = compile_term(
                combined(a, b), alphabet, used, max_states=self.max_states
            )
        except _GIVE_UPS as exc:
            return self._give_up(_GIVE_UP_REASONS[type(exc)])
        return PROVED if automaton.satisfiable() == NO else UNKNOWN

    def _give_up(self, reason: str) -> str:
        self.give_ups.append(reason)
        return count_give_up(reason)

    def contradicts(self) -> str:
        """``"proved"`` when no in-range trace satisfies both formulas
        at the same starting row; ``"unknown"`` otherwise."""
        return self._proves_empty(lambda a, b: conj((a, b)))

    def implies(self, forward: bool = True) -> str:
        """``"proved"`` when every in-range trace satisfying the first
        formula at a row satisfies the second there too (emptiness of
        ``a ∧ ¬b``); ``forward=False`` asks the converse."""
        if forward:
            return self._proves_empty(lambda a, b: conj((a, neg_term(b))))
        return self._proves_empty(lambda a, b: conj((b, neg_term(a))))


def prove_contradicts(
    a: Formula,
    b: Formula,
    machines: Sequence[StateMachine] = (),
    env: Optional[Mapping[str, Interval]] = None,
    bool_signals: FrozenSet[str] = frozenset(),
    period: float = DEFAULT_PERIOD,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> str:
    """``"proved"`` when no in-range trace satisfies ``a`` and ``b`` at
    the same starting row; ``"unknown"`` otherwise."""
    return FormulaPair(
        a, b, machines, env, bool_signals, period, max_states
    ).contradicts()


def prove_implies(
    a: Formula,
    b: Formula,
    machines: Sequence[StateMachine] = (),
    env: Optional[Mapping[str, Interval]] = None,
    bool_signals: FrozenSet[str] = frozenset(),
    period: float = DEFAULT_PERIOD,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> str:
    """``"proved"`` when every in-range trace satisfying ``a`` at a row
    satisfies ``b`` there too (emptiness of ``a ∧ ¬b``)."""
    return FormulaPair(
        a, b, machines, env, bool_signals, period, max_states
    ).implies()


def prove_valid(
    formula: Formula,
    machines: Sequence[StateMachine] = (),
    env: Optional[Mapping[str, Interval]] = None,
    bool_signals: FrozenSet[str] = frozenset(),
    period: float = DEFAULT_PERIOD,
    max_states: int = DEFAULT_STATE_BUDGET,
) -> str:
    """``"proved"`` when no in-range trace can falsify ``formula`` —
    the decision-procedure form of the vacuity check.  The formula's
    own automaton answers it: deterministic, it reaches no rejecting
    verdict exactly when the automaton of the negation accepts
    nothing."""
    try:
        automaton = compile_formula(
            formula, machines, env=env, bool_signals=bool_signals,
            period=period, max_states=max_states,
        )
    except _GIVE_UPS as exc:
        return count_give_up(_GIVE_UP_REASONS[type(exc)])
    return PROVED if automaton.falsifiable() == NO else UNKNOWN


# ----------------------------------------------------------------------
# Observable-signal reduction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Observability:
    """Which of a rule's signals its automaton actually distinguishes.

    ``droppable`` signals can be removed from the stream without
    changing the rule's language: no reachable state maps two letters
    differing only in that signal's atoms to different successors.
    ``required`` is the complement within ``referenced``.
    """

    referenced: Tuple[str, ...]
    required: Tuple[str, ...]
    droppable: Tuple[str, ...]

    @property
    def bandwidth_hint(self) -> float:
        """Fraction of the referenced signals that can be dropped."""
        if not self.referenced:
            return 0.0
        return len(self.droppable) / len(self.referenced)


def _atom_signals(atom: Formula) -> Tuple[str, ...]:
    return tuple(atom.signals())


def reduce_observables(automaton: Automaton) -> Observability:
    """Minimal observable-signal set of a compiled automaton."""
    atoms = automaton.alphabet.atoms
    referenced = sorted(
        {name for atom in atoms for name in _atom_signals(atom)}
    )
    letters = automaton.alphabet.letters
    droppable: List[str] = []
    for signal in referenced:
        mask = 0
        for i, atom in enumerate(atoms):
            if signal in _atom_signals(atom):
                mask |= 1 << i
        keep = ~mask
        distinguishes = False
        for state in range(automaton.n_states):
            if automaton.is_sink(state):
                continue
            groups: Dict[int, int] = {}
            for pos, letter in enumerate(letters):
                successor = automaton.transitions[state][pos]
                key = letter & keep
                previous = groups.setdefault(key, successor)
                if previous != successor:
                    distinguishes = True
                    break
            if distinguishes:
                break
        if not distinguishes:
            droppable.append(signal)
    required = [name for name in referenced if name not in droppable]
    return Observability(
        referenced=tuple(referenced),
        required=tuple(required),
        droppable=tuple(droppable),
    )


# ----------------------------------------------------------------------
# Rule-level analysis and the report
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A rule's monitorability certificate."""

    classification: str
    safety: bool
    co_safety: bool
    horizon_rows: Optional[int]


@dataclass
class RuleAutomaton:
    """Everything the automata pass derived for one rule."""

    rule_id: str
    name: str
    status: str  # "ok" | "unsupported" | "budget"
    reason: str
    monitor_horizon_rows: Optional[int]
    automaton: Optional[Automaton] = None
    certificate: Optional[Certificate] = None
    observability: Optional[Observability] = None
    satisfiable: str = UNKNOWN
    falsifiable: str = UNKNOWN
    #: The typed give-up behind a failed compile (``state_budget``,
    #: ``unsupported_formula``, ``alphabet`` or ``evaluation``), so a
    #: question read off this automaton can count it.
    give_up: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        certificate = self.certificate
        observability = self.observability
        automaton = self.automaton
        return {
            "rule": self.rule_id,
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "class": certificate.classification if certificate else None,
            "safety": certificate.safety if certificate else None,
            "co_safety": certificate.co_safety if certificate else None,
            "horizon_rows": (
                certificate.horizon_rows if certificate else None
            ),
            "monitor_horizon_rows": self.monitor_horizon_rows,
            "states": automaton.n_states if automaton else None,
            "letters": (
                len(automaton.alphabet.letters) if automaton else None
            ),
            "atoms": (
                list(automaton.alphabet.atom_texts()) if automaton else []
            ),
            "satisfiable": self.satisfiable,
            "falsifiable": self.falsifiable,
            "observability": (
                {
                    "referenced": list(observability.referenced),
                    "required": list(observability.required),
                    "droppable": list(observability.droppable),
                }
                if observability is not None
                else None
            ),
        }


def monitor_horizon_rows(formula: Formula, period: float) -> Optional[int]:
    """The rows of lookahead :class:`~repro.core.online.OnlineMonitor`
    would configure for this formula (its conservative
    ``future_reach``-based bound, always ≥ the exact certificate).
    ``None`` when the reach is unbounded — no finite configuration
    exists, matching a ``None`` certificate horizon."""
    from repro.core.evaluator import future_reach

    reach = future_reach(formula, period)
    if math.isinf(reach):
        return None
    return int(math.ceil(reach / period)) + 1


def compile_rule(
    rule,
    machines: Sequence[StateMachine] = (),
    env: Optional[Mapping[str, Interval]] = None,
    bool_signals: FrozenSet[str] = frozenset(),
    period: float = DEFAULT_PERIOD,
    max_states: int = DEFAULT_STATE_BUDGET,
    max_atoms: int = MAX_ALPHABET_ATOMS,
) -> RuleAutomaton:
    """Compile one rule's effective formula (gate included; intent
    filters and warm-up windows are runtime concerns outside the
    language and are not modelled)."""
    formula = rule.effective_formula()
    try:
        horizon = monitor_horizon_rows(formula, period)
    except EvaluationError:
        horizon = None
    name = getattr(rule, "name", "") or rule.rule_id
    try:
        automaton = compile_formula(
            formula,
            machines=machines,
            env=env,
            bool_signals=bool_signals,
            period=period,
            max_states=max_states,
            max_atoms=max_atoms,
        )
    except _GIVE_UPS as exc:
        return RuleAutomaton(
            rule_id=rule.rule_id,
            name=name,
            status=(
                "budget"
                if isinstance(exc, StateBudgetError)
                else "unsupported"
            ),
            reason=str(exc),
            monitor_horizon_rows=horizon,
            give_up=_GIVE_UP_REASONS[type(exc)],
        )
    classification, safety, co_safety = automaton.classify()
    certificate = Certificate(
        classification=classification,
        safety=safety,
        co_safety=co_safety,
        horizon_rows=automaton.horizon_rows(),
    )
    return RuleAutomaton(
        rule_id=rule.rule_id,
        name=name,
        status="ok",
        reason="",
        monitor_horizon_rows=horizon,
        automaton=automaton,
        certificate=certificate,
        observability=reduce_observables(automaton),
        satisfiable=automaton.satisfiable(),
        falsifiable=automaton.falsifiable(),
    )


@dataclass
class AutomataReport:
    """``repro automata`` — one target's compiled rule set."""

    target: str
    period: float
    rules: List[RuleAutomaton] = field(default_factory=list)

    def summary(self) -> Dict[str, int]:
        counts = {
            "rules": len(self.rules),
            BOUNDED: 0,
            SAFETY: 0,
            CO_SAFETY: 0,
            NEITHER: 0,
            "unsupported": 0,
        }
        for entry in self.rules:
            if entry.status != "ok" or entry.certificate is None:
                counts["unsupported"] += 1
            else:
                counts[entry.certificate.classification] += 1
        return counts

    @property
    def failed(self) -> bool:
        """Strict gate: any rule that no finite horizon can decide."""
        return any(
            entry.status == "ok"
            and entry.certificate is not None
            and entry.certificate.classification == NEITHER
            for entry in self.rules
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.target,
            "period": self.period,
            "rules": [entry.to_dict() for entry in self.rules],
            "summary": self.summary(),
        }

    def format_text(self) -> str:
        counts = self.summary()
        lines = [
            "automata %s: %d rule(s) — %d bounded, %d safety, "
            "%d co-safety, %d neither, %d unsupported"
            % (
                self.target,
                counts["rules"],
                counts[BOUNDED],
                counts[SAFETY],
                counts[CO_SAFETY],
                counts[NEITHER],
                counts["unsupported"],
            )
        ]
        for entry in self.rules:
            if entry.status != "ok" or entry.certificate is None:
                lines.append(
                    "  %s: %s (%s)" % (entry.rule_id, entry.status, entry.reason)
                )
                continue
            certificate = entry.certificate
            automaton = entry.automaton
            horizon = (
                "unbounded"
                if certificate.horizon_rows is None
                else "%d row(s)" % certificate.horizon_rows
            )
            lines.append(
                "  %s: %s, horizon %s (monitor configures %s), "
                "%d state(s), %d letter(s) over %d atom(s)"
                % (
                    entry.rule_id,
                    certificate.classification,
                    horizon,
                    "n/a"
                    if entry.monitor_horizon_rows is None
                    else "%d" % entry.monitor_horizon_rows,
                    automaton.n_states if automaton else 0,
                    len(automaton.alphabet.letters) if automaton else 0,
                    len(automaton.alphabet.atoms) if automaton else 0,
                )
            )
            observability = entry.observability
            if observability is not None and observability.droppable:
                lines.append(
                    "      droppable signal(s): %s"
                    % ", ".join(observability.droppable)
                )
        return "\n".join(lines)


def analyze_automata(
    rules: Sequence,
    machines: Sequence[StateMachine] = (),
    database=None,
    period: Optional[float] = None,
    target: str = "rule set",
    max_states: int = DEFAULT_STATE_BUDGET,
) -> AutomataReport:
    """Compile every rule against the bundled (or given) CAN database.

    Mirrors :func:`~repro.analysis.audit.audit_rules`: ``database=None``
    loads the FSRACC database for the DBC-seeded coherence filter.
    """
    if period is None:
        period = DEFAULT_PERIOD
    positive_seconds("period", period)
    count("max_states", max_states)
    if database is None:
        from repro.can.fsracc import fsracc_database

        database = fsracc_database()
    env, bool_signals = dbc_environment(database)
    report = AutomataReport(target=target, period=period)
    for rule in rules:
        report.rules.append(
            compile_rule(
                rule,
                machines=machines,
                env=env,
                bool_signals=bool_signals,
                period=period,
                max_states=max_states,
            )
        )
    return report


def analyze_automata_specs(
    specs,
    database=None,
    period: Optional[float] = None,
    target: str = "spec set",
    max_states: int = DEFAULT_STATE_BUDGET,
) -> AutomataReport:
    """Analyze a loaded :class:`~repro.core.specfile.SpecSet`."""
    return analyze_automata(
        specs.rules,
        machines=specs.machines,
        database=database,
        period=period,
        target=target,
        max_states=max_states,
    )


# ----------------------------------------------------------------------
# DOT export
# ----------------------------------------------------------------------


def to_dot(automaton: Automaton, title: str = "automaton") -> str:
    """Graphviz rendering: states labelled by their residual term,
    edges grouped per successor and labelled with the atom truths that
    are constant across the group (``*`` when none are)."""
    atoms = automaton.alphabet.atoms
    lines = [
        "digraph %s {" % _dot_id(title),
        "  rankdir=LR;",
        '  node [shape=circle, fontsize=10];',
    ]
    for state in range(automaton.n_states):
        term, mstates = automaton.states[state]
        label = str(term)
        if mstates:
            label += " | " + ",".join(mstates)
        if len(label) > 60:
            label = label[:57] + "..."
        shape = "doublecircle" if state == automaton.accept else (
            "box" if state == automaton.reject else "circle"
        )
        lines.append(
            '  s%d [shape=%s, label="%s"];'
            % (state, shape, _dot_escape("S%d: %s" % (state, label)))
        )
    lines.append('  start [shape=point]; start -> s0;')
    for state in range(automaton.n_states):
        if automaton.is_sink(state):
            continue
        by_successor: Dict[int, List[int]] = {}
        for pos, successor in enumerate(automaton.transitions[state]):
            by_successor.setdefault(successor, []).append(pos)
        for successor, positions in sorted(by_successor.items()):
            masks = [automaton.alphabet.letters[pos] for pos in positions]
            fixed: List[str] = []
            for i, atom in enumerate(atoms):
                values = {bool((mask >> i) & 1) for mask in masks}
                if len(values) == 1:
                    prefix = "" if values.pop() else "!"
                    fixed.append("%s%s" % (prefix, atom))
            label = " & ".join(fixed) if fixed else "*"
            if len(label) > 40:
                label = label[:37] + "..."
            lines.append(
                '  s%d -> s%d [label="%s"];'
                % (state, successor, _dot_escape(label))
            )
    lines.append("}")
    return "\n".join(lines)


def _dot_id(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name) or "automaton"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
