"""Differential harness for letter-class compilation.

:func:`~repro.analysis.automata.compile_term` steps each state once per
*letter class* — letters that agree on the atoms the state's term reads
and on the machines' next states — instead of once per letter.  The
letter-by-letter loop it replaced lives on here as the oracle, and
every automaton must come out identical: the same states in the same
order, transition table, entry states and sinks, and the same
:class:`StateBudgetError` boundary.

The vacuity question moved too: ``prove_valid`` and the audit's AU103
read ``falsifiable() == "no"`` off the formula's own automaton instead
of compiling its negation.  The negation construction is kept here as
the oracle for that answer and for the give-up counts.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Set, Tuple

import pytest

from helpers import PERIOD

from repro.analysis.analyzer import database_env
from repro.analysis.audit import _ProverContext, _vacuity_checks
from repro.analysis.automata import (
    DEFAULT_STATE_BUDGET,
    FF,
    NO,
    PROVED,
    TT,
    UNKNOWN,
    Automaton,
    StateBudgetError,
    _advance_machine,
    _Assignment,
    _GIVE_UP_REASONS,
    _support,
    compile_formulas,
    compile_rule,
    compile_term,
    neg_term,
    prove_valid,
    step_term,
)
from repro.analysis.checks import formula_status
from repro.analysis.predicates import dbc_environment
from repro.core.ast import Always, Eventually, Or
from repro.core.monitor import Rule
from repro.core.parser import parse_formula
from repro.core.statemachine import StateMachine
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.rules.safety_rules import paper_rules

from tests.analysis.test_automata_differential import SEED, random_formula


def letter_by_letter_compile(
    term, alphabet, machines=(), max_states=DEFAULT_STATE_BUDGET
):
    """The derivative exploration before letter classes: every state is
    stepped under every letter."""
    machines = tuple(machines)
    truth_maps = [
        {atom: bool((mask >> i) & 1) for i, atom in enumerate(alphabet.atoms)}
        for mask in alphabet.letters
    ]
    initial_machine_state = tuple(machine.initial for machine in machines)
    sink_key: Tuple[str, ...] = ()

    def state_key(term_, mstates):
        if term_ in (TT, FF):
            return (term_, sink_key)
        return (term_, mstates)

    states: List = []
    indices: Dict = {}
    transitions: List[Tuple[int, ...]] = []

    def intern(key) -> int:
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

    combos = [initial_machine_state]
    for combo in itertools.product(*(machine.states for machine in machines)):
        if combo != initial_machine_state:
            combos.append(combo)
    initials = {combo: intern(state_key(term, combo)) for combo in combos}
    frontier = list(initials.values())
    explored: Set[int] = set()
    while frontier:
        current = frontier.pop()
        if current in explored:
            continue
        explored.add(current)
        current_term, current_mstates = states[current]
        if current_term in (TT, FF):
            transitions[current] = tuple(current for _ in alphabet.letters)
            continue
        row = []
        for pos, mask in enumerate(alphabet.letters):
            new_mstates = tuple(
                _advance_machine(machine, mstate, truth_maps[pos])
                for machine, mstate in zip(machines, current_mstates)
            )
            assign = _Assignment(
                mask, {m.name: s for m, s in zip(machines, new_mstates)}
            )
            successor = intern(
                state_key(step_term(current_term, assign), new_mstates)
            )
            row.append(successor)
            if successor not in explored:
                frontier.append(successor)
        transitions[current] = tuple(row)
    return Automaton(
        alphabet=alphabet,
        machines=machines,
        states=states,
        transitions=transitions,
        accept=indices.get((TT, sink_key)),
        reject=indices.get((FF, sink_key)),
        initials=initials,
    )


def assert_same_automaton(
    formula, machines=(), env=None, bool_signals=frozenset()
):
    """Both loops agree on ``formula``, and on where its budget runs
    out: one state short raises in both, the exact count succeeds."""
    alphabet, used, (term,) = compile_formulas(
        [formula], machines, env=env, bool_signals=bool_signals, period=PERIOD
    )
    new = compile_term(term, alphabet, used)
    old = letter_by_letter_compile(term, alphabet, used)
    assert new.states == old.states, str(formula)
    assert new.transitions == old.transitions, str(formula)
    assert new.initials == old.initials, str(formula)
    assert (new.accept, new.reject) == (old.accept, old.reject), str(formula)
    budget = new.n_states - 1
    for compile_ in (compile_term, letter_by_letter_compile):
        with pytest.raises(StateBudgetError):
            compile_(term, alphabet, used, max_states=budget)
    tight = compile_term(term, alphabet, used, max_states=new.n_states)
    assert tight.transitions == new.transitions
    return new


def fuzzed_formulas(count: int, seed: int = SEED, depth: int = 3):
    rng = random.Random(seed)
    return [parse_formula(random_formula(rng, depth)) for _ in range(count)]


def fuzz_machine() -> StateMachine:
    """A machine over the fuzz signals whose guards share atoms with
    the fuzzed formulas, so letters split on guard atoms the term never
    reads."""
    return StateMachine(
        "mode",
        states=("idle", "braking", "fast"),
        initial="idle",
        transitions=[
            ("idle", "braking", "BrakeRequested"),
            ("idle", "fast", "Velocity > 30"),
            ("braking", "idle", "not BrakeRequested"),
            ("fast", "idle", "Velocity <= 5"),
        ],
    )


class TestLetterClasses:
    @pytest.mark.parametrize(
        "relaxed", [False, True], ids=["strict", "relaxed"]
    )
    def test_paper_rules(self, database, relaxed):
        env, bools = dbc_environment(database)
        for rule in paper_rules(relaxed):
            assert_same_automaton(
                rule.effective_formula(), env=env, bool_signals=bools
            )

    def test_five_hundred_fuzzed_formulas(self):
        sizes = [
            assert_same_automaton(formula).n_states
            for formula in fuzzed_formulas(500)
        ]
        assert len(sizes) == 500
        assert max(sizes) > 20

    def test_fuzzed_formulas_under_the_dbc(self, database):
        env, bools = dbc_environment(database)
        for formula in fuzzed_formulas(60, seed=SEED + 5):
            assert_same_automaton(formula, env=env, bool_signals=bools)

    def test_in_state_rules_with_machines(self):
        machine = fuzz_machine()
        rng = random.Random(SEED + 6)
        checked = 0
        for state in machine.states:
            for _ in range(12):
                body = random_formula(rng, 2)
                for text in (
                    "in_state(mode, %s) -> (%s)" % (state, body),
                    "always[0, 0.06] (in_state(mode, %s) or (%s))"
                    % (state, body),
                ):
                    automaton = assert_same_automaton(
                        parse_formula(text), machines=[machine]
                    )
                    assert len(automaton.initials) == len(machine.states)
                    checked += 1
        assert checked == 72

    def test_rule1_steps_two_classes_per_state(self, database):
        # Past its entry state (which reads every atom), each state of
        # rule 1 reads one atom, so its letters fall into two classes:
        # two derivatives per state instead of one per letter.
        env, bools = dbc_environment(database)
        rule1 = paper_rules()[1]
        automaton = compile_rule(rule1, env=env, bool_signals=bools).automaton
        letters = automaton.alphabet.letters
        supports: Dict = {}
        classes = [
            len({mask & _support(term, supports) for mask in letters})
            for state, (term, _) in enumerate(automaton.states)
            if not automaton.is_sink(state)
        ]
        assert (automaton.n_states, len(letters)) == (253, 24)
        assert classes[0] == 24
        assert classes[1:] == [2] * (len(classes) - 1)


#: Formulas the negation construction proves valid: each needs the
#: automaton, since interval folding of the whole formula says MAYBE.
VALID = (
    "eventually[0, 0.1] (Velocity > 10) or always[0, 0.1] (Velocity <= 10)",
    "Velocity > 5 or Velocity <= 5",
    "always[0, 0.06] (BrakeRequested or not BrakeRequested)",
    "(next (TargetRange < 20)) or (next (TargetRange >= 20))",
)

#: Formulas each prover gives up on, one per typed reason but the state
#: budget (which ``test_tight_budget_gives_up_alike`` covers).
GIVE_UPS = (
    "once[0, 0.2] (Velocity > 5)",
    "always[0.01, 0.015] (Velocity > 5)",
    " and ".join("Velocity > %d" % bound for bound in range(13)),
)


def negation_is_empty(
    formula,
    env=None,
    bool_signals=frozenset(),
    max_states=DEFAULT_STATE_BUDGET,
):
    """The vacuity construction before this change: ``formula`` is
    valid iff the automaton of its negation accepts nothing."""
    try:
        alphabet, used, (term,) = compile_formulas(
            [formula], env=env, bool_signals=bool_signals, period=PERIOD
        )
        automaton = compile_term(
            neg_term(term), alphabet, used, max_states=max_states
        )
    except tuple(_GIVE_UP_REASONS) as exc:
        get_registry().counter(
            "audit.prover.undecided.%s" % _GIVE_UP_REASONS[type(exc)]
        ).inc()
        return UNKNOWN
    return PROVED if automaton.satisfiable() == NO else UNKNOWN


def counted(question, *args, **kwargs):
    registry = MetricsRegistry()
    with use_registry(registry):
        answer = question(*args, **kwargs)
    return answer, registry.snapshot()["counters"]


def unbounded_formulas() -> List:
    """Windows the surface grammar cannot write but the AST admits:
    their cycles make ``falsifiable()`` answer "unknown" as well."""
    p = parse_formula("Velocity > 5")
    not_p = parse_formula("not (Velocity > 5)")
    return [
        Eventually(0.0, math.inf, p),
        Always(0.0, math.inf, Eventually(0.0, 0.04, p)),
        Always(0.0, math.inf, Eventually(0.0, math.inf, p)),
        Eventually(0.0, math.inf, Always(0.0, math.inf, p)),
        Or(Always(0.0, math.inf, p), Eventually(0.0, math.inf, not_p)),
        Or(
            Always(0.0, math.inf, Eventually(0.0, math.inf, p)),
            Eventually(0.0, math.inf, Always(0.0, math.inf, not_p)),
        ),
    ]


def vacuity_corpus() -> List:
    formulas = fuzzed_formulas(200, seed=SEED + 7, depth=2)
    formulas += [parse_formula(text) for text in VALID + GIVE_UPS]
    return formulas + unbounded_formulas()


class TestVacuityDifferential:
    def test_prove_valid_answers_as_the_negation(self, database):
        env, bools = dbc_environment(database)
        proved = 0
        for formula in vacuity_corpus():
            for kwargs in ({}, {"env": env, "bool_signals": bools}):
                expected = counted(negation_is_empty, formula, **kwargs)
                answer = counted(prove_valid, formula, period=PERIOD, **kwargs)
                assert answer == expected, str(formula)
                proved += answer[0] == PROVED
        assert proved >= 2 * (len(VALID) + 2)

    def test_valid_formulas_are_proved(self, database):
        env, bools = dbc_environment(database)
        for text in VALID:
            assert prove_valid(
                parse_formula(text), env=env, bool_signals=bools
            ) == PROVED

    def test_tight_budget_gives_up_alike(self):
        for formula in fuzzed_formulas(40, seed=SEED + 8):
            budget = compile_rule(
                Rule("r", "r", formula), period=PERIOD
            ).automaton.n_states - 1
            expected = counted(
                negation_is_empty, formula, max_states=budget
            )
            answer = counted(
                prove_valid, formula, period=PERIOD, max_states=budget
            )
            assert answer == expected
            assert answer[1] == {"audit.prover.undecided.state_budget": 1}

    def test_au103_answers_as_the_negation(self, database):
        env = database_env(database)
        _, bools = dbc_environment(database)
        rules = [
            Rule("r%d" % i, "r%d" % i, formula)
            for i, formula in enumerate(vacuity_corpus())
        ]
        compiled = [
            compile_rule(rule, env=env, bool_signals=bools, period=PERIOD)
            for rule in rules
        ]
        ctx = _ProverContext(bool_signals=bools, period=PERIOD)
        findings, counters = counted(
            _vacuity_checks, rules, compiled, env, ctx
        )
        by_procedure = {
            d.subject
            for d in findings
            if d.code == "AU103" and "by decision procedure" in d.message
        }

        def oracle():
            return {
                "rule %s" % rule.rule_id
                for rule in rules
                if formula_status(rule.effective_formula(), env) != "always"
                and negation_is_empty(
                    rule.effective_formula(), env=env, bool_signals=bools
                )
                == PROVED
            }

        expected, expected_counters = counted(oracle)
        assert by_procedure == expected
        assert len(by_procedure) >= len(VALID) - 1
        assert counters == expected_counters
        assert sorted(counters) == [
            "audit.prover.undecided.%s" % reason
            for reason in ("alphabet", "evaluation", "unsupported_formula")
        ]
        given_up = sum(len(subjects) for subjects in ctx.undecided.values())
        assert given_up == sum(counters.values())
