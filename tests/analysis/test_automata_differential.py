"""Differential soundness harness for the symbolic automata pass.

Three obligations, each checked over the paper rules plus hundreds of
fuzzed spec/trace pairs (seeded, so failures replay):

* **Letter membership** — every trace row maps to a letter the
  coherence filter kept.  A pruned-but-realizable letter would make
  the automaton's ``step`` raise and every "no" answer unsound.
* **Verdict agreement** — running the automaton over the suffix
  letters from any row yields exactly the dynamic evaluator's
  three-valued verdict at that row (True/False/undecided ==
  TRUE/FALSE/UNKNOWN).
* **Prover soundness** — whenever ``prove_implies`` /
  ``prove_contradicts`` answer ``"proved"``, no fuzzed trace row
  witnesses a counterexample.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from helpers import PERIOD, uniform_trace

from repro.analysis.automata import (
    PROVED,
    compile_formula,
    compile_rule,
    prove_contradicts,
    prove_implies,
)
from repro.analysis.predicates import dbc_environment
from repro.core.evaluator import EvalContext, evaluate_formula
from repro.core.parser import parse_formula
from repro.core.types import FALSE_CODE, TRUE_CODE, UNKNOWN_CODE
from repro.rules.safety_rules import paper_rules

SEED = 20140625
N_ROWS = 14

#: Fuzz signal pool with in-DBC-range value sets whose members straddle
#: every threshold the formula generator uses.
SIGNAL_VALUES = {
    "Velocity": (-5.0, 0.0, 4.0, 6.0, 25.0, 40.0, 110.0),
    "TargetRange": (0.0, 10.0, 25.0, 60.0, 150.0, 240.0),
    "RequestedDecel": (-10.0, -2.0, -0.5, 0.0, 0.5, 2.0, 10.0),
    "BrakeRequested": (0.0, 1.0),
}

#: Comparison thresholds per signal (all within the DBC ranges).
THRESHOLDS = {
    "Velocity": (0, 5, 30),
    "TargetRange": (20, 100),
    "RequestedDecel": (-1, 0, 1),
}


#: ``delta(X)`` thresholds: the outer pair lies beyond the span of
#: every signal's DBC range, so the filter's ``delta`` bound prunes.
DELTA_THRESHOLDS = (-300, -100, -10, 0, 10, 100, 300)

#: ``abs(X - c)`` thresholds, exercising the filter's nested meet.
ABS_THRESHOLDS = (1, 10, 50)


def random_atom(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.15:
        return "BrakeRequested"
    signal = rng.choice(sorted(THRESHOLDS))
    op = rng.choice((">", ">=", "<", "<="))
    bound = rng.choice(THRESHOLDS[signal])
    if roll < 0.25:
        return "delta(%s) %s %d" % (signal, op, rng.choice(DELTA_THRESHOLDS))
    if roll < 0.35:
        return "abs(%s - %d) %s %d" % (
            signal, bound, op, rng.choice(ABS_THRESHOLDS)
        )
    return "%s %s %d" % (signal, op, bound)


def random_formula(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return random_atom(rng)
    kind = rng.choice(
        ("not", "and", "or", "implies", "next", "always", "eventually")
    )
    if kind == "not":
        return "not (%s)" % random_formula(rng, depth - 1)
    if kind in ("and", "or"):
        return "(%s) %s (%s)" % (
            random_formula(rng, depth - 1),
            kind,
            random_formula(rng, depth - 1),
        )
    if kind == "implies":
        return "(%s) -> (%s)" % (
            random_formula(rng, depth - 1),
            random_formula(rng, depth - 1),
        )
    if kind == "next":
        return "next (%s)" % random_formula(rng, depth - 1)
    lo = rng.randint(0, 2)
    hi = lo + rng.randint(0, 3)
    return "%s[%g, %g] (%s)" % (
        kind, lo * PERIOD, hi * PERIOD, random_formula(rng, depth - 1)
    )


def random_columns(rng: random.Random) -> dict:
    columns = {}
    for signal, values in SIGNAL_VALUES.items():
        # A held-value walk: signals dwell, then jump — exercising both
        # stable windows and edge rows.
        column = []
        current = rng.choice(values)
        for _ in range(N_ROWS):
            if rng.random() < 0.4:
                current = rng.choice(values)
            column.append(current)
        columns[signal] = column
    return columns


def random_trace(rng: random.Random, index: int):
    return uniform_trace(
        random_columns(rng), period=PERIOD, name="fuzz%d" % index
    )


def letter_masks(automaton, ctx) -> list:
    masks = np.zeros(ctx.n_rows, dtype=np.int64)
    for i, atom in enumerate(automaton.alphabet.atoms):
        codes = evaluate_formula(atom, ctx)
        assert not np.any(codes == UNKNOWN_CODE)
        masks |= (codes == TRUE_CODE).astype(np.int64) << i
    return masks.tolist()


def assert_pair_agrees(formula, automaton, ctx) -> None:
    letters = set(automaton.alphabet.letters)
    masks = letter_masks(automaton, ctx)
    for mask in masks:
        assert mask in letters, (
            "coherence filter pruned a letter a real trace produced"
        )
    codes = evaluate_formula(formula, ctx)
    expected = {True: TRUE_CODE, False: FALSE_CODE, None: UNKNOWN_CODE}
    for row in range(len(masks)):
        verdict = automaton.run(masks[row:])
        assert codes[row] == expected[verdict], (
            "row %d: automaton says %r, evaluator says %d"
            % (row, verdict, codes[row])
        )


class TestFuzzedPairs:
    def test_five_hundred_spec_trace_pairs_agree(self):
        rng = random.Random(SEED)
        formulas = []
        while len(formulas) < 60:
            formula = parse_formula(random_formula(rng, depth=3))
            automaton = compile_formula(formula, period=PERIOD)
            formulas.append((formula, automaton))
        traces = [random_trace(rng, i) for i in range(9)]
        contexts = [EvalContext(trace.to_view(PERIOD)) for trace in traces]
        pairs = 0
        for formula, automaton in formulas:
            for ctx in contexts:
                assert_pair_agrees(formula, automaton, ctx)
                pairs += 1
        assert pairs >= 500

    def test_dbc_env_never_prunes_realizable_letters(self, database):
        # With the DBC-seeded coherence filter active, letters produced
        # by in-range traffic must still be present.
        env, bools = dbc_environment(database)
        rng = random.Random(SEED + 1)
        traces = [random_trace(rng, i) for i in range(5)]
        contexts = [EvalContext(trace.to_view(PERIOD)) for trace in traces]
        checked = 0
        for _ in range(30):
            formula = parse_formula(random_formula(rng, depth=2))
            automaton = compile_formula(
                formula, env=env, bool_signals=bools, period=PERIOD
            )
            letters = set(automaton.alphabet.letters)
            for ctx in contexts:
                for mask in letter_masks(automaton, ctx):
                    assert mask in letters
                checked += 1
        assert checked >= 25


class TestPaperRulePairs:
    def test_paper_rules_agree_on_fuzz_traffic(self, database):
        # Fuzz overrides ride on benign defaults so every signal a
        # paper rule references is present on the grid.
        from helpers import rule_trace

        env, bools = dbc_environment(database)
        rng = random.Random(SEED + 2)
        traces = [
            rule_trace(N_ROWS, random_columns(rng), period=PERIOD)
            for _ in range(4)
        ]
        for rule in paper_rules():
            compiled = compile_rule(
                rule, env=env, bool_signals=bools, period=PERIOD
            )
            assert compiled.status == "ok"
            for trace in traces:
                ctx = EvalContext(trace.to_view(PERIOD))
                assert_pair_agrees(
                    rule.effective_formula(), compiled.automaton, ctx
                )


class TestProverDifferential:
    def test_proved_implications_have_no_counterexample(self):
        rng = random.Random(SEED + 3)
        traces = [random_trace(rng, i) for i in range(6)]
        contexts = [EvalContext(trace.to_view(PERIOD)) for trace in traces]
        proved = 0
        for _ in range(120):
            a = parse_formula(random_formula(rng, depth=2))
            b = parse_formula(random_formula(rng, depth=2))
            if prove_implies(a, b, period=PERIOD) != PROVED:
                continue
            proved += 1
            for ctx in contexts:
                codes_a = evaluate_formula(a, ctx)
                codes_b = evaluate_formula(b, ctx)
                witness = np.logical_and(
                    codes_a == TRUE_CODE, codes_b == FALSE_CODE
                )
                assert not np.any(witness), (
                    "proved implication refuted by fuzz trace"
                )
        assert proved >= 1

    def test_proved_contradictions_have_no_counterexample(self):
        rng = random.Random(SEED + 4)
        traces = [random_trace(rng, i) for i in range(6)]
        contexts = [EvalContext(trace.to_view(PERIOD)) for trace in traces]
        proved = 0
        for _ in range(120):
            a = parse_formula(random_formula(rng, depth=2))
            b = parse_formula(random_formula(rng, depth=2))
            if prove_contradicts(a, b, period=PERIOD) != PROVED:
                continue
            proved += 1
            for ctx in contexts:
                codes_a = evaluate_formula(a, ctx)
                codes_b = evaluate_formula(b, ctx)
                witness = np.logical_and(
                    codes_a == TRUE_CODE, codes_b == TRUE_CODE
                )
                assert not np.any(witness), (
                    "proved contradiction refuted by fuzz trace"
                )
        assert proved >= 1
