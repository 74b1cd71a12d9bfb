"""Soundness differential: static margin intervals vs dynamic margins.

The static prover in ``repro.analysis.margins`` promises *containment*:
for any trace whose signals conform to the environment, every per-row
value of both arrays from ``evaluate_robustness`` lies inside the
single static ``[lower, upper]`` interval.  This file checks that
promise, and its certifying side:

* every paper rule over the shared nominal HIL run, under the DBC
  environment (and, per campaign cell, under the injection-widened
  environments, which must only ever *loosen* the nominal interval);
* one certified cell: ``analyze_margins`` bounds ``VehicleAhead < 2``
  strictly positive even while VehicleAhead itself is injected;
* 500 fuzzed (spec, trace, injection) triples: random AST formulas over
  random signal ranges, with a random subset of signals "injected"
  (widened to the full line plus NaN/inf special values in the trace —
  exactly what ``cell_env`` models for flipped 32-bit floats);
* hand-picked traps: the ``signal * 0`` NaN absorption that a pure
  interval domain gets wrong, unreachable ``in_state`` guards, and
  truncation padding of temporal windows.
"""

import math

import numpy as np
import pytest

from helpers import uniform_trace
from repro.analysis.depgraph import DependencyGraph
from repro.analysis.intervals import TOP, Interval
from repro.analysis.margins import (
    CERTAIN_FALSE,
    MarginEnv,
    analyze_margins,
    cell_env,
    formula_margin,
    margin_env,
    rule_margin,
)
from repro.analysis.audit import CampaignPlan, paper_plan
from repro.core.ast import (
    Always,
    And,
    Binary,
    BoolConst,
    Comparison,
    Constant,
    Eventually,
    Fresh,
    Historically,
    Implies,
    InState,
    Next,
    Not,
    Once,
    Or,
    SignalPredicate,
    SignalRef,
    TraceFunc,
    Unary,
)
from repro.core.evaluator import EvalContext, evaluate_robustness
from repro.core.monitor import Monitor, Rule
from repro.core.statemachine import StateMachine
from repro.rules.safety_rules import paper_specset
from repro.testing.campaign import InjectionTest

PERIOD = 0.02


def assert_contained(static, bounds, where=""):
    """Every dynamic per-row margin lies inside the static interval."""
    lower, upper = np.asarray(bounds.lower), np.asarray(bounds.upper)
    assert not np.isnan(lower).any(), where
    assert not np.isnan(upper).any(), where
    assert (lower >= static.lo).all(), (
        where,
        static,
        float(lower.min()) if lower.size else None,
    )
    assert (upper <= static.hi).all(), (
        where,
        static,
        float(upper.max()) if upper.size else None,
    )


# ----------------------------------------------------------------------
# Paper rules on the nominal run
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def specs():
    return paper_specset()


class TestPaperRules:
    def test_static_contains_every_dynamic_row(
        self, specs, database, nominal_trace
    ):
        env = margin_env(database)
        monitor = Monitor(specs.rules, machines=specs.machines)
        view = nominal_trace.to_view(
            monitor.period, signals=monitor.required_signals()
        )
        ctx = EvalContext(view)
        for machine in monitor.machines:
            ctx.machine_states[machine.name] = machine.run(ctx)
            ctx.machine_alphabets[machine.name] = machine.alphabet
        for rule in specs.rules:
            static = rule_margin(
                rule, env, period=monitor.period, machines=specs.machines
            )
            bounds = evaluate_robustness(rule.effective_formula(), ctx)
            assert_contained(static, bounds, where=rule.rule_id)

    def test_no_paper_rule_is_statically_safe(self, specs, database):
        # Every paper rule's gate is a boolean atom, which lifts the
        # antecedent to +/-inf, so no static lower bound clears zero:
        # no paper cell is statically certified.
        env = margin_env(database)
        for rule in specs.rules:
            static = rule_margin(rule, env, machines=specs.machines)
            assert static.lo <= 0, (rule.rule_id, static)

    def test_cell_envs_only_loosen_the_nominal_interval(
        self, specs, database
    ):
        # Widening the environment must widen (or keep) every interval:
        # the abstract interpreter is monotone, so an injection can
        # never *create* a safety proof that nominal ranges lack.
        env = margin_env(database)
        graph = DependencyGraph(database, specs.rules, specs.machines)
        for test in paper_plan().tests:
            widened = cell_env(database, test.targets, graph)
            assert widened is not None, test.label
            for rule in specs.rules:
                nominal = rule_margin(rule, env, machines=specs.machines)
                cell = rule_margin(rule, widened, machines=specs.machines)
                assert cell.lo <= nominal.lo, (test.label, rule.rule_id)
                assert cell.hi >= nominal.hi, (test.label, rule.rule_id)


class TestInjectedCellCertificate:
    """The certifying side of the cell prover: a positive static lower
    bound under the test's injection-widened environment.

    VehicleAhead is a 1-bit BOOL, so even injecting it directly can only
    put raw 0/1 on the bus: the margin of ``VehicleAhead < 2`` stays at
    least 1 in that cell, although the rule reads the injected signal
    and the dependency graph therefore cannot call the cell dead.
    """

    RULE = Rule.from_text("on_bit", "flag is one bit", "VehicleAhead < 2")
    PLAN = CampaignPlan(
        tests=(
            InjectionTest("Random VehicleAhead", "Random", ("VehicleAhead",)),
        )
    )

    def report(self, database, threshold):
        return analyze_margins(
            [self.RULE], database=database, plan=self.PLAN,
            threshold=threshold,
        )

    def test_certifies_injected_bool_rule(self, database):
        report = self.report(database, threshold=0.0)
        (cell,) = report.cells
        assert cell.interval.lo == 1.0, cell.interval
        assert cell.prunable(0.0)
        assert report.summary()["prunable_cells"] == 1
        assert report.seeds() == []
        graph = DependencyGraph(database, [self.RULE])
        assert graph.dead_rules(("VehicleAhead",)) == ()

    def test_threshold_raises_the_bar(self, database):
        # The lower bound is exactly 1: a threshold at or above it keeps
        # the cell a falsification seed.
        report = self.report(database, threshold=1.0)
        (cell,) = report.cells
        assert not cell.prunable(1.0)
        assert report.summary()["prunable_cells"] == 0
        assert report.seeds() == [cell]


# ----------------------------------------------------------------------
# Fuzzed (spec, trace, injection) triples
# ----------------------------------------------------------------------

SIGNALS = ("s0", "s1", "s2")

#: Special values an injected 32-bit float can put on the bus.
SPECIALS = (
    float("nan"),
    math.inf,
    -math.inf,
    1e300,
    -1e300,
    0.0,
)


class TripleGen:
    """Random (environment, formula, trace) triples.

    Unlike the monotone generator of the boolean differential, this one
    uses the *full* expression grammar (arithmetic, trace functions,
    negation, implication, all six comparison operators) — containment
    is direction-free, so nothing needs to be polarity-tracked.
    """

    def __init__(self, rng):
        self.rng = rng
        # Per-signal nominal ranges, like DBC physical ranges.
        self.ranges = {}
        for signal in SIGNALS:
            lo = round(float(rng.uniform(-5.0, 0.0)), 3)
            hi = round(float(rng.uniform(0.0, 5.0)), 3)
            self.ranges[signal] = (lo, hi)
        # The "injection": a random subset of signals loses its range
        # and gains NaN/inf capability, as cell_env models for floats.
        self.injected = frozenset(
            signal for signal in SIGNALS if rng.random() < 0.4
        )

    def env(self):
        intervals = {
            signal: TOP if signal in self.injected else Interval(lo, hi)
            for signal, (lo, hi) in self.ranges.items()
        }
        return MarginEnv(intervals=intervals, nan_signals=self.injected)

    def pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def expr(self, depth):
        roll = self.rng.random()
        if depth <= 0 or roll < 0.4:
            if self.rng.random() < 0.7:
                return SignalRef(self.pick(SIGNALS))
            return Constant(round(float(self.rng.uniform(-3.0, 3.0)), 3))
        if roll < 0.55:
            return Unary(self.pick(("-", "abs")), self.expr(depth - 1))
        if roll < 0.7:
            kind = self.pick(("prev", "delta", "delta_naive", "rate", "age"))
            return TraceFunc(kind, self.pick(SIGNALS))
        op = self.pick(("+", "-", "*", "/", "min", "max"))
        return Binary(op, self.expr(depth - 1), self.expr(depth - 1))

    def atom(self):
        roll = self.rng.random()
        if roll < 0.1:
            return SignalPredicate(self.pick(SIGNALS))
        if roll < 0.15:
            return Fresh(self.pick(SIGNALS))
        if roll < 0.2:
            return BoolConst(self.rng.random() < 0.5)
        op = self.pick(("<", "<=", ">", ">=", "==", "!="))
        return Comparison(op, self.expr(2), self.expr(2))

    def formula(self, depth=3):
        if depth <= 0 or self.rng.random() < 0.3:
            return self.atom()
        kind = self.pick(
            (
                "and",
                "or",
                "not",
                "implies",
                "next",
                "always",
                "eventually",
                "once",
                "historically",
            )
        )
        if kind == "not":
            return Not(self.formula(depth - 1))
        if kind == "next":
            return Next(self.formula(depth - 1))
        if kind in ("and", "or", "implies"):
            node = {"and": And, "or": Or, "implies": Implies}[kind]
            return node(self.formula(depth - 1), self.formula(depth - 1))
        node = {
            "always": Always,
            "eventually": Eventually,
            "once": Once,
            "historically": Historically,
        }[kind]
        lo = PERIOD * self.pick((0, 0, 0, 1, 2))
        hi = lo + PERIOD * int(self.rng.integers(1, 6))
        return node(lo, hi, self.formula(depth - 1))

    def trace_data(self, rows):
        data = {}
        for signal in SIGNALS:
            lo, hi = self.ranges[signal]
            values = self.rng.uniform(lo, hi, size=rows)
            if signal in self.injected:
                # Wild magnitudes plus sprinkled IEEE specials.
                values = self.rng.uniform(-1e3, 1e3, size=rows)
                count = int(self.rng.integers(1, max(2, rows // 4)))
                where = self.rng.integers(0, rows, size=count)
                for row in where:
                    values[int(row)] = self.pick(SPECIALS)
            data[signal] = values
        return data


def _check_triple(seed):
    rng = np.random.default_rng(seed)
    gen = TripleGen(rng)
    formula = gen.formula()
    static = formula_margin(formula, gen.env(), period=PERIOD)

    rows = int(rng.integers(30, 80))
    data = gen.trace_data(rows)
    trace = uniform_trace(
        {signal: list(values) for signal, values in data.items()},
        period=PERIOD,
    )
    ctx = EvalContext(trace.to_view(PERIOD))
    bounds = evaluate_robustness(formula, ctx)
    assert_contained(
        static,
        bounds,
        where="seed=%d injected=%s %r" % (seed, sorted(gen.injected), formula),
    )


class TestFuzzSoundness:
    #: 125 parametrized cases x 4 triples each = 500 fuzzed triples.
    TRIPLES_PER_CASE = 4

    @pytest.mark.parametrize("case", range(125))
    def test_static_interval_contains_dynamic_margins(self, case):
        for sub in range(self.TRIPLES_PER_CASE):
            _check_triple(48500 + case * self.TRIPLES_PER_CASE + sub)


# ----------------------------------------------------------------------
# Hand-picked traps
# ----------------------------------------------------------------------


def _dynamic(formula, data, machines=()):
    trace = uniform_trace(
        {signal: list(values) for signal, values in data.items()},
        period=PERIOD,
    )
    ctx = EvalContext(trace.to_view(PERIOD))
    for machine in machines:
        ctx.machine_states[machine.name] = machine.run(ctx)
        ctx.machine_alphabets[machine.name] = machine.alphabet
    return evaluate_robustness(formula, ctx)


class TestTraps:
    def test_nan_times_zero_is_not_absorbed(self):
        # A pure interval domain computes TOP * [0, 0] = [0, 0] and
        # would "prove" the margin of ``s * 0 >= -1`` is exactly 1 —
        # but a NaN sample makes the product NaN and the dynamic margin
        # -inf.  The may-NaN flag must keep the static lower at -inf.
        formula = Comparison(
            ">=",
            Binary("*", SignalRef("s0"), Constant(0.0)),
            Constant(-1.0),
        )
        env = MarginEnv(
            intervals={"s0": TOP}, nan_signals=frozenset(["s0"])
        )
        static = formula_margin(formula, env, period=PERIOD)
        assert static.lo == -math.inf
        bounds = _dynamic(formula, {"s0": [1.0, float("nan"), -2.0]})
        assert_contained(static, bounds, where="nan * 0")
        assert bounds.lower[1] == -math.inf

    def test_nan_free_product_is_provably_safe(self):
        # Same formula, NaN-impossible environment: now the proof is
        # legitimate and the dynamic margin really is constant 1.
        formula = Comparison(
            ">=",
            Binary("*", SignalRef("s0"), Constant(0.0)),
            Constant(-1.0),
        )
        env = MarginEnv(intervals={"s0": Interval(-5.0, 5.0)})
        static = formula_margin(formula, env, period=PERIOD)
        assert static.lo == 1.0
        bounds = _dynamic(formula, {"s0": [1.0, 0.0, -2.0]})
        assert_contained(static, bounds, where="finite * 0")

    def test_unreachable_state_is_certainly_false(self):
        machine = StateMachine(
            "acc",
            states=("off", "on", "ghost"),
            initial="off",
            transitions=[("off", "on", "s0 > 0")],
        )
        formula = InState("acc", "ghost")
        env = MarginEnv(intervals={"s0": Interval(-1.0, 1.0)})
        static = formula_margin(
            formula, env, period=PERIOD, machines=[machine]
        )
        assert static == CERTAIN_FALSE
        bounds = _dynamic(
            formula, {"s0": [-0.5, 0.5, 0.5]}, machines=[machine]
        )
        assert_contained(static, bounds, where="in_state ghost")

    def test_reachable_state_stays_top(self):
        machine = StateMachine(
            "acc",
            states=("off", "on"),
            initial="off",
            transitions=[("off", "on", "s0 > 0")],
        )
        formula = InState("acc", "on")
        env = MarginEnv(intervals={"s0": Interval(-1.0, 1.0)})
        static = formula_margin(
            formula, env, period=PERIOD, machines=[machine]
        )
        assert static == TOP
        bounds = _dynamic(
            formula, {"s0": [-0.5, 0.5, 0.5]}, machines=[machine]
        )
        assert_contained(static, bounds, where="in_state on")

    def test_window_truncation_pads_force_widening(self):
        # always[0, 60ms] over a certainly-true-by-margin atom: the
        # final rows' windows truncate, padding the lower array with
        # -inf, so the static lower bound cannot stay positive.
        atom = Comparison(">", SignalRef("s0"), Constant(-10.0))
        formula = Always(0.0, 0.06, atom)
        env = MarginEnv(intervals={"s0": Interval(-1.0, 1.0)})
        static = formula_margin(formula, env, period=PERIOD)
        assert static.lo == -math.inf
        assert static.hi > 0
        bounds = _dynamic(formula, {"s0": [0.0] * 6})
        assert_contained(static, bounds, where="always truncation")
        assert bounds.lower[-1] == -math.inf

    def test_zero_width_window_keeps_the_inner_interval(self):
        # A [0, 0] window never truncates: it is the identity, and the
        # static interval must stay as tight as the atom's.
        atom = Comparison(">", SignalRef("s0"), Constant(-10.0))
        formula = Always(0.0, 0.0, atom)
        env = MarginEnv(intervals={"s0": Interval(-1.0, 1.0)})
        static = formula_margin(formula, env, period=PERIOD)
        assert static == Interval(9.0, 11.0)
        bounds = _dynamic(formula, {"s0": [0.0, -1.0, 1.0]})
        assert_contained(static, bounds, where="zero-width window")
