"""Cross-rule subformula memoization — cache behaviour and invariants.

The contract: memoization (and metrics instrumentation) may never change
a verdict.  Letters, violations, and report digests are byte-identical
with the cache on or off, with metrics on or off.  The memo-off
reference is built at the :class:`EvalContext` seam (see
:func:`memo_off`); the monitors themselves always memoize.
"""

import contextlib
import functools
import pickle

import numpy as np
import pytest

from helpers import uniform_trace
from repro.core import monitor as monitor_module
from repro.core import online as online_module
from repro.core.ast import _HASH_SLOT
from repro.core.evaluator import EvalContext, evaluate_expr, evaluate_formula
from repro.core.monitor import Monitor, Rule
from repro.core.online import OnlineMonitor
from repro.core.parser import parse_expr, parse_formula
from repro.obs import MetricsRegistry, use_registry

PERIOD = 0.02


def shared_gate_rules():
    """Three rules that all share the same gate and a common subformula."""
    gate = "x > 0"
    return [
        Rule.from_text("r1", "a", "always[0, 100ms] y < 5", gate=gate),
        Rule.from_text("r2", "b", "eventually[0, 200ms] y < 5", gate=gate),
        Rule.from_text("r3", "c", "always[0, 100ms] y < 5", gate=gate),
    ]


@contextlib.contextmanager
def memo_off():
    """Make every monitor in the block evaluate with ``memo=False``."""
    unmemoized = functools.partial(EvalContext, memo=False)
    with pytest.MonkeyPatch.context() as patch:
        for module in (monitor_module, online_module):
            patch.setattr(module, "EvalContext", unmemoized)
        yield


def busy_trace(n=200):
    rng = np.random.default_rng(2014)
    return uniform_trace(
        {
            "x": rng.uniform(-1, 1, size=n),
            "y": rng.uniform(0, 10, size=n),
        },
        period=PERIOD,
    )


class TestEvalContextCache:
    def test_formula_result_is_reused(self):
        view = busy_trace().to_view(PERIOD)
        ctx = EvalContext(view)
        node_a = parse_formula("always[0, 100ms] y < 5")
        node_b = parse_formula("always[0, 100ms] y < 5")
        assert node_a == node_b and node_a is not node_b
        first = evaluate_formula(node_a, ctx)
        second = evaluate_formula(node_b, ctx)
        # Structurally-equal formulas share one cached array.
        assert second is first

    def test_expr_result_is_reused(self):
        ctx = EvalContext(busy_trace().to_view(PERIOD))
        first = evaluate_expr(parse_expr("prev(y) + 1"), ctx)
        second = evaluate_expr(parse_expr("prev(y) + 1"), ctx)
        assert second is first

    def test_memo_off_recomputes(self):
        ctx = EvalContext(busy_trace().to_view(PERIOD), memo=False)
        node = parse_formula("x > 0")
        assert evaluate_formula(node, ctx) is not evaluate_formula(node, ctx)

    def test_invalidate_cache(self):
        ctx = EvalContext(busy_trace().to_view(PERIOD))
        node = parse_formula("x > 0")
        first = evaluate_formula(node, ctx)
        ctx.invalidate_cache()
        assert evaluate_formula(node, ctx) is not first


class TestMemoCounters:
    def test_hits_and_misses_counted(self):
        registry = MetricsRegistry()
        trace = busy_trace()
        with use_registry(registry):
            Monitor(shared_gate_rules(), period=PERIOD).check(trace)
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["eval.memo.formula.misses"] > 0
        # r1 and r3 share their whole formula; every rule shares the gate.
        assert counters["eval.memo.formula.hits"] > 0
        assert counters["eval.memo.expr.misses"] > 0

    def test_memo_off_counts_nothing(self):
        registry = MetricsRegistry()
        trace = busy_trace()
        with use_registry(registry), memo_off():
            Monitor(shared_gate_rules(), period=PERIOD).check(trace)
        counters = registry.snapshot()["counters"]
        assert "eval.memo.formula.hits" not in counters
        assert "eval.memo.formula.misses" not in counters

    def test_disabled_registry_counts_nothing(self):
        registry = MetricsRegistry(enabled=False)
        with use_registry(registry):
            Monitor(shared_gate_rules(), period=PERIOD).check(busy_trace())
        assert registry.counters == {}


class TestVerdictInvariance:
    """Memoization / metrics must never change what the monitor reports."""

    def test_memo_on_off_reports_identical(self):
        trace = busy_trace(400)
        rules = shared_gate_rules()
        on = Monitor(rules, period=PERIOD).check(trace)
        with memo_off():
            off = Monitor(rules, period=PERIOD).check(trace)
        assert on.to_dict() == off.to_dict()

    def test_metrics_on_off_reports_identical(self):
        trace = busy_trace(400)
        rules = shared_gate_rules()
        plain = Monitor(rules, period=PERIOD).check(trace)
        with use_registry(MetricsRegistry()):
            instrumented = Monitor(rules, period=PERIOD).check(trace)
        assert plain.to_dict() == instrumented.to_dict()

    def test_online_memo_on_off_identical(self):
        trace = busy_trace(300)
        rules = shared_gate_rules()

        def run():
            registry = MetricsRegistry()
            with use_registry(registry):
                online = OnlineMonitor(rules, period=PERIOD, min_chunk_rows=7)
                online.feed_trace(trace)
                report = online.finish()
            return report, registry.snapshot()["counters"]

        on, on_counters = run()
        with memo_off():
            off, off_counters = run()
        assert on.to_dict() == off.to_dict()
        # The reference really ran unmemoized.
        assert on_counters["eval.memo.formula.hits"] > 0
        assert "eval.memo.formula.hits" not in off_counters


class TestStructuralHashCache:
    def test_hash_cached_after_first_use(self):
        node = parse_formula("always[0, 100ms] x > 0 and y < 5")
        assert _HASH_SLOT not in vars(node)
        first = hash(node)
        assert vars(node)[_HASH_SLOT] == first
        assert hash(node) == first

    def test_cached_hash_not_pickled(self):
        node = parse_formula("eventually[0, 1s] x > 0")
        hash(node)
        assert _HASH_SLOT in vars(node)
        clone = pickle.loads(pickle.dumps(node))
        # The cache must not cross process boundaries: string hashes are
        # salted per interpreter, so a pickled hash would be stale.
        assert _HASH_SLOT not in vars(clone)
        assert clone == node

    def test_equal_formulas_hash_equal(self):
        a = parse_formula("once[0, 500ms] x > 0 -> y < 1")
        b = parse_formula("once[0, 500ms] x > 0 -> y < 1")
        assert a == b
        assert hash(a) == hash(b)

    def test_rule_roundtrip_through_pickle(self):
        rule = shared_gate_rules()[0]
        hash(rule.formula)
        clone = pickle.loads(pickle.dumps(rule))
        assert clone.effective_formula() == rule.effective_formula()
        report_a = Monitor([rule], period=PERIOD).check(busy_trace())
        report_b = Monitor([clone], period=PERIOD).check(busy_trace())
        assert report_a.to_dict() == report_b.to_dict()


class TestFilterContextReuse:
    def test_magnitude_filter_reuses_cached_expr(self):
        from repro.core.intent import MagnitudeFilter

        registry = MetricsRegistry()
        trace = uniform_trace(
            {"x": [1.0] * 10 + [-5.0] * 10 + [1.0] * 10}, period=PERIOD
        )
        rule = Rule.from_text(
            "r",
            "magnitude",
            "x > 0",
            filters=(MagnitudeFilter(parse_expr("x"), threshold=-10.0),),
        )
        with use_registry(registry):
            report = Monitor([rule], period=PERIOD).check(trace)
        counters = registry.snapshot()["counters"]
        # The filter re-evaluates ``x`` inside the same EvalContext the
        # rule used, so the expression comes straight from the cache.
        assert counters.get("eval.memo.expr.hits", 0) > 0
        assert report.letters() == {"r": "V"}
