"""E7 — §V-B: specification complexity vs monitoring cost.

The paper notes the simplicity/expressiveness trade-off "affects the
efficiency of the monitor", whose ultimate goal is to keep up with the
system in real time.  This bench measures the offline evaluator's
throughput (trace rows per second) as rule complexity grows, plus the
parser's cost — quantifying how much headroom the simple bounded logic
leaves over the vehicle's 50 Hz data rate.
"""

import math
import time

import pytest

from repro.core.evaluator import EvalContext, evaluate_formula
from repro.core.monitor import Monitor, Rule
from repro.core.parser import parse_formula
from repro.obs import MetricsRegistry, use_registry
from repro.rules.safety_rules import paper_rules
from tests.helpers import window_kernel

PROPOSITIONAL = "BrakeRequested -> RequestedDecel <= 0"
SHORT_WINDOW = (
    "Velocity > ACCSetSpeed -> eventually[0, 400ms] "
    "not rising(RequestedTorque)"
)
LONG_WINDOW = (
    "TargetRange / Velocity < 1.0 -> "
    "eventually[0, 5s] TargetRange / Velocity > 1.0"
)

#: Sampling period of the width sweep's trace (the fast message period).
SWEEP_PERIOD = 0.02

#: One gated rule body that six rules share, for the memo ablation.
SHARED_FORMULA = "x < 3.0 -> always[0, 2s] (x < 2.0 and eventually[0, 1s] y < 2.0)"


def make_monitor(formula: str) -> Monitor:
    return Monitor([Rule.from_text("r", "perf", formula, gate="ACCEnabled")])


@pytest.mark.parametrize(
    "label,formula",
    [
        ("propositional", PROPOSITIONAL),
        ("window-400ms", SHORT_WINDOW),
        ("window-5s", LONG_WINDOW),
    ],
)
def test_rule_complexity_throughput(benchmark, long_trace, label, formula):
    monitor = make_monitor(formula)
    view = long_trace.to_view(0.02, signals=monitor.required_signals())

    result = benchmark(monitor.check_view, view)

    rows = view.n_rows
    seconds = benchmark.stats["mean"]
    rows_per_second = rows / seconds
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["rows_per_second"] = round(rows_per_second)
    benchmark.extra_info["realtime_factor"] = round(rows_per_second / 50.0)
    # Even the widest window must beat the vehicle's 50 Hz data rate by
    # a wide margin (the premise of eventually monitoring online).
    assert rows_per_second > 50 * 20
    assert "r" in result.letters()


def test_full_rule_set_throughput(benchmark, long_trace, publish):
    monitor = Monitor(paper_rules())
    view = long_trace.to_view(0.02, signals=monitor.required_signals())
    benchmark(monitor.check_view, view)
    rows_per_second = view.n_rows / benchmark.stats["mean"]

    # One instrumented pass for the memoization counters (the timed
    # passes above run with the default no-op registry).
    registry = MetricsRegistry()
    with use_registry(registry):
        monitor.check_view(view)
    counters = registry.snapshot()["counters"]
    hits = counters.get("eval.memo.formula.hits", 0) + counters.get(
        "eval.memo.expr.hits", 0
    )
    misses = counters.get("eval.memo.formula.misses", 0) + counters.get(
        "eval.memo.expr.misses", 0
    )

    publish(
        "monitor_perf.txt",
        "\n".join(
            [
                "SECTION V-B: MONITORING COST (all 7 rules)",
                "%-36s %d" % ("trace rows", view.n_rows),
                "%-36s %.0f" % ("rows checked per second", rows_per_second),
                "%-36s %.0fx" % ("headroom over 50 Hz real time", rows_per_second / 50.0),
                "%-36s %d hits / %d misses (%.0f%%)"
                % (
                    "memoized subformula lookups",
                    hits,
                    misses,
                    100.0 * hits / (hits + misses) if hits + misses else 0.0,
                ),
            ]
        ),
    )
    assert rows_per_second > 50 * 10


def best_of(repeats: int, call) -> float:
    """Best-of-``repeats`` wall time of ``call()``, in seconds."""
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - started)
    return best


def width_rule(width_rows: int) -> Rule:
    # All four bounded operators over shared comparisons: the window
    # aggregation dominates (the comparisons are memoized), and both
    # the future and the past kernels are exercised.
    window = "%gms" % (width_rows * SWEEP_PERIOD * 1000.0)
    formula = (
        "(always[0, %(w)s] x < 2.0) and (eventually[0, %(w)s] y < 2.0) "
        "and (historically[0, %(w)s] x < 2.0) and (once[0, %(w)s] y < 2.0)"
        % {"w": window}
    )
    return Rule.from_text("w%d" % width_rows, "sweep", formula)


def test_window_width_sweep(benign_trace, publish):
    """E15: the O(n) block kernel against the O(n*w) strided reference
    per window width, plus the cross-rule memoization ablation."""
    rows = 15000
    trace = benign_trace(rows)
    lines = [
        "WINDOW KERNEL SWEEP (%d rows at %.0f ms)" % (rows, SWEEP_PERIOD * 1000),
        "",
        "%-12s %-9s %12s %16s" % ("width", "kernel", "seconds", "rows/second"),
    ]
    speedups = {}
    for width in (10, 100, 1000):
        monitor = Monitor([width_rule(width)], period=SWEEP_PERIOD)
        view = trace.to_view(SWEEP_PERIOD, signals=monitor.required_signals())
        seconds = {}
        for kernel in ("block", "strided"):
            with window_kernel(kernel):
                seconds[kernel] = best_of(3, lambda: monitor.check_view(view))
            lines.append(
                "%-12s %-9s %12.5f %16.0f"
                % ("%d rows" % width, kernel, seconds[kernel], rows / seconds[kernel])
            )
        speedups["w%d" % width] = seconds["strided"] / seconds["block"]

    # Six structurally equal rules, evaluated with and without the
    # per-context memo cache.
    view = trace.to_view(SWEEP_PERIOD, signals=("x", "y"))
    formulas = [parse_formula(SHARED_FORMULA) for _ in range(6)]
    memo_seconds = {}
    lines.append("")
    for memo in (True, False):

        def evaluate_all():
            ctx = EvalContext(view, memo=memo)
            for formula in formulas:
                evaluate_formula(formula, ctx)

        memo_seconds[memo] = best_of(3, evaluate_all)
        lines.append(
            "%-22s %12.5f %16.0f"
            % (
                "memo %s" % ("on" if memo else "off"),
                memo_seconds[memo],
                rows / memo_seconds[memo],
            )
        )
    speedups["memo"] = memo_seconds[False] / memo_seconds[True]

    lines.append("")
    for name in sorted(speedups):
        lines.append("speedup %-14s %.2fx" % (name, speedups[name]))
    publish("monitor_sweep.txt", "\n".join(lines))
    # The O(n) kernel must beat the O(n*w) reference by a wide margin at
    # the widest window — the point of the rewrite.
    assert speedups["w1000"] >= 5.0
    assert speedups["w100"] > 1.0
    # Memoizing the shared subformulas must pay for itself.
    assert speedups["memo"] > 1.2


def test_parser_cost(benchmark):
    # Parsing is an offline, per-rule cost; it just needs to be trivial
    # relative to evaluation.
    benchmark(parse_formula, LONG_WINDOW)
