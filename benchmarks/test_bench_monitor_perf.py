"""E7 — §V-B: specification complexity vs monitoring cost.

The paper notes the simplicity/expressiveness trade-off "affects the
efficiency of the monitor", whose ultimate goal is to keep up with the
system in real time.  The cost itself is a host timing and is measured
by the ``check`` workload of ``bench/run.py``; this artifact records the
deterministic side of it: how many trace rows one check of all seven
paper rules covers, and how many subformula evaluations the per-context
memo cache saves.
"""

from repro.core.monitor import Monitor
from repro.obs import MetricsRegistry, use_registry
from repro.rules.safety_rules import paper_rules


def test_full_rule_set_memo_counts(long_trace, publish):
    monitor = Monitor(paper_rules())
    view = long_trace.to_view(0.02, signals=monitor.required_signals())

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
