"""E4 — §V-C1 ablation: multi-rate sampling (naive vs freshness-aware).

``RequestedTorque`` broadcasts four times slower than the monitor's fast
sampling, with transmission jitter that occasionally exceeds one fast
period (the paper: jitter "would sometimes cause slower-period messages
to be delayed, resulting in five faster frequency message updates").  The paper observed that a naive
held-value difference makes a steadily increasing torque "appear to be
constant for three samples out of four", with jitter occasionally
stretching the gap to five fast samples.

This bench builds a jittered multi-rate trace with a *steadily
rising* slow signal and reports:

* the fraction of genuinely-rising rows the naive trend misses;
* the update-interval histogram (the 3/4/5 spread caused by jitter);
* the per-row disagreement between ``rising()`` under naive and
  freshness-aware differencing for a torque-trend rule.
"""

import numpy as np

from repro.core.monitor import Monitor, Rule
from repro.core.resampler import compare_trends, update_interval_histogram
from repro.logs.trace import Trace

FAST = 0.02
SLOW = 0.08
JITTER = 0.024
DURATION = 120.0


def jittered_ramp_trace(seed=2014) -> Trace:
    """Fast velocity plus a rising slow torque with arrival jitter."""
    rng = np.random.default_rng(seed)
    trace = Trace("multirate-ramp")
    steps = int(DURATION / FAST)
    for i in range(steps):
        trace.record("Velocity", i * FAST, 27.0)
    slow_steps = int(DURATION / SLOW)
    for i in range(slow_steps):
        timestamp = i * SLOW + float(rng.uniform(0.0, JITTER))
        trace.record("RequestedTorque", timestamp, 100.0 + 2.0 * i)
    return trace


def render(cmp, hist, naive_rows, fresh_rows) -> str:
    gap_counts = ", ".join(
        "%d rows: %d" % (gap, count)
        for gap, count in enumerate(hist)
        if count
    )
    return "\n".join(
        [
            "SECTION V-C1 ABLATION: MULTI-RATE SAMPLING",
            "slow signal rising on every update (ground truth: always rising)",
            "",
            "%-44s %d" % ("rows analysed", cmp.rows),
            "%-44s %d" % ("rows genuinely rising (freshness-aware)", cmp.fresh_rising_rows),
            "%-44s %d" % ("rows the naive difference calls rising", cmp.naive_rising_rows),
            "%-44s %d" % ("spurious 'constant' rows (naive artifact)", cmp.spurious_stall_rows),
            "%-44s %.0f%%" % ("fraction of trend missed by naive delta", 100 * cmp.stall_fraction),
            "%-44s %d" % ("max fast samples between slow updates", cmp.max_updates_between + 1),
            "%-44s %s" % ("update-interval histogram", gap_counts),
            "",
            "rule 'torque must keep rising' — rows satisfied:",
            "%-44s %d" % ("  with freshness-aware rising()", fresh_rows),
            "%-44s %d" % ("  with naive held-value differencing", naive_rows),
        ]
    )


def test_multirate_sampling_ablation(publish):
    trace = jittered_ramp_trace()
    view = trace.to_view(FAST)

    cmp = compare_trends(view, "RequestedTorque")
    hist = update_interval_histogram(view, "RequestedTorque")

    # A rule asserting the ramp is rising, under both trend semantics.
    fresh_rule = Rule.from_text(
        "fresh", "rising (fresh)", "rising(RequestedTorque)",
        initial_settle=0.5,
    )
    naive_rule = Rule.from_text(
        "naive", "rising (naive)", "delta_naive(RequestedTorque) > 0",
        initial_settle=0.5,
    )
    monitor = Monitor([fresh_rule, naive_rule])
    report = monitor.check(trace)
    fresh_result = report.result("fresh")
    naive_result = report.result("naive")
    fresh_ok = fresh_result.rows_total - sum(
        v.rows for v in fresh_result.violations
    )
    naive_ok = naive_result.rows_total - sum(
        v.rows for v in naive_result.violations
    )

    publish("multirate_ablation.txt", render(cmp, hist, naive_ok, fresh_ok))

    # The paper's numbers: naive misses ~3 of 4 rows of a steady trend.
    assert cmp.stall_fraction > 0.6
    # Jitter stretches some gaps to 5 fast samples (and shrinks some to 3).
    assert len(hist) > 5 and hist[5] > 0
    assert hist[3] > 0
    # The freshness-aware trend sees the ramp essentially everywhere.
    assert not fresh_result.violated or sum(
        v.rows for v in fresh_result.violations
    ) < 0.05 * fresh_result.rows_total
    # The naive trend misses most of it.
    assert sum(v.rows for v in naive_result.violations) > 0.5 * naive_result.rows_total
