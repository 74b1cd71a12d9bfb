"""E9 (extension) — online monitoring feasibility.

The paper monitored offline but argues nothing prevents runtime
monitoring.  This bench demonstrates it: the online monitor ingests a
live event stream the way a bus delivers it, one frame's events at a
time, with bounded memory, emits verdicts within a bounded decision
latency, and its results are identical to the offline check of the
same traffic.  Reported: worst-case decision latency, the buffer bound
and the offline equivalence.  Ingest speed is a host timing, measured
by the ``fleet`` workload of ``bench/run.py``.
"""

import numpy as np

from repro.core.monitor import Monitor
from repro.core.online import OnlineMonitor
from repro.rules.safety_rules import paper_rules


def render(latency, buffer_updates, equal) -> str:
    return "\n".join(
        [
            "EXTENSION: ONLINE (RUNTIME) MONITORING",
            "all 7 paper rules over a live bus-event stream",
            "",
            "%-44s %.2f s" % ("worst-case decision latency", latency),
            "%-44s %d updates" % ("bounded history buffer (peak)", buffer_updates),
            "%-44s %s" % ("verdicts identical to offline check", equal),
        ]
    )


def test_online_monitoring(long_trace, publish):
    times, signals, values = long_trace.event_columns()
    # A frame's signals share its timestamp: cut where the stamp changes.
    frames = [0, *(np.flatnonzero(times[1:] != times[:-1]) + 1).tolist(), len(times)]

    online = OnlineMonitor(paper_rules(), min_chunk_rows=100)
    for start, stop in zip(frames[:-1], frames[1:]):
        online.feed_block(times[start:stop], signals[start:stop], values[start:stop])
    report = online.finish()
    offline = Monitor(paper_rules()).check(long_trace)

    equal = offline.letters() == report.letters() and all(
        [(v.start_row, v.end_row) for v in offline.results[rid].violations]
        == [(v.start_row, v.end_row) for v in report.results[rid].violations]
        for rid in offline.letters()
    )
    buffer_peak = online._buffer.update_count()

    publish(
        "online_monitoring.txt",
        render(online.decision_latency, buffer_peak, equal),
    )

    assert equal
    # The rule set's widest window dominates the latency (rule #1's 5 s).
    assert 5.0 <= online.decision_latency <= 10.0
    # Memory is bounded by the retention window, not the stream length.
    assert buffer_peak < 0.05 * len(times)
