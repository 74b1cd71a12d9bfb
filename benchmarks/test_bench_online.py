"""E9 (extension) — online monitoring feasibility.

The paper monitored offline but argues nothing prevents runtime
monitoring.  This bench demonstrates it: the online monitor ingests a
live event stream the way a bus delivers it, one frame's events at a
time, with bounded memory, emits verdicts within a bounded decision
latency, and its results are identical to the offline check of the
same traffic.  Reported: event throughput versus the vehicle's actual
bus rate, worst-case decision latency, and buffer bound; and, for
comparison, the throughput of the same stream fed in 256-event blocks,
as a fleet worker feeds a drained batch.
"""

import time

import numpy as np

from repro.core.monitor import Monitor
from repro.core.online import OnlineMonitor
from repro.rules.safety_rules import paper_rules

#: Bus events per second on the FSRACC network (7 fast msgs * 50 Hz
#: signals + slow ones) — roughly, for the headroom computation.
BUS_EVENTS_PER_SECOND = 600.0


def render(throughput, block_throughput, latency, buffer_updates, equal) -> str:
    return "\n".join(
        [
            "EXTENSION: ONLINE (RUNTIME) MONITORING",
            "all 7 paper rules over a live bus-event stream",
            "",
            "%-44s %.0f events/s" % ("ingest throughput, one block per bus frame", throughput),
            "%-44s %.0fx" % ("headroom over the vehicle bus rate", throughput / BUS_EVENTS_PER_SECOND),
            "%-44s %.0f events/s" % ("ingest throughput, 256-event blocks", block_throughput),
            "%-44s %.2f s" % ("worst-case decision latency", latency),
            "%-44s %d updates" % ("bounded history buffer (peak)", buffer_updates),
            "%-44s %s" % ("verdicts identical to offline check", equal),
        ]
    )


#: Events per ingested block, as a fleet worker's batch.
BLOCK_EVENTS = 256


def feed_cuts(times, signals, values, cuts):
    """Stream the columns through a fresh monitor, one block between
    each pair of consecutive ``cuts``."""
    online = OnlineMonitor(paper_rules(), min_chunk_rows=100)
    for start, stop in zip(cuts[:-1], cuts[1:]):
        online.feed_block(times[start:stop], signals[start:stop], values[start:stop])
    return online


def test_online_monitoring(benchmark, long_trace, publish):
    times, signals, values = long_trace.event_columns()
    # A frame's signals share its timestamp: cut where the stamp changes.
    frames = [0, *(np.flatnonzero(times[1:] != times[:-1]) + 1).tolist(), len(times)]
    blocks = [*range(0, len(times), BLOCK_EVENTS), len(times)]

    online = benchmark(feed_cuts, times, signals, values, frames)
    block_seconds = []
    for _ in range(3):
        started = time.perf_counter()
        feed_cuts(times, signals, values, blocks)
        block_seconds.append(time.perf_counter() - started)
    report = online.finish()
    offline = Monitor(paper_rules()).check(long_trace)

    equal = offline.letters() == report.letters() and all(
        [(v.start_row, v.end_row) for v in offline.results[rid].violations]
        == [(v.start_row, v.end_row) for v in report.results[rid].violations]
        for rid in offline.letters()
    )
    throughput = len(times) / benchmark.stats["mean"]
    block_throughput = len(times) / min(block_seconds)
    buffer_peak = online._buffer.update_count()

    publish(
        "online_monitoring.txt",
        render(
            throughput, block_throughput, online.decision_latency, buffer_peak, equal
        ),
    )

    assert equal
    # Online monitoring must comfortably outrun the bus.
    assert throughput > 10 * BUS_EVENTS_PER_SECOND
    # The rule set's widest window dominates the latency (rule #1's 5 s).
    assert 5.0 <= online.decision_latency <= 10.0
    # Memory is bounded by the retention window, not the stream length.
    assert buffer_peak < 0.05 * len(times)
