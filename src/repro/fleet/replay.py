"""Fan stored vehicle logs across a fleet of monitor streams.

This is the batch entry point behind ``repro fleet replay``: take a
directory of trace files, assign each to a stream (cycling the traces
when more streams than logs are requested, as when load-testing the
service), and submit every event through a
:class:`~repro.fleet.service.FleetService` in global timestamp order.
The time-ordered interleave is what a real fleet gateway would deliver:
events from different vehicles arrive shuffled together, and each
stream's worker must keep its own monitor consistent regardless of what
the other streams are doing.
"""

from __future__ import annotations

import asyncio
import glob
import heapq
import os
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.monitor import DEFAULT_PERIOD, Rule
from repro.core.statemachine import StateMachine
from repro.errors import TraceError
from repro.fleet.service import FleetReport, FleetService
from repro.logs.format import read_trace
from repro.logs.trace import Trace

#: One fleet event: (timestamp, stream id, signal, value).
FleetEvent = Tuple[float, str, str, float]


def assign_streams(traces: Sequence[Trace], streams: int) -> List[Tuple[str, Trace]]:
    """Pair each of ``streams`` stream ids with a source trace.

    Traces are cycled when there are fewer logs than streams, so eight
    streams over six drive logs is fine; ids embed both the slot and the
    source log (``s03:emergency_brake``) to keep rollups readable.
    """
    if streams < 1:
        raise TraceError("need at least one stream, got %d" % streams)
    if not traces:
        raise TraceError("no traces to replay")
    return [
        ("s%02d:%s" % (slot, traces[slot % len(traces)].name or "trace"), traces[slot % len(traces)])
        for slot in range(streams)
    ]


def _stream_feed(stream_id: str, trace: Trace) -> Iterator[FleetEvent]:
    for timestamp, signal, value in trace.events():
        yield (timestamp, stream_id, signal, value)


def interleave(assignments: Sequence[Tuple[str, Trace]]) -> Iterator[FleetEvent]:
    """Merge per-stream event iterators into one time-ordered feed."""
    feeds = [_stream_feed(stream_id, trace) for stream_id, trace in assignments]
    return heapq.merge(*feeds, key=lambda event: event[0])


async def replay_traces_async(
    traces: Sequence[Trace],
    rules: Sequence[Rule],
    machines: Sequence[StateMachine] = (),
    streams: int = 8,
    period: float = DEFAULT_PERIOD,
    min_chunk_rows: int = 50,
    retention: float = 1.0,
    inbox_events: int = 1024,
    policy: str = "block",
    status_port: Optional[int] = None,
    robustness: bool = False,
    observability: bool = False,
) -> FleetReport:
    """Replay ``traces`` across ``streams`` monitor streams.

    Optionally serves live rollups on ``status_port`` for the duration
    of the replay (0 binds an ephemeral port).
    """
    service = FleetService(
        rules,
        machines=machines,
        period=period,
        min_chunk_rows=min_chunk_rows,
        retention=retention,
        inbox_events=inbox_events,
        policy=policy,
        robustness=robustness,
        observability=observability,
    )
    status = None
    if status_port is not None:
        from repro.fleet.status import StatusServer

        status = StatusServer(service, port=status_port).start()
    try:
        for timestamp, stream_id, signal, value in interleave(
            assign_streams(traces, streams)
        ):
            await service.submit(stream_id, timestamp, signal, value)
        return await service.close()
    finally:
        if status is not None:
            status.stop()


def replay_traces(traces: Sequence[Trace], rules: Sequence[Rule], **kwargs: object) -> FleetReport:
    """Synchronous wrapper around :func:`replay_traces_async`."""
    return asyncio.run(replay_traces_async(traces, rules, **kwargs))


def load_log_directory(path: str, pattern: str = "*.csv") -> List[Trace]:
    """Read every trace file in ``path`` matching ``pattern``, sorted."""
    files = sorted(glob.glob(os.path.join(path, pattern)))
    if not files:
        raise TraceError(
            "no %r trace files under %s" % (pattern, path)
        )
    traces = []
    for filename in files:
        trace = read_trace(filename)
        if not trace.name:
            trace.name = os.path.splitext(os.path.basename(filename))[0]
        traces.append(trace)
    return traces

