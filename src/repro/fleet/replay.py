"""Fan stored vehicle logs across a fleet of monitor streams.

This is the batch entry point behind ``repro fleet replay``: take a
directory of trace files, assign each to a stream (cycling the traces
when more streams than logs are requested, as when load-testing the
service), and submit every stream's events through a
:class:`~repro.fleet.service.FleetService` as blocks.

Each stream's trace is turned into time-ordered event columns once
(:meth:`~repro.logs.trace.Trace.event_columns`) and cut into *slices*:
runs of at most ``batch_events`` consecutive events, so each covers a
stretch of that stream's time.  The slices of all streams are merged by
their first timestamp, which is what a real fleet gateway delivers:
blocks from different vehicles arrive shuffled together, and each
stream's worker must keep its own monitor consistent regardless of what
the other streams are doing.

A replay delivers as fast as the loop lets it, so what hands the loop to
the workers is the backpressure policy's business.  Under ``block`` a
full inbox makes the replay wait, and the wait is what lets the workers
drain.  Under ``drop`` nothing ever waits, so the replay yields after
every slice: the workers drain what it delivered, and only events that
do not fit in an inbox are dropped.
"""

from __future__ import annotations

import asyncio
import glob
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import DEFAULT_PERIOD, Rule
from repro.core.statemachine import StateMachine
from repro.errors import TraceError, count
from repro.fleet.service import Block, FleetReport, FleetService
from repro.logs.format import read_trace
from repro.logs.trace import Trace


def assign_streams(traces: Sequence[Trace], streams: int) -> List[Tuple[str, Trace]]:
    """Pair each of ``streams`` stream ids with a source trace.

    Traces are cycled when there are fewer logs than streams, so eight
    streams over six drive logs is fine; ids embed both the slot and the
    source log (``s03:emergency_brake``) to keep rollups readable.
    """
    streams = count("streams", streams)
    if not traces:
        raise TraceError("no traces to replay")
    return [
        ("s%02d:%s" % (slot, traces[slot % len(traces)].name or "trace"), traces[slot % len(traces)])
        for slot in range(streams)
    ]


def _stream_columns(
    assignments: Sequence[Tuple[str, Trace]]
) -> List[Tuple[str, Block]]:
    """Each stream's event columns, built once per distinct trace."""
    built: Dict[int, Block] = {}
    for _, trace in assignments:
        if id(trace) not in built:
            built[id(trace)] = trace.event_columns()
    return [(stream_id, built[id(trace)]) for stream_id, trace in assignments]


def _slices(
    streams: Sequence[Tuple[str, Block]], size: int
) -> List[Tuple[float, int, int]]:
    """``(first timestamp, stream slot, first event)`` of every run of at
    most ``size`` consecutive events of every stream, ordered by first
    timestamp (ties by slot)."""
    return sorted(
        (float(times[start]), slot, start)
        for slot, (_, (times, _, _)) in enumerate(streams)
        for start in range(0, len(times), size)
    )


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
        columns = _stream_columns(assign_streams(traces, streams))
        size = service.batch_events
        for _, slot, start in _slices(columns, size):
            stream_id, (times, signals, values) = columns[slot]
            stop = start + size
            await service.submit_block(
                stream_id, times[start:stop], signals[start:stop], values[start:stop]
            )
            if policy == "drop":
                await asyncio.sleep(0)
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

