"""The fleet monitoring service — many streams, one process.

A :class:`FleetService` runs one stateful
:class:`~repro.fleet.shard.StreamShard` per vehicle stream.  Ingestion is
asynchronous and block-wise: :meth:`FleetService.submit_block` enqueues
a block of events into the stream's **bounded inbox** (capacity counted
in events, not blocks) and a per-stream worker task drains the inbox in
batches of at most ``batch_events`` events, each fed to the shard's
online monitor as one block.  Monitor evaluation is CPU-bound and runs
inline on the event loop — batching is what keeps the interleave
efficient: each worker turn evaluates one batch (at most a few monitor
chunks) before yielding to the other streams.  :meth:`FleetService.submit`
is a one-event block.

Backpressure
------------

Inboxes are bounded (``inbox_events``); what happens when one fills is
the service's explicit, counted policy:

* ``"block"`` (default) — a submit enqueues what fits and awaits free
  space for the rest.  The await *is* the backpressure: a producer
  outrunning its stream's monitor is slowed to the monitor's pace.
  Each submit that had to wait increments ``fleet.backpressure_blocked``.
* ``"drop"`` — a submit enqueues what fits and drops the rest, counted
  in ``fleet.backpressure_dropped`` and in the stream's final report
  note.  The shard's monitor then simply never sees those events; for
  the monitor this is indistinguishable from frame loss on the bus.

Either way the service's memory stays bounded: per stream, at most
``inbox_events`` queued events plus the shard monitor's own
``max_buffer_rows``-bounded buffer.

A worker that fails (a stream's monitor rejects an event, say a signal
stepping back in time) stops its stream; the service keeps the error
and raises it from the next :meth:`~FleetService.submit_block`,
:meth:`~FleetService.submit` or :meth:`~FleetService.close`, so a
producer never waits on an inbox nobody drains.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.monitor import DEFAULT_PERIOD, MonitorReport, Rule
from repro.core.statemachine import StateMachine
from repro.errors import count, non_negative_seconds, positive_seconds
from repro.fleet.rollup import fleet_rollup
from repro.fleet.shard import StreamShard
from repro.obs import MetricsRegistry

#: Allowed backpressure policies.
POLICIES = ("block", "drop")

#: One event block: (times, signal names, values), equal-length columns.
Block = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _cut(block: Block, start: int, stop: Optional[int] = None) -> Block:
    times, signals, values = block
    return times[start:stop], signals[start:stop], values[start:stop]


class _Inbox:
    """One stream's bounded queue of event blocks, sized in events."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.blocks: Deque[Block] = deque()
        self.events = 0
        self.closed = False
        self.ready = asyncio.Event()  # set when blocks wait or closed
        self.space = asyncio.Event()  # set when events were taken

    def free(self) -> int:
        return self.capacity - self.events

    def put(self, block: Block) -> None:
        self.blocks.append(block)
        self.events += len(block[0])
        self.ready.set()

    def take(self, limit: int) -> Optional[Block]:
        """Up to ``limit`` queued events as one block (``None`` when
        nothing is queued), splitting the last block taken if needed."""
        pieces: List[Block] = []
        taken = 0
        while self.blocks and taken < limit:
            block = self.blocks.popleft()
            room = limit - taken
            if len(block[0]) > room:
                self.blocks.appendleft(_cut(block, room))
                block = _cut(block, 0, room)
            pieces.append(block)
            taken += len(block[0])
        if not pieces:
            return None
        self.events -= taken
        self.space.set()
        if len(pieces) == 1:
            return pieces[0]
        times, signals, values = zip(*pieces)
        return np.concatenate(times), np.concatenate(signals), np.concatenate(values)


@dataclass
class FleetReport:
    """Final state of a drained fleet: per-stream reports plus rollup."""

    reports: Dict[str, MonitorReport] = field(default_factory=dict)
    rollup: Dict[str, object] = field(default_factory=dict)

    def violated_streams(self) -> List[str]:
        """Stream ids with at least one post-filter violation."""
        return [
            stream_id
            for stream_id, report in self.reports.items()
            if report.violated_rules()
        ]

    def summary(self) -> str:
        """Per-stream table: events, chunks, peak buffer, letters."""
        fleet = self.rollup.get("fleet", {})
        lines = [
            "fleet: %d stream(s), %d event(s), %d chunk(s), %d violation(s)"
            % (
                fleet.get("streams", len(self.reports)),
                fleet.get("events", 0),
                fleet.get("chunks", 0),
                fleet.get("violations", 0),
            ),
            "%-28s %10s %8s %10s %8s  %s"
            % ("stream", "events", "chunks", "peak rows", "late", "letters"),
        ]
        streams = self.rollup.get("streams", {})
        for stream_id in sorted(streams):
            entry = streams[stream_id]
            letters = entry.get("letters") or {}
            lines.append(
                "%-28s %10d %8d %10d %8d  %s"
                % (
                    stream_id,
                    entry.get("events", 0),
                    entry.get("chunks", 0),
                    entry.get("peak_buffer_rows", 0),
                    entry.get("late_events", 0),
                    "".join(letters[rule_id] for rule_id in sorted(letters)),
                )
            )
        backpressure = fleet.get("backpressure", {})
        if backpressure.get("dropped") or backpressure.get("blocked"):
            lines.append(
                "backpressure: %d dropped, %d blocked submit(s)"
                % (backpressure.get("dropped", 0), backpressure.get("blocked", 0))
            )
        for stream_id in sorted(self.reports):
            for note in self.reports[stream_id].notes:
                lines.append("note [%s]: %s" % (stream_id, note))
        return "\n".join(lines)


class FleetService:
    """Sharded online monitoring over many concurrent streams.

    Create the service inside a running event loop (workers are spawned
    lazily per stream), ``await submit_block(...)`` for every block of a
    stream's bus events (or ``await submit(...)`` for one event), then
    ``await close()`` to drain the inboxes, flush every monitor, and get
    the :class:`FleetReport`.
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        machines: Sequence[StateMachine] = (),
        period: float = DEFAULT_PERIOD,
        min_chunk_rows: int = 50,
        retention: float = 1.0,
        inbox_events: int = 1024,
        policy: str = "block",
        batch_events: int = 256,
        robustness: bool = False,
        observability: bool = False,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                "backpressure policy must be one of %s, got %r"
                % ("/".join(POLICIES), policy)
            )
        self.rules = list(rules)
        self.machines = list(machines)
        self.period = positive_seconds("period", period)
        self.min_chunk_rows = count("min_chunk_rows", min_chunk_rows)
        self.retention = non_negative_seconds("retention", retention)
        self.inbox_events = count("inbox_events", inbox_events)
        self.policy = policy
        self.batch_events = count("batch_events", batch_events)
        #: Also stream per-rule robustness margins (each shard's rollup
        #: entry gains a ``margins`` block — see ``StreamShard.margins``).
        self.robustness = robustness
        #: Attach the automata pass's minimal-observable-set bandwidth
        #: hint to every shard (``StreamShard.observability_hint``).
        self.observability = observability
        #: Service-level instruments (submissions, backpressure, batches).
        self.registry = MetricsRegistry()
        self._shards: Dict[str, StreamShard] = {}
        self._inboxes: Dict[str, _Inbox] = {}
        self._workers: Dict[str, asyncio.Task] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        #: The first error a worker died of (re-raised to the producer).
        self._failure: Optional[Exception] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def shard(self, stream_id: str) -> StreamShard:
        """The shard for ``stream_id`` (created on first use)."""
        shard = self._shards.get(stream_id)
        if shard is None:
            shard = self._shards[stream_id] = StreamShard(
                stream_id,
                self.rules,
                machines=self.machines,
                period=self.period,
                min_chunk_rows=self.min_chunk_rows,
                retention=self.retention,
                robustness=self.robustness,
                observability=self.observability,
            )
            self.registry.counter("fleet.streams_opened").inc()
        return shard

    def _ensure_worker(self, stream_id: str) -> _Inbox:
        inbox = self._inboxes.get(stream_id)
        if inbox is None:
            self._loop = asyncio.get_running_loop()
            shard = self.shard(stream_id)
            inbox = self._inboxes[stream_id] = _Inbox(self.inbox_events)
            self._workers[stream_id] = self._loop.create_task(
                self._worker(inbox, shard)
            )
        return inbox

    def _raise_failure(self) -> None:
        if self._failure is not None:
            raise self._failure

    async def submit(
        self, stream_id: str, timestamp: float, signal: str, value: float
    ) -> None:
        """Enqueue one bus event for ``stream_id`` (a one-event block)."""
        await self.submit_block(stream_id, (timestamp,), (signal,), (value,))

    async def submit_block(
        self,
        stream_id: str,
        times: Sequence[float],
        signals: Sequence[str],
        values: Sequence[float],
    ) -> None:
        """Enqueue a block of ``stream_id``'s bus events, in arrival order.

        Applies the backpressure policy to the events that do not fit in
        the stream's inbox: ``block`` awaits space for them, ``drop``
        discards them (counted).  Raises a failed worker's error (see
        the module docstring).
        """
        self._raise_failure()
        if self._closed:
            raise RuntimeError("fleet service already closed")
        inbox = self._ensure_worker(stream_id)
        block: Block = (
            np.asarray(times, dtype=np.float64),
            np.asarray(signals, dtype=object),
            np.asarray(values, dtype=np.float64),
        )
        count = len(block[0])
        self.registry.counter("fleet.events_submitted").inc(count)
        waited = False
        while True:
            fits = min(inbox.free(), count)
            if fits:
                inbox.put(_cut(block, 0, fits))
                block, count = _cut(block, fits), count - fits
            if not count:
                return
            if self.policy == "drop":
                self.registry.counter("fleet.backpressure_dropped").inc(count)
                self._shards[stream_id].dropped += count
                return
            if not waited:
                waited = True
                self.registry.counter("fleet.backpressure_blocked").inc()
            inbox.space.clear()
            await inbox.space.wait()
            self._raise_failure()

    async def _worker(self, inbox: _Inbox, shard: StreamShard) -> None:
        """Drain one stream's inbox in batches until it is closed and
        empty; on a failure, keep the error and wake every producer."""
        try:
            while True:
                batch = inbox.take(self.batch_events)
                if batch is None:
                    if inbox.closed:
                        return
                    inbox.ready.clear()
                    await inbox.ready.wait()
                    continue
                shard.feed_batch(*batch)
                self.registry.counter("fleet.batches").inc()
                # Yield so the other streams' workers interleave fairly
                # even when this inbox never runs dry.
                await asyncio.sleep(0)
        except Exception as exc:
            # Whatever killed the worker is kept and re-raised to the
            # producer (never swallowed): a dead worker must not leave a
            # submit or close waiting on an inbox nobody drains.
            if self._failure is None:
                self._failure = exc
            for other in self._inboxes.values():
                other.space.set()

    # ------------------------------------------------------------------
    # Rollup / shutdown
    # ------------------------------------------------------------------

    def rollup(self) -> Dict[str, object]:
        """A live ``repro.fleet/v1`` rollup of every shard.

        Only safe from the service's own event loop thread; other
        threads (the status endpoint) must use
        :meth:`rollup_threadsafe`.
        """
        return fleet_rollup(self._shards.values(), self.registry)

    def rollup_threadsafe(self, timeout: float = 5.0) -> Dict[str, object]:
        """Build a rollup from any thread.

        Schedules the build on the service's event loop (between worker
        batches), so shard registries are never read mid-mutation.
        Falls back to a direct build when no loop is running (the
        service is idle or already closed).
        """
        loop = self._loop
        if loop is not None and loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self._rollup_async(), loop)
            return future.result(timeout=timeout)
        return self.rollup()

    async def _rollup_async(self) -> Dict[str, object]:
        return self.rollup()

    async def close(self) -> FleetReport:
        """Drain every inbox, flush every monitor, return the report.

        After a worker failure the other streams' workers are cancelled,
        not drained, and the failure is raised once they have stopped.
        """
        if self._closed:
            self._raise_failure()
            raise RuntimeError("fleet service already closed")
        self._closed = True
        if self._failure is None:
            for inbox in self._inboxes.values():
                inbox.closed = True
                inbox.ready.set()
            await asyncio.gather(*self._workers.values())
        if self._failure is not None:
            for worker in self._workers.values():
                worker.cancel()
            await asyncio.gather(*self._workers.values(), return_exceptions=True)
            raise self._failure
        reports = {
            stream_id: shard.finish()
            for stream_id, shard in sorted(self._shards.items())
        }
        return FleetReport(reports=reports, rollup=self.rollup())
