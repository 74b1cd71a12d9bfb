"""Fleet-scale online monitoring: many vehicle streams, one service.

The package turns the single-stream :class:`~repro.core.online.OnlineMonitor`
into a service: one bounded-memory monitor shard per vehicle stream
(:mod:`repro.fleet.shard`), asyncio ingestion with explicit backpressure
(:mod:`repro.fleet.service`), mergeable fleet-wide metric rollups
(:mod:`repro.fleet.rollup`, which also defines the format), a live
HTTP status endpoint (:mod:`repro.fleet.status`), and a log-replay driver
that fans a directory of drive logs across N streams
(:mod:`repro.fleet.replay`).
"""

from repro.fleet.replay import (
    assign_streams,
    load_log_directory,
    replay_traces,
    replay_traces_async,
)
from repro.fleet.rollup import FLEET_ROLLUP, FLEET_SCHEMA_VERSION, fleet_rollup
from repro.fleet.service import POLICIES, FleetReport, FleetService
from repro.fleet.shard import StreamShard

__all__ = [
    "FLEET_ROLLUP",
    "FLEET_SCHEMA_VERSION",
    "POLICIES",
    "FleetReport",
    "FleetService",
    "StreamShard",
    "assign_streams",
    "fleet_rollup",
    "load_log_directory",
    "replay_traces",
    "replay_traces_async",
]
