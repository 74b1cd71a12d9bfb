"""Fleet-wide metrics rollup and its ``repro.fleet/v1`` format.

Each :class:`~repro.fleet.shard.StreamShard` snapshots its private
registry; :func:`fleet_rollup` merges those snapshots (plus the
service's own backpressure counters) with
:meth:`~repro.obs.MetricsRegistry.merge_snapshot` — the associative,
order-independent merge the parallel campaign already relies on — and
wraps them in one JSON object of per-stream entries and fleet totals,
laid out by :data:`FLEET_ROLLUP`.

Per-stream ``margins`` is null unless the shard runs with
``robustness=True``; bounds are JSON-safe floats (``"-inf"``/``"inf"``
strings for the infinities, per ``repro.core.robustness.float_to_json``)
with ``lower <= upper``.  The fleet-level block is the per-rule
pointwise minimum over reporting streams — the fleet's worst margin.

Per-stream ``observability`` is null unless the shard runs with
``observability=True``: the symbolic automata pass's minimal
observable-signal set unioned over the shard's rules
(``required`` and ``droppable`` partition ``referenced``;
``bandwidth_hint`` is the droppable fraction).  The fleet-level block
unions the reporting streams — a signal is fleet-droppable only when no
stream requires it.

Per-stream ``metrics`` are full ``repro.obs/v1`` snapshots; the
fleet-level ``metrics`` object is their associative merge plus the
service's own counters, so totals are independent of the order streams
were rolled up in.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional

from repro.fleet.shard import StreamShard
from repro.obs import METRICS_SNAPSHOT, MetricsRegistry
from repro.schema import (
    array,
    boolean,
    bounds_ordered,
    const,
    count,
    fraction,
    mapping,
    margin_bound,
    nullable,
    obj,
    one_of,
    partitions,
    positive,
    string,
)

#: Rollup format identifier; bump when the JSON layout changes.
FLEET_SCHEMA_VERSION = "repro.fleet/v1"


def _merged_counter(registry: MetricsRegistry, name: str) -> int:
    counter = registry.counters.get(name)
    return counter.value if counter is not None else 0


def _fleet_margins(
    shards: Iterable[StreamShard],
) -> Optional[Dict[str, Dict[str, object]]]:
    """Fleet-wide per-rule worst margin: the pointwise minimum of every
    robustness-enabled shard's interval (order-independent).  ``None``
    when no shard streams margins."""
    from repro.core.robustness import float_to_json

    worst: Dict[str, Dict[str, float]] = {}
    for shard in shards:
        for rule_id, (lower, upper) in shard.monitor.robustness_intervals().items():
            entry = worst.setdefault(
                rule_id, {"lower": math.inf, "upper": math.inf}
            )
            entry["lower"] = min(entry["lower"], lower)
            entry["upper"] = min(entry["upper"], upper)
    if not worst:
        return None
    return {
        rule_id: {
            "lower": float_to_json(entry["lower"]),
            "upper": float_to_json(entry["upper"]),
        }
        for rule_id, entry in sorted(worst.items())
    }


def _fleet_observability(
    entries: Iterable[Dict[str, object]],
) -> Optional[Dict[str, object]]:
    """Fleet-wide bandwidth hint: a signal is droppable only when *no*
    reporting stream requires it (order-independent union).  ``None``
    when no shard runs the observability pass."""
    referenced: set = set()
    required: set = set()
    reporting = False
    for entry in entries:
        block = entry.get("observability")
        if block is None:
            continue
        reporting = True
        referenced |= set(block["referenced"])
        required |= set(block["required"])
    if not reporting:
        return None
    droppable = sorted(referenced - required)
    return {
        "referenced": sorted(referenced),
        "required": sorted(required),
        "droppable": droppable,
        "bandwidth_hint": (
            len(droppable) / len(referenced) if referenced else 0.0
        ),
    }


def fleet_rollup(
    shards: Iterable[StreamShard],
    service_registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Build a ``repro.fleet/v1`` rollup over ``shards``.

    ``service_registry`` carries service-level instruments (submission
    and backpressure counters); its snapshot is folded into the
    fleet-level ``metrics`` object alongside every shard's.
    """
    streams: Dict[str, object] = {}
    merged = MetricsRegistry()
    events = violations = late = peak = 0
    margin_shards = []
    for shard in shards:
        entry = shard.snapshot()
        streams[shard.stream_id] = entry
        merged.merge_snapshot(entry["metrics"])
        events += entry["events"]
        violations += entry["violations"]
        late += entry["late_events"]
        peak = max(peak, entry["peak_buffer_rows"])
        if entry["margins"] is not None:
            margin_shards.append(shard)
    if service_registry is not None:
        merged.merge_snapshot(service_registry.snapshot())
    return {
        "schema": FLEET_SCHEMA_VERSION,
        "streams": streams,
        "fleet": {
            "streams": len(streams),
            "events": events,
            "chunks": _merged_counter(merged, "online.chunks"),
            "violations": violations,
            "late_events": late,
            "peak_buffer_rows": peak,
            "margins": _fleet_margins(margin_shards),
            "observability": _fleet_observability(streams.values()),
            "backpressure": {
                "dropped": _merged_counter(merged, "fleet.backpressure_dropped"),
                "blocked": _merged_counter(merged, "fleet.backpressure_blocked"),
            },
            "metrics": merged.snapshot(),
        },
    }


def _streams_echo_keys(rollup: Dict[str, Any]) -> List[str]:
    """Rule: each stream entry's ``stream`` field echoes its key."""
    return [
        "streams.%s.stream is %r (must echo its key)" % (key, entry["stream"])
        for key, entry in rollup["streams"].items()
        if entry["stream"] != key
    ]


def _fleet_counts_streams(rollup: Dict[str, Any]) -> List[str]:
    """Rule: ``fleet.streams`` is the number of stream entries."""
    declared, present = rollup["fleet"]["streams"], len(rollup["streams"])
    if declared == present:
        return []
    return [
        "fleet.streams is %d but %d stream entries are present"
        % (declared, present)
    ]


_MARGINS = nullable(
    mapping(
        obj({"lower": margin_bound, "upper": margin_bound}, bounds_ordered),
        key=string,
    )
)

_OBSERVABILITY = nullable(
    obj(
        {
            "referenced": array(string),
            "required": array(string),
            "droppable": array(string),
            "bandwidth_hint": fraction,
        },
        partitions("referenced", "required", "droppable"),
    )
)

#: The ``repro.fleet/v1`` shape, for :func:`repro.schema.validate`.
FLEET_ROLLUP = obj(
    {
        "schema": const(FLEET_SCHEMA_VERSION),
        "streams": mapping(
            obj(
                {
                    "stream": string,
                    "events": count,  # events fed to the shard
                    "chunks": count,  # chunk emissions so far
                    "rows_emitted": count,
                    "violations": count,
                    "late_events": count,  # dropped behind the frontier
                    "emit_waits": count,  # emissions deferred, signals missing
                    "peak_buffer_rows": count,  # fullest per-signal buffer
                    "max_buffer_rows": count,  # the bounded-memory invariant
                    "decision_latency": positive,  # worst verdict delay, s
                    "finished": boolean,
                    # Null while the stream is live.
                    "letters": nullable(mapping(one_of("S", "V"), key=string)),
                    "margins": _MARGINS,
                    "observability": _OBSERVABILITY,
                    "metrics": METRICS_SNAPSHOT,
                }
            )
        ),
        "fleet": obj(
            {
                "streams": count,
                "events": count,
                "chunks": count,
                "violations": count,
                "late_events": count,
                "peak_buffer_rows": count,  # max over streams
                "margins": _MARGINS,  # per-rule pointwise min over streams
                "observability": _OBSERVABILITY,  # union over streams
                "backpressure": obj({"dropped": count, "blocked": count}),
                "metrics": METRICS_SNAPSHOT,  # all shards + service, merged
            }
        ),
    },
    _streams_echo_keys,
    _fleet_counts_streams,
    name="fleet rollup",
)
