"""Campaign observability — counters, gauges, histograms, spans.

The instrumentation layer behind ``table1 --metrics-out`` and
``check --metrics-out``: hot paths report into the *currently installed*
:class:`MetricsRegistry` (a no-op by default), worker processes snapshot
their private registries, and snapshots merge associatively into one
campaign-level report.  See :mod:`repro.obs.metrics` for the instruments
and :data:`METRICS_SNAPSHOT` for the JSON snapshot format.  End-to-end
timing is not measured here: the repository's one benchmark harness is
``bench/run.py`` (workloads and per-layer breakdown in ``bench/README.md``).
"""

from repro.obs.metrics import (
    METRICS_SNAPSHOT,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    Span,
    get_registry,
    set_registry,
    use_registry,
)

__all__ = [
    "METRICS_SNAPSHOT",
    "SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "get_registry",
    "set_registry",
    "use_registry",
]
