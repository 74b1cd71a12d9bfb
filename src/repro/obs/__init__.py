"""Campaign observability — counters, gauges, histograms, spans.

The instrumentation layer behind ``table1 --metrics-out`` and
``check --metrics-out``: hot paths report into the *currently installed*
:class:`MetricsRegistry` (a no-op by default), worker processes snapshot
their private registries, and snapshots merge associatively into one
campaign-level report.  See :mod:`repro.obs.metrics` for the instruments
and :mod:`repro.obs.schema` for the JSON snapshot format.
"""

from repro.obs.bench import BENCH_SCHEMA_VERSION, bench_monitor, format_bench
from repro.obs.bench_online import (
    ONLINE_BENCH_SCHEMA_VERSION,
    bench_online,
    format_online_bench,
    require_valid_online_bench_snapshot,
    validate_online_bench_snapshot,
)
from repro.obs.bench_robustness import (
    ROBUSTNESS_BENCH_SCHEMA_VERSION,
    bench_robustness,
    format_robustness_bench,
    require_valid_robustness_bench_snapshot,
    validate_robustness_bench_snapshot,
)
from repro.obs.metrics import (
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
from repro.obs.schema import (
    require_valid_bench_snapshot,
    require_valid_snapshot,
    validate_bench_snapshot,
    validate_snapshot,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "ONLINE_BENCH_SCHEMA_VERSION",
    "ROBUSTNESS_BENCH_SCHEMA_VERSION",
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
    "bench_monitor",
    "bench_online",
    "bench_robustness",
    "format_bench",
    "format_online_bench",
    "format_robustness_bench",
    "require_valid_bench_snapshot",
    "require_valid_online_bench_snapshot",
    "require_valid_robustness_bench_snapshot",
    "require_valid_snapshot",
    "validate_bench_snapshot",
    "validate_online_bench_snapshot",
    "validate_robustness_bench_snapshot",
    "validate_snapshot",
]
