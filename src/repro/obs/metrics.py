"""Zero-dependency metrics: counters, gauges, streaming histograms, spans.

The observability layer the campaign and monitor hot paths report into.
Three design constraints shape everything here:

* **off-hot-path cheap** — a disabled registry hands out shared no-op
  instruments, so instrumented code pays one attribute check when
  metrics are off;
* **mergeable** — histograms use fixed log-scale buckets, so merging
  two snapshots is bucket-count addition: associative, commutative, and
  order-independent across worker processes;
* **deterministic content** — instruments never touch RNG state or
  control flow, so enabling metrics cannot perturb campaign letters.

Quantiles (p50/p95) are read from the bucket boundaries, which makes
them merge-stable: merging snapshots A and B then asking for p95 gives
the same answer regardless of merge order.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.schema import const, count, leaf, mapping, number, obj

#: Snapshot format identifier; bump when the JSON layout changes.
SCHEMA_VERSION = "repro.obs/v1"


def _is_index(key: Any) -> bool:
    try:
        int(key)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _buckets_sum_to_count(histogram: Dict[str, Any]) -> List[str]:
    """Rule: a histogram's bucket counts add up to its ``count``."""
    total = sum(histogram["buckets"].values())
    if total == histogram["count"]:
        return []
    return [
        "bucket counts sum to %d but 'count' is %d" % (total, histogram["count"])
    ]


#: The ``repro.obs/v1`` shape, for :func:`repro.schema.validate`.
METRICS_SNAPSHOT = obj(
    {
        "schema": const(SCHEMA_VERSION),
        "counters": mapping(count),
        "gauges": mapping(obj({"value": number, "updates": count})),
        "histograms": mapping(
            obj(
                {
                    "count": count,
                    "sum": number,
                    "min": number,
                    "max": number,
                    "buckets": mapping(
                        count, key=leaf(_is_index, "an integer bucket index")
                    ),
                },
                _buckets_sum_to_count,
            )
        ),
    },
    name="metrics snapshot",
)

#: Histogram bucket resolution: boundaries at powers of this base
#: (10 buckets per decade — ~26% relative quantile error, plenty for
#: "which rule dominates" questions while keeping snapshots small).
_BUCKET_BASE = 10.0 ** 0.1
_LOG_BASE = math.log(_BUCKET_BASE)

#: Bucket index reserved for zero and negative observations.
_UNDERFLOW = -(10 ** 6)


def _bucket_index(value: float) -> int:
    """The log-scale bucket holding ``value``.

    Bucket ``i`` covers ``(base**i, base**(i+1)]``; zero and negative
    values share a single underflow bucket so durations of 0.0 (clock
    granularity) stay countable.
    """
    if value <= 0.0 or math.isnan(value):
        return _UNDERFLOW
    if math.isinf(value):
        return 10 ** 6
    # ceil(log_base(v)) - 1 puts exact boundaries in the lower bucket.
    return int(math.ceil(math.log(value) / _LOG_BASE - 1e-12)) - 1


def _bucket_upper(index: int) -> float:
    """Upper boundary of bucket ``index`` (0.0 for the underflow bucket)."""
    if index == _UNDERFLOW:
        return 0.0
    return _BUCKET_BASE ** (index + 1)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount


class Gauge:
    """A last-value-wins measurement (e.g. buffer size right now)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)
        self.updates += 1


class Histogram:
    """A streaming distribution with mergeable log-scale buckets."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = _bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1), read from bucket boundaries.

        Returns the upper boundary of the bucket containing the q-th
        observation, clamped to the exact observed maximum — so the
        answer is identical however the histogram was merged together.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % q)
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                return min(_bucket_upper(index), self.max)
        return self.max

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        """95th-percentile estimate."""
        return self.percentile(0.95)

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram.

        Pure bucket addition — associative and commutative, so
        per-worker histograms can be merged in any completion order.
        """
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count


class Span:
    """A wall-time span: context manager *and* decorator.

    Entering starts the clock; exiting records the elapsed seconds into
    the registry histogram ``<name>.seconds``.  Spans nest: the registry
    keeps a stack, and :attr:`path` exposes the full ``outer/inner``
    location of the innermost active span (recorded under
    ``<name>.seconds`` regardless of nesting, so merged reports keep
    stable keys).
    """

    __slots__ = ("registry", "name", "_started")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self.registry = registry
        self.name = name
        self._started = 0.0

    def __enter__(self) -> "Span":
        self.registry._span_stack.append(self.name)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._started
        stack = self.registry._span_stack
        if stack and stack[-1] == self.name:
            stack.pop()
        self.registry.histogram(self.name + ".seconds").observe(elapsed)

    @property
    def path(self) -> str:
        """``outer/inner`` path of the active span stack."""
        return "/".join(self.registry._span_stack)

    def __call__(self, func: Callable) -> Callable:
        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object) -> object:
            with self.registry.span(self.name):
                return func(*args, **kwargs)

        return wrapper


class _NullInstrument:
    """Shared no-op counter/gauge/histogram/span for disabled registries."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def __call__(self, func: Callable) -> Callable:
        return func


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments plus snapshot/merge/summary plumbing.

    Instruments are created on first use and live for the registry's
    lifetime; asking for the same name twice returns the same object.
    A registry constructed with ``enabled=False`` hands out one shared
    no-op instrument, making instrumented code effectively free.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._span_stack: List[str] = []

    # -- instruments ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``."""
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``."""
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    def span(self, name: str) -> Span:
        """A wall-time span recording into ``<name>.seconds``."""
        if not self.enabled:
            return _NULL_INSTRUMENT  # type: ignore[return-value]
        return Span(self, name)

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A JSON-serializable dump of every instrument.

        The format is :data:`METRICS_SNAPSHOT`; bucket indices become
        string keys because JSON objects require them.
        """
        return {
            "schema": SCHEMA_VERSION,
            "counters": {
                name: counter.value
                for name, counter in sorted(self.counters.items())
            },
            "gauges": {
                name: {"value": gauge.value, "updates": gauge.updates}
                for name, gauge in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "count": histogram.count,
                    "sum": histogram.total,
                    "min": histogram.min if histogram.count else 0.0,
                    "max": histogram.max if histogram.count else 0.0,
                    "buckets": {
                        str(index): count
                        for index, count in sorted(histogram.buckets.items())
                    },
                }
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold a snapshot (e.g. from a worker process) into this registry.

        Counters add, gauges keep the incoming value (last writer wins,
        with update counts summed), histograms merge bucket-wise.  The
        operation is associative, so any merge order over a set of
        worker snapshots yields identical totals.  A disabled registry
        checks the schema and merges nothing.
        """
        if snapshot.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                "cannot merge snapshot with schema %r (expected %r)"
                % (snapshot.get("schema"), SCHEMA_VERSION)
            )
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, dump in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.value = float(dump["value"])
            gauge.updates += int(dump["updates"])
        for name, dump in snapshot.get("histograms", {}).items():
            incoming = Histogram(name)
            incoming.count = int(dump["count"])
            incoming.total = float(dump["sum"])
            if incoming.count:
                incoming.min = float(dump["min"])
                incoming.max = float(dump["max"])
            incoming.buckets = {
                int(index): int(count)
                for index, count in dump.get("buckets", {}).items()
            }
            self.histogram(name).merge(incoming)

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from a snapshot dump."""
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    # -- reporting -----------------------------------------------------

    def summary(self) -> str:
        """A human-readable table of every instrument.

        Histograms print count / mean / p50 / p95 / max; durations
        (names ending ``.seconds``) are scaled to milliseconds.
        """
        lines: List[str] = []
        if self.counters:
            lines.append("counters:")
            for name, counter in sorted(self.counters.items()):
                lines.append("  %-44s %12d" % (name, counter.value))
        if self.gauges:
            lines.append("gauges:")
            for name, gauge in sorted(self.gauges.items()):
                lines.append("  %-44s %12g" % (name, gauge.value))
        if self.histograms:
            lines.append(
                "histograms:%33s %8s %8s %8s %8s"
                % ("count", "mean", "p50", "p95", "max")
            )
            for name, histogram in sorted(self.histograms.items()):
                scale = 1000.0 if name.endswith(".seconds") else 1.0
                label = name[: -len(".seconds")] + " (ms)" if scale != 1.0 else name
                lines.append(
                    "  %-35s %8d %8.3g %8.3g %8.3g %8.3g"
                    % (
                        label,
                        histogram.count,
                        histogram.mean * scale,
                        histogram.p50 * scale,
                        histogram.p95 * scale,
                        (histogram.max if histogram.count else 0.0) * scale,
                    )
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


class NullRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op."""

    def __init__(self) -> None:
        super().__init__(enabled=False)


#: Process-wide default: metrics are off until someone installs a
#: registry (see :func:`use_registry`).
NULL_REGISTRY = NullRegistry()

_CURRENT: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The currently installed registry (the no-op one by default)."""
    return _CURRENT


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` (``None`` restores the no-op); returns the old one."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = registry if registry is not None else NULL_REGISTRY
    return previous


class use_registry:
    """Context manager installing a registry for a ``with`` block.

    >>> registry = MetricsRegistry()
    >>> with use_registry(registry):
    ...     run_campaign()
    >>> print(registry.summary())
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info: object) -> None:
        set_registry(self._previous)
