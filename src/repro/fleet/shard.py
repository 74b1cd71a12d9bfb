"""One vehicle stream's monitor shard.

A :class:`StreamShard` pairs a stateful
:class:`~repro.core.online.OnlineMonitor` with a *private*
:class:`~repro.obs.MetricsRegistry`: every hot-path instrument the online
monitor records (``online.chunks``, ``online.late_events``,
``online.buffer_peak_rows``, per-rule evaluation timings, ...) lands in
the shard's own registry, and the fleet rollup merges shard snapshots
with the same associative machinery the parallel campaign uses for
worker-process snapshots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.monitor import DEFAULT_PERIOD, MonitorReport, Rule
from repro.core.online import OnlineMonitor
from repro.core.statemachine import StateMachine
from repro.core.violations import Violation
from repro.obs import MetricsRegistry, use_registry

class StreamShard:
    """A single stream's online monitor plus its metrics registry."""

    def __init__(
        self,
        stream_id: str,
        rules: Sequence[Rule],
        machines: Sequence[StateMachine] = (),
        period: float = DEFAULT_PERIOD,
        min_chunk_rows: int = 50,
        retention: float = 1.0,
        robustness: bool = False,
        observability: bool = False,
    ) -> None:
        self.stream_id = stream_id
        self.registry = MetricsRegistry()
        self.robustness = robustness
        self.observability = observability
        self._rules = tuple(rules)
        self._machines = tuple(machines)
        self._period = period
        self._observability_hint: Optional[Dict[str, object]] = None
        self.monitor = OnlineMonitor(
            rules,
            machines=machines,
            period=period,
            min_chunk_rows=min_chunk_rows,
            retention=retention,
            robustness=robustness,
        )
        self.events = 0
        #: Events the service dropped before they reached this shard.
        self.dropped = 0
        self.live_violations: List[Violation] = []
        self.report: Optional[MonitorReport] = None

    def feed(self, timestamp: float, signal: str, value: float) -> List[Violation]:
        """Feed one event under this shard's registry."""
        return self.feed_batch((timestamp,), (signal,), (value,))

    def feed_batch(
        self,
        times: Sequence[float],
        signals: Sequence[str],
        values: Sequence[float],
    ) -> List[Violation]:
        """Feed a drained inbox batch, one event block, under one
        registry install (:meth:`OnlineMonitor.feed_block`)."""
        with use_registry(self.registry):
            fresh = self.monitor.feed_block(times, signals, values)
        self.events += len(times)
        self.live_violations.extend(fresh)
        return fresh

    def finish(self) -> MonitorReport:
        """Flush the monitor tail and keep the final report.

        Events the service dropped at a full inbox (``dropped``) are
        named in a report note: the verdicts cover only what arrived.
        """
        with use_registry(self.registry):
            self.report = self.monitor.finish(trace_name=self.stream_id)
        if self.dropped:
            self.report.notes.append(
                "fleet: %d event(s) dropped at a full inbox (backpressure "
                "policy 'drop'); the monitor never saw them" % self.dropped
            )
        return self.report

    # ------------------------------------------------------------------

    def _counter(self, name: str) -> int:
        counter = self.registry.counters.get(name)
        return counter.value if counter is not None else 0

    def margins(self) -> Optional[Dict[str, Dict[str, object]]]:
        """Per-rule JSON-safe margin bounds, or ``None`` when the shard
        monitors boolean-only (``robustness=False``).

        Mid-stream the lower bound is ``-inf`` (future rows can be
        arbitrarily violating); after :meth:`finish` the interval equals
        the offline check's rule-level margin.
        """
        if not self.robustness:
            return None
        from repro.core.robustness import float_to_json

        return {
            rule_id: {
                "lower": float_to_json(lower),
                "upper": float_to_json(upper),
            }
            for rule_id, (lower, upper) in sorted(
                self.monitor.robustness_intervals().items()
            )
        }

    def observability_hint(self) -> Optional[Dict[str, object]]:
        """Per-stream bandwidth hint from the symbolic automata pass, or
        ``None`` when the shard was built with ``observability=False``.

        A signal is *droppable* only when every rule on the shard can do
        without it — the per-rule minimal observable sets are unioned
        over the stream's rule set, and any rule the automata pass
        cannot compile conservatively requires all of its signals.
        Computed once (static analysis of the rule set, not of the
        traffic) and cached.
        """
        if not self.observability:
            return None
        if self._observability_hint is None:
            from repro.analysis.automata import compile_rule

            referenced: set = set()
            required: set = set()
            for rule in self._rules:
                compiled = compile_rule(
                    rule, machines=self._machines, period=self._period
                )
                if compiled.observability is None:
                    names = set(rule.signals())
                    referenced |= names
                    required |= names
                else:
                    referenced |= set(compiled.observability.referenced)
                    required |= set(compiled.observability.required)
            droppable = sorted(referenced - required)
            self._observability_hint = {
                "referenced": sorted(referenced),
                "required": sorted(required),
                "droppable": droppable,
                "bandwidth_hint": (
                    len(droppable) / len(referenced) if referenced else 0.0
                ),
            }
        return self._observability_hint

    def snapshot(self) -> Dict[str, object]:
        """This stream's entry in the ``repro.fleet/v1`` rollup."""
        if self.report is not None:
            violations = self.report.violation_count()
            letters: Optional[Dict[str, str]] = self.report.letters()
        else:
            violations = len(self.live_violations)
            letters = None
        return {
            "stream": self.stream_id,
            "events": self.events,
            "chunks": self._counter("online.chunks"),
            "rows_emitted": self._counter("online.rows_emitted"),
            "violations": violations,
            "late_events": self.monitor.late_events,
            "emit_waits": self.monitor.emit_waits,
            "peak_buffer_rows": self.monitor.peak_buffer_rows,
            "max_buffer_rows": self.monitor.max_buffer_rows,
            "decision_latency": self.monitor.decision_latency,
            "finished": self.report is not None,
            "letters": letters,
            "margins": self.margins(),
            "observability": self.observability_hint(),
            "metrics": self.registry.snapshot(),
        }
