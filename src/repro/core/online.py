"""Online (incremental) monitoring.

The paper performed all monitoring offline but notes "there is no
fundamental reason the monitoring could not be done at runtime".  This
module is that runtime path: an :class:`OnlineMonitor` consumes bus
events as they arrive, in blocks (:meth:`OnlineMonitor.feed_block`; a
single event is a one-event block), holds only a bounded window of
history, and emits verdicts as soon as they are decidable.

How it works
------------

Verdicts of bounded temporal formulas depend on a *finite* future: a row
is decidable once the stream has advanced past the rule set's maximum
:func:`~repro.core.evaluator.future_reach`.  The monitor therefore
buffers events into a rolling trace and, whenever enough new decidable
rows have accumulated (or on :meth:`finish`), evaluates a chunk:

* the chunk's view includes a *history margin* behind the emission
  window, so past-looking constructs (``prev``, freshness-aware
  ``delta``/``rate``, warm-up triggers) see the same context they would
  offline;
* state machines resume from their saved state at the history margin's
  first row, so modal state is continuous across chunks;
* only rows whose temporal windows are complete inside the chunk are
  emitted (the tail is re-evaluated next chunk);
* the emitted rows go through the offline monitor's own row checker,
  :func:`~repro.core.monitor.check_rows` (mask, violation extraction,
  intent filters, robustness bounds and violation depths), and each
  chunk's :class:`~repro.core.monitor.RuleResult` is folded into a
  running one: row counts add, violation runs split by a chunk boundary
  join (the joined depth is the deeper segment's), the margin bounds
  take their running minimum, and :meth:`OnlineMonitor.finish` applies
  the offline verdict rule.  One row checker, two callers — so emitted
  verdicts, row counts, violation spans and depths are **identical to
  the offline monitor's** for filter-free rules, a property the test
  suite checks exhaustively.

Bounded memory
--------------

Buffered events live in a :class:`~repro.logs.trace.Trace` — the same
store an offline log is read into: per-signal float64 columns with
O(1)-amortized appends, trimmed behind an advancing retention
frontier — so feeding is O(1) amortized per event and
per-signal buffer occupancy is **provably bounded**: after every chunk the monitor asserts
that no signal buffers more than ``history_rows + horizon_rows +
min_chunk_rows`` rows, however long the stream runs (see
:attr:`OnlineMonitor.max_buffer_rows`).

Three documented deviations from offline semantics:

* intent filters are applied per emitted violation segment; a violation
  that straddles a chunk boundary is filtered piecewise (its witness
  columns are re-joined when the segments coalesce, so the merged
  record's evidence covers its whole span);
* events older than the retention window are discarded, so the monitor's
  memory is O(retention), not O(trace);
* a **late event** — one timestamped before the retention frontier, i.e.
  for a row whose history has already been trimmed — is *dropped* and
  counted in ``online.late_events`` (and
  :attr:`OnlineMonitor.late_events`) rather than raising mid-stream: the
  offline monitor would have seen it, but a bounded-memory monitor by
  construction cannot re-evaluate rows it has discarded.  Events at or
  after the frontier must still be per-signal time-ordered, exactly as
  offline recording requires.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluator import (
    EvalContext,
    evaluate_formula,
    future_reach,
    past_reach,
)
from repro.core.monitor import (
    DEFAULT_PERIOD,
    Monitor,
    MonitorReport,
    Rule,
    RuleResult,
    _detect_near_miss,
    check_rows,
    rule_verdict,
)
from repro.core.robustness import RuleRobustness
from repro.core.statemachine import StateMachine
from repro.core.types import Verdict
from repro.core.violations import Violation
from repro.errors import TraceError, count, non_negative_seconds, non_negative_threshold
from repro.logs.trace import Trace, non_finite_time
from repro.obs import get_registry


#: Most events :meth:`OnlineMonitor.feed_block` scans at once, so a long
#: block costs O(block) however many chunks it triggers.
_SCAN_EVENTS = 4096


class OnlineMonitor:
    """Streaming monitor with bounded memory and prompt verdicts.

    Args:
        rules: the rule set (same objects the offline monitor takes).
        machines: mode state machines referenced by the rules.
        period: monitor sampling period, seconds.
        min_chunk_rows: emit only once this many new rows are decidable
            (batches the vectorized evaluation; latency is bounded by
            ``future_reach + min_chunk_rows * period``).
        retention: seconds of history kept behind the emission frontier.
            Automatically raised to cover warm-up durations, the initial
            settle windows, and a couple of slow message periods.
        robustness: also stream quantitative margins: each emitted
            chunk tightens a per-rule ``[lower, upper]`` interval (see
            :meth:`robustness_intervals`) that always brackets the
            offline margin and collapses to it at :meth:`finish`.
        near_miss_threshold: flag passing rules whose final margin is
            at most this (implies ``robustness``).
    """

    def __init__(
        self,
        rules: Sequence[Rule],
        machines: Sequence[StateMachine] = (),
        period: float = DEFAULT_PERIOD,
        min_chunk_rows: int = 50,
        retention: float = 1.0,
        robustness: bool = False,
        near_miss_threshold: Optional[float] = None,
    ) -> None:
        min_chunk_rows = count("min_chunk_rows", min_chunk_rows)
        retention = non_negative_seconds("retention", retention)
        # Reuse the offline monitor's validation and signal bookkeeping.
        self._offline = Monitor(rules, machines=machines, period=period)
        self.rules = self._offline.rules
        self.machines = self._offline.machines
        self.period = period
        self.min_chunk_rows = min_chunk_rows
        if near_miss_threshold is not None:
            non_negative_threshold("near_miss_threshold", near_miss_threshold)
            robustness = True
        self.robustness = robustness
        self.near_miss_threshold = near_miss_threshold

        reach = 0.0
        history = retention
        for rule in self.rules:
            formula = rule.effective_formula()
            reach = max(reach, future_reach(formula, period))
            history = max(history, past_reach(formula, period) + 2 * period)
            history = max(history, rule.initial_settle + period)
            if rule.warmup is not None:
                history = max(history, rule.warmup.duration + 2 * period)
        self._horizon_rows = int(math.ceil(reach / period)) + 1
        self._history_rows = int(math.ceil(history / period)) + 2

        self._buffer = Trace("online")
        self._required = self._offline.required_signals()
        #: Referenced signals by code, and their codes by name (any
        #: other signal's code is -1).
        self._names = sorted(self._required)
        self._codes = {name: code for code, name in enumerate(self._names)}
        self._start_time: Optional[float] = None
        self._latest: float = -math.inf
        self._next_emit_row = 0
        #: Late events dropped behind the retention frontier (see the
        #: module docstring's deviation list).
        self.late_events = 0
        #: Chunk emissions deferred because a required signal had no
        #: buffered data yet (mirrors the ``online.emit_waiting`` counter).
        self.emit_waits = 0
        self._waiting_signals: Tuple[str, ...] = ()
        self._peak_buffer_rows = 0
        self._machine_resume: Dict[str, Tuple[int, str]] = {
            machine.name: (0, machine.initial) for machine in self.machines
        }
        # Per-rule row results folded over the emitted chunks.  Each
        # emitted row's bounds equal the offline evaluation's (the chunk
        # view covers its whole temporal window), so at finish the
        # running minima *are* the offline rule-level interval.
        self._results: Dict[str, RuleResult] = {
            rule.rule_id: RuleResult(
                rule=rule,
                verdict=Verdict.UNKNOWN,
                violations=[],
                dismissed=[],
                rows_total=0,
                rows_checked=0,
                rows_masked=0,
                rows_unknown=0,
                robustness=RuleRobustness(lower=math.inf, upper=math.inf)
                if robustness
                else None,
            )
            for rule in self.rules
        }
        #: Stream time at which each rule's interval first excluded zero
        #: (the margin analogue of the boolean early-violation callback).
        self._decided: Dict[str, float] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------

    @property
    def decision_latency(self) -> float:
        """Worst-case seconds between a row and its emitted verdict."""
        return (self._horizon_rows + self.min_chunk_rows) * self.period

    @property
    def max_buffer_rows(self) -> int:
        """Per-signal buffered-row bound the monitor never exceeds.

        At every ``feed_block`` return, each signal's buffered updates
        span at most ``history_rows + horizon_rows + min_chunk_rows``
        monitor rows: the history margin behind the emission frontier, the
        undecidable horizon ahead of it, and the chunk batch between.
        The bound is asserted after every chunk's trim.
        """
        return self._history_rows + self._horizon_rows + self.min_chunk_rows

    @property
    def peak_buffer_rows(self) -> int:
        """Largest per-signal buffered update count observed so far.

        Sampled at each chunk emission (before trimming — the fullest
        point of the buffer cycle).  For a signal updating once per
        monitor row this is exactly its peak buffered rows, and it never
        exceeds :attr:`max_buffer_rows` plus the updates-per-row factor.
        """
        return self._peak_buffer_rows

    def buffer_row_span(self) -> int:
        """Monitor rows spanned by the fullest per-signal buffer now."""
        return self._row_span(self._buffer.retain(-math.inf)[2])

    def _row_span(self, bounds: Sequence[Tuple[float, float]]) -> int:
        """Most monitor rows spanned by one of ``bounds``, the ``(oldest,
        newest)`` buffered timestamps of each signal."""
        if self._start_time is None:
            return 0
        row_of = self._row_of
        return max(
            (row_of(newest) - row_of(oldest) + 1 for oldest, newest in bounds),
            default=0,
        )

    def feed(self, timestamp: float, signal: str, value: float) -> List[Violation]:
        """Consume one bus event; returns violations finalized by it.

        A one-event :meth:`feed_block`.
        """
        return self.feed_block((timestamp,), (signal,), (value,))

    def feed_block(
        self,
        times: Sequence[float],
        signals: Sequence[str],
        values: Sequence[float],
    ) -> List[Violation]:
        """Consume a block of bus events, in arrival order; returns the
        violations finalized by them.

        Every event advances the monitor's clock (time passes on the bus
        whether or not the rules reference the signal — exactly as an
        offline check over the full trace sees it); only referenced
        signals are buffered.  A referenced-signal event older than the
        retention frontier is dropped and counted (``online.late_events``)
        instead of being buffered — its row has already been emitted or
        trimmed, so it can no longer influence any verdict.

        The block is checked and buffered a segment at a time, and split
        at exactly the events after which feeding the events one by one
        would evaluate a chunk: a buffered event that makes
        ``min_chunk_rows`` new rows decidable.  So chunk boundaries,
        counters and verdicts do not depend on how a stream is cut into
        blocks.  On a bad event (non-finite time, or a buffered signal
        stepping back in time) the events before it are ingested and the
        :class:`TraceError` is raised then, as event-by-event feeding
        would; its ``violations`` attribute holds what the block
        finalized before the bad event.
        """
        if self._finished:
            raise TraceError("monitor already finished")
        stamps = np.asarray(times, dtype=np.float64)
        count = len(stamps)
        if len(signals) != count or len(values) != count:
            raise TraceError(
                "event block columns differ in length: %d times, %d signals, "
                "%d values" % (count, len(signals), len(values))
            )
        readings = np.asarray(values, dtype=np.float64)
        codes = np.fromiter(
            map(self._codes.get, signals, repeat(-1)), dtype=np.intp, count=count
        )
        finite = np.isfinite(stamps)
        limit = count if np.count_nonzero(finite) == count else int(finite.argmin())
        if limit and self._start_time is None:
            self._start_time = float(stamps[0])
        fresh: List[Violation] = []
        position = 0
        try:
            while position < limit:
                end = min(limit, position + _SCAN_EVENTS)
                position, emit = self._ingest(
                    stamps[position:end],
                    codes[position:end],
                    readings[position:end],
                    position,
                )
                if emit:
                    fresh.extend(self._emit(self._decidable_row()))
            if limit < count:
                raise non_finite_time(signals[limit], float(stamps[limit]))
        except TraceError as exc:
            exc.violations = fresh
            raise
        return fresh

    def _ingest(
        self,
        stamps: np.ndarray,
        codes: np.ndarray,
        readings: np.ndarray,
        offset: int,
    ) -> Tuple[int, bool]:
        """Ingest the leading events of one finite segment, up to and
        including the first that calls for a chunk.

        Returns the block position after the last ingested event and
        whether a chunk is due.  Raises the out-of-order
        :class:`TraceError` after ingesting the events before it.
        """
        latest = np.maximum(self._latest, np.maximum.accumulate(stamps))
        referenced = codes >= 0
        late = referenced & (stamps < self._buffer.frontier)
        buffered = referenced ^ late
        # The first buffered event whose clock makes min_chunk_rows new
        # rows decidable.
        first_due = self._first_due(latest)
        hits = buffered[first_due:].nonzero()[0]
        emit = len(hits) > 0
        stop = first_due + int(hits[0]) + 1 if emit else len(stamps)
        keep = buffered[:stop]
        try:
            self._buffer.extend(
                self._names,
                codes[:stop][keep],
                stamps[:stop][keep],
                readings[:stop][keep],
            )
        except TraceError as exc:
            # The bad event still advances the clock, as one-by-one
            # feeding does, and nothing after it is ingested.
            self._advance(latest, late, int(keep.nonzero()[0][exc.accepted]) + 1)
            raise
        self._advance(latest, late, stop)
        return offset + stop, emit

    def _advance(self, latest: np.ndarray, late: np.ndarray, stop: int) -> None:
        """Account for a segment's first ``stop`` events: move the clock
        to their latest stamp and count the late ones."""
        self._latest = float(latest[stop - 1])
        dropped = np.count_nonzero(late[:stop])
        if dropped:
            self.late_events += dropped
            get_registry().counter("online.late_events").inc(dropped)

    def _first_due(self, latest: np.ndarray) -> int:
        """Index of the first clock reading in ``latest`` (non-decreasing)
        at which ``min_chunk_rows`` new rows are decidable, else its
        length: a bisection on :meth:`_row_of`, the per-event rule."""
        due = self._next_emit_row + self._horizon_rows + self.min_chunk_rows
        lo, hi = 0, len(latest)
        if self._row_of(float(latest[-1])) < due:
            return hi
        while lo < hi:
            mid = (lo + hi) // 2
            if self._row_of(float(latest[mid])) >= due:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def feed_trace(self, trace: Trace) -> List[Violation]:
        """Replay a whole trace through the stream (for testing/replays):
        its :meth:`~repro.logs.trace.Trace.event_columns` as one block."""
        return self.feed_block(*trace.event_columns())

    def finish(self, trace_name: str = "online") -> MonitorReport:
        """Flush the tail (emitting UNKNOWNs where windows are cut short)
        and assemble the final report."""
        if self._finished:
            raise TraceError("monitor already finished")
        self._finished = True
        if self._start_time is not None:
            last_row = self._row_of(self._latest)
            if last_row >= self._next_emit_row:
                self._emit(last_row)
        report = MonitorReport(
            trace_name=trace_name,
            period=self.period,
            duration=(self._latest - self._start_time)
            if self._start_time is not None
            else 0.0,
        )
        if self._waiting_signals:
            report.notes.append(
                "online: %d chunk emission(s) deferred; buffered data was "
                "never evaluated because required signal(s) never arrived: %s"
                % (self.emit_waits, ", ".join(self._waiting_signals))
            )
        elif self.emit_waits:
            report.notes.append(
                "online: %d chunk emission(s) deferred early in the stream "
                "while required signals were still missing" % self.emit_waits
            )
        if self.late_events:
            report.notes.append(
                "online: %d late event(s) dropped behind the retention "
                "frontier (offline monitoring of the full log would have "
                "seen them)" % self.late_events
            )
        for rule in self.rules:
            result = self._results[rule.rule_id]
            result.verdict = rule_verdict(
                result.violations,
                result.dismissed,
                result.rows_unknown,
                result.rows_total,
            )
            if self.robustness:
                if not result.rows_total:
                    # No rows, no evidence: the whole line, as offline.
                    result.robustness = RuleRobustness(
                        lower=-math.inf, upper=math.inf
                    )
                result.near_miss = _detect_near_miss(
                    rule.rule_id,
                    result.robustness,
                    result.violations,
                    self.near_miss_threshold,
                )
            report.results[rule.rule_id] = result
        return report

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _row_of(self, timestamp: float) -> int:
        return int(math.floor((timestamp - self._start_time) / self.period + 1e-9))

    def _decidable_row(self) -> int:
        return self._row_of(self._latest) - self._horizon_rows

    def _emit(self, upto_row: int) -> List[Violation]:
        """Evaluate and finalize rows [next_emit_row .. upto_row].

        When metrics are on, each chunk records its emitted size
        (``online.chunk_rows``), the rows the view re-evaluates beyond
        what it emits (``online.rows_reevaluated`` — history margin plus
        undecidable tail, the price of chunked online evaluation), and
        the post-trim buffer size (``online.buffer_events``).
        """
        registry = get_registry()
        with registry.span("online.emit"):
            return self._emit_instrumented(upto_row, registry)

    def _emit_instrumented(
        self, upto_row: int, registry
    ) -> List[Violation]:
        history_start = max(0, self._next_emit_row - self._history_rows)
        t0 = self._start_time
        view_start = t0 + history_start * self.period
        view_end = t0 + (upto_row + self._horizon_rows) * self.period
        view_end = min(view_end, self._latest)
        try:
            view = self._buffer.to_view(
                self.period,
                signals=self._required,
                start=view_start,
                end=view_end,
            )
        except TraceError:
            # A required signal has no buffered data yet: keep buffering
            # and record that evaluation is stalled — finish() surfaces
            # the missing names if the stall never resolves.
            self._note_peak(self._buffer.retain(-math.inf)[0])
            self.emit_waits += 1
            self._waiting_signals = tuple(
                name
                for name in self._required
                if not (
                    name in self._buffer and self._buffer.update_count(name)
                )
            )
            registry.counter("online.emit_waiting").inc()
            return []
        self._waiting_signals = ()
        ctx = EvalContext(view)
        chunk_initials: Dict[str, str] = {}
        for machine in self.machines:
            resume_row, resume_state = self._machine_resume[machine.name]
            initial = (
                resume_state if resume_row == history_start else machine.initial
            )
            chunk_initials[machine.name] = initial
            states = machine.run(ctx, initial=initial)
            ctx.machine_states[machine.name] = states
            ctx.machine_alphabets[machine.name] = machine.alphabet

        # Emitted rows [lo, hi], view-relative.
        lo = self._next_emit_row - history_start
        hi = min(upto_row - history_start, view.n_rows - 1)
        emitted_rows = upto_row - self._next_emit_row + 1
        registry.counter("online.chunks").inc()
        registry.histogram("online.chunk_rows").observe(emitted_rows)
        registry.counter("online.rows_emitted").inc(emitted_rows)
        registry.counter("online.rows_reevaluated").inc(
            max(view.n_rows - emitted_rows, 0)
        )
        fresh: List[Violation] = []
        if hi >= lo:
            for rule in self.rules:
                fresh.extend(self._emit_rule(rule, ctx, history_start, lo, hi))

        # Save machine state for the next chunk's history start: the
        # state *entering* that row (i.e. after the preceding row), so
        # the row's own transition fires exactly once when re-evaluated.
        next_history_start = max(0, upto_row + 1 - self._history_rows)
        for machine in self.machines:
            states = ctx.machine_states[machine.name]
            index = next_history_start - history_start
            if index <= 0:
                entering = chunk_initials[machine.name]
            else:
                entering = str(states[min(index, len(states)) - 1])
            self._machine_resume[machine.name] = (
                next_history_start,
                entering,
            )

        self._next_emit_row = upto_row + 1
        # Advance the retention frontier: events behind it can no longer
        # influence any future chunk.  The trim pops each expired update
        # exactly once, so maintenance is O(1) amortized per event —
        # never a rebuild of the retained suffix — and the same pass
        # over the signals measures the fullest buffer (before the
        # trim) and the spans the bound check needs.
        keep_from = t0 + next_history_start * self.period
        peak, buffered, bounds = self._buffer.retain(keep_from)
        self._note_peak(peak)
        span = self._row_span(bounds)
        if span > self.max_buffer_rows:
            raise AssertionError(
                "bounded-memory invariant broken: buffer spans %d rows, "
                "bound is %d (history %d + horizon %d + chunk %d)"
                % (
                    span,
                    self.max_buffer_rows,
                    self._history_rows,
                    self._horizon_rows,
                    self.min_chunk_rows,
                )
            )
        registry.gauge("online.buffer_events").set(buffered)
        registry.gauge("online.buffer_peak_rows").set(self._peak_buffer_rows)
        return fresh

    def _note_peak(self, occupancy: int) -> None:
        if occupancy > self._peak_buffer_rows:
            self._peak_buffer_rows = occupancy

    def _emit_rule(
        self,
        rule: Rule,
        ctx: EvalContext,
        history_start: int,
        lo: int,
        hi: int,
    ) -> List[Violation]:
        """Check the emitted rows and fold them into the rule's result;
        returns the violations this chunk opened."""
        codes = evaluate_formula(rule.effective_formula(), ctx)
        chunk = check_rows(
            rule,
            ctx,
            codes,
            lo,
            hi,
            first_row=history_start,
            origin=self._start_time,
            robustness=self.robustness,
        )
        total = self._results[rule.rule_id]
        total.rows_total += chunk.rows_total
        total.rows_checked += chunk.rows_checked
        total.rows_masked += chunk.rows_masked
        total.rows_unknown += chunk.rows_unknown
        fresh = self._absorb(total.violations, chunk.violations)
        self._absorb(total.dismissed, chunk.dismissed)
        if self.robustness:
            running, step = total.robustness, chunk.robustness
            if step.upper < running.upper:
                # Strict improvement only, so ties keep the earliest
                # chunk's row — matching offline argmin's
                # first-occurrence rule.
                total.robustness = replace(
                    step, lower=min(running.lower, step.lower)
                )
            elif step.lower < running.lower:
                total.robustness = replace(running, lower=step.lower)
            decided = total.robustness.upper < 0
            if decided and rule.rule_id not in self._decided:
                # The interval [-inf, upper] now excludes zero: the rule
                # is already certainly violated, however the stream
                # continues.
                self._decided[rule.rule_id] = self._latest
                get_registry().counter("online.early_decisions").inc()
        return fresh

    def robustness_intervals(self) -> Dict[str, Tuple[float, float]]:
        """Current per-rule ``[lower, upper]`` margin intervals.

        Mid-stream the lower bound is ``-inf`` — future rows can be
        arbitrarily violating — while the upper bound only tightens
        (monotonically non-increasing) as chunks are emitted.  After
        :meth:`finish` the interval equals the offline check's: both
        bounds are the minima over all emitted rows.  The offline
        margin interval is always contained in every intermediate
        interval reported here.
        """
        if not self.robustness:
            raise TraceError(
                "robustness intervals require OnlineMonitor(robustness=True)"
            )
        intervals: Dict[str, Tuple[float, float]] = {}
        for rule_id, result in self._results.items():
            bounds = result.robustness
            lower = bounds.lower if self._finished else -math.inf
            intervals[rule_id] = (lower, bounds.upper)
        return intervals

    def early_decisions(self) -> Dict[str, float]:
        """Rules whose interval excluded zero mid-stream, with the
        stream time of that decision."""
        return dict(self._decided)

    @staticmethod
    def _absorb(
        accumulated: List[Violation], incoming: List[Violation]
    ) -> List[Violation]:
        """Append violations, coalescing runs split by chunk boundaries.

        Returns the genuinely new violation records (a continuation of
        the previous chunk's final run extends it rather than appearing
        as a fresh violation).  When a run extends, the witness columns
        of both segments are concatenated so the merged record's
        evidence covers its whole ``[start_row, end_row]`` span — the
        first-row ``witness`` scalars stay those of the run's true start.
        """
        fresh: List[Violation] = []
        for violation in incoming:
            if (
                accumulated
                and accumulated[-1].end_row + 1 == violation.start_row
            ):
                last = accumulated[-1]
                columns = {
                    name: np.concatenate(
                        [column, violation.witness_columns[name]]
                    )
                    for name, column in last.witness_columns.items()
                    if name in violation.witness_columns
                }
                accumulated[-1] = replace(
                    last,
                    end_row=violation.end_row,
                    end_time=violation.end_time,
                    witness_columns=columns,
                    # The joined run is as deep as its deeper segment.
                    margin=None
                    if last.margin is None
                    else min(last.margin, violation.margin),
                )
            else:
                accumulated.append(violation)
                fresh.append(violation)
        return fresh
