"""Online (incremental) monitoring — equivalence with offline checking.

The headline property: for filter-free rules, the online monitor's
emitted verdicts, violation spans, and undecided-row counts are
*identical* to the offline monitor's, while its memory stays bounded by
the retention window.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import loop_feed, multirate_trace, uniform_trace
from repro.core.evaluator import future_reach
from repro.core.monitor import Monitor, Rule
from repro.core.online import OnlineMonitor
from repro.core.parser import parse_formula
from repro.core.statemachine import StateMachine
from repro.core.types import Verdict
from repro.core.warmup import WarmupSpec
from repro.errors import ParameterError, SpecError, TraceError
from repro.obs import MetricsRegistry, use_registry

PERIOD = 0.02


def compare(rules, trace, machines=(), min_chunk_rows=7, retention=1.0, **check):
    """Offline and online reports for one trace; ``check`` (``robustness``,
    ``near_miss_threshold``) goes to both monitors."""
    offline = Monitor(rules, machines=machines, period=PERIOD).check(
        trace, **check
    )
    online = OnlineMonitor(
        rules,
        machines=machines,
        period=PERIOD,
        min_chunk_rows=min_chunk_rows,
        retention=retention,
        **check,
    )
    online.feed_trace(trace)
    report = online.finish()
    return offline, report


def spans(violations):
    return [(v.start_row, v.end_row) for v in violations]


def assert_equivalent(offline, online):
    assert offline.letters() == online.letters()
    for rule_id in offline.letters():
        off = offline.results[rule_id]
        on = online.results[rule_id]
        assert off.verdict is on.verdict, rule_id
        assert spans(off.violations) == spans(on.violations), rule_id
        assert spans(off.dismissed) == spans(on.dismissed), rule_id
        assert off.rows_unknown == on.rows_unknown, rule_id
        assert off.rows_total == on.rows_total, rule_id
        assert off.rows_checked == on.rows_checked, rule_id
        assert off.rows_masked == on.rows_masked, rule_id
        # Violation equality ignores the depth, so compare it directly.
        assert [v.margin for v in off.violations] == [
            v.margin for v in on.violations
        ], rule_id
        assert off.near_miss == on.near_miss, rule_id
        for off_v, on_v in zip(off.violations, on.violations):
            assert_witness_equal(off_v, on_v, rule_id)


def assert_witness_equal(off_v, on_v, rule_id=""):
    """Witness payloads must match offline exactly — scalar first-row
    values and the per-signal held-value arrays over the whole span."""
    assert set(off_v.witness) == set(on_v.witness), rule_id
    for name, value in off_v.witness.items():
        assert value == pytest.approx(on_v.witness[name], nan_ok=True), rule_id
    assert set(off_v.witness_columns) == set(on_v.witness_columns), rule_id
    for name, column in off_v.witness_columns.items():
        np.testing.assert_array_equal(
            column, on_v.witness_columns[name], err_msg="%s/%s" % (rule_id, name)
        )


class TestFutureReach:
    def test_propositional_is_zero(self):
        assert future_reach(parse_formula("x > 0 and y"), PERIOD) == 0.0

    def test_next_reaches_one_period(self):
        assert future_reach(parse_formula("next x > 0"), PERIOD) == PERIOD

    def test_bounded_operators_reach_their_upper_bound(self):
        assert future_reach(parse_formula("eventually[0, 5s] x > 0"), PERIOD) == 5.0
        assert future_reach(parse_formula("always[100ms, 400ms] x > 0"), PERIOD) == pytest.approx(0.4)

    def test_nesting_adds(self):
        formula = parse_formula("always[0, 1] next x > 0")
        assert future_reach(formula, PERIOD) == pytest.approx(1.0 + PERIOD)

    def test_connectives_take_max(self):
        formula = parse_formula("(next x > 0) and eventually[0, 2] y > 0")
        assert future_reach(formula, PERIOD) == 2.0


class TestEquivalence:
    def test_propositional_rule(self):
        rule = Rule.from_text("r", "n", "x > 0")
        trace = uniform_trace({"x": [1, -1, -1, 1, 1, -1] * 20})
        assert_equivalent(*compare([rule], trace))

    def test_bounded_eventually_rule(self):
        rule = Rule.from_text("r", "n", "x < 5 -> eventually[0, 100ms] y > 0")
        values = ([1.0] * 30 + [10.0] * 10) * 4
        ys = ([0.0] * 37 + [1.0] * 3) * 4
        trace = uniform_trace({"x": values, "y": ys})
        assert_equivalent(*compare([rule], trace))

    def test_next_rule(self):
        rule = Rule.from_text("r", "n", "x > 0 -> next x > 0")
        trace = uniform_trace({"x": [1, 1, -1, 1, -1, -1] * 25})
        assert_equivalent(*compare([rule], trace))

    def test_multirate_delta_rule(self):
        rule = Rule.from_text("r", "n", "not rising(s, 5)")
        trace = multirate_trace(
            {"f": range(120)}, {"s": [i * (i % 7) for i in range(30)]}
        )
        assert_equivalent(*compare([rule], trace))

    def test_gated_rule_with_settle(self):
        rule = Rule.from_text(
            "r", "n", "x > 0", gate="g", initial_settle=0.1
        )
        trace = uniform_trace(
            {"x": [-1] * 100, "g": [0] * 30 + [1] * 70}
        )
        assert_equivalent(*compare([rule], trace))

    def test_warmup_rule(self):
        rule = Rule.from_text(
            "r", "n", "x > 0", warmup=WarmupSpec.parse("t > 0", 0.08)
        )
        columns = {
            "x": [1] * 20 + [-1] * 6 + [1] * 74,
            "t": [0] * 20 + [1] + [0] * 79,
        }
        trace = uniform_trace(columns)
        assert_equivalent(*compare([rule], trace))

    def test_machine_gated_rule(self):
        machine = StateMachine(
            "m", ("idle", "active"), "idle",
            (("idle", "active", "e > 0"), ("active", "idle", "e <= 0")),
        )
        rule = Rule.from_text("r", "n", "in_state(m, active) -> x > 0")
        trace = uniform_trace(
            {
                "e": ([0] * 10 + [1] * 15) * 6,
                "x": [(-1) ** i for i in range(150)],
            }
        )
        assert_equivalent(*compare([rule], trace, machines=[machine]))

    def test_paper_rules_on_hil_trace(self, nominal_trace):
        from repro.rules import paper_rules

        assert_equivalent(
            *compare(paper_rules(), nominal_trace, min_chunk_rows=100)
        )

    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=3),
                st.integers(min_value=0, max_value=1),
            ),
            min_size=30,
            max_size=150,
        ),
        chunk=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, data, chunk):
        rules = [
            Rule.from_text("p", "p", "x > 0", gate="g"),
            Rule.from_text("e", "e", "eventually[0, 60ms] x > 0"),
            Rule.from_text("n", "n", "x > 0 -> next x >= 0"),
        ]
        trace = uniform_trace(
            {
                "x": [float(x) for x, _ in data],
                "g": [float(g) for _, g in data],
            }
        )
        assert_equivalent(*compare(rules, trace, min_chunk_rows=chunk))


#: Filter-free rule pool for the differential fuzz harness: every
#: operator family the online monitor must keep equivalent to offline
#: evaluation (propositional, gated, future- and past-bounded temporal,
#: next, freshness-aware deltas).
FUZZ_RULE_POOL = (
    ("prop", dict(formula="x > 0")),
    ("gated", dict(formula="x > -1", gate="g")),
    ("settle", dict(formula="x > -2", gate="g", initial_settle=0.1)),
    ("event", dict(formula="x < 0 -> eventually[0, 120ms] y > 0")),
    ("alw", dict(formula="always[0, 80ms] x > -3")),
    ("nxt", dict(formula="y > 1 -> next y >= 0")),
    ("once", dict(formula="x > 2 -> once[0, 200ms] y > 0")),
    ("hist", dict(formula="historically[0, 60ms] x >= -4")),
    ("delta", dict(formula="not rising(x, 6)")),
)


class TestDifferentialFuzz:
    """Seed-pinned differential harness: randomized traces, rule subsets,
    chunk sizes, and retention windows — online must equal offline for
    every draw.  Seeds are fixed so CI failures reproduce exactly."""

    @staticmethod
    def _randomized_case(seed):
        rng = np.random.default_rng(9000 + seed)
        n_rows = int(rng.integers(40, 220))
        trace = uniform_trace(
            {
                "x": [float(v) for v in rng.integers(-4, 5, n_rows)],
                "y": [float(v) for v in rng.integers(-2, 3, n_rows)],
                "g": [float(v) for v in rng.integers(0, 2, n_rows)],
            }
        )
        n_rules = int(rng.integers(2, len(FUZZ_RULE_POOL) + 1))
        picks = rng.choice(len(FUZZ_RULE_POOL), size=n_rules, replace=False)
        rules = [
            Rule.from_text(FUZZ_RULE_POOL[i][0], "fuzz", **FUZZ_RULE_POOL[i][1])
            for i in sorted(picks)
        ]
        chunk = int(rng.integers(1, 61))
        retention = float(rng.uniform(0.05, 2.5))
        return rules, trace, dict(min_chunk_rows=chunk, retention=retention)

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_trace_and_chunking(self, seed):
        rules, trace, stream = self._randomized_case(seed)
        assert_equivalent(*compare(rules, trace, **stream))

    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_trace_with_margins(self, seed):
        """The same draws checked with robustness on: violation depths,
        rule intervals and near misses must survive the chunking too."""
        rules, trace, stream = self._randomized_case(seed)
        offline, online = compare(
            rules, trace, robustness=True, near_miss_threshold=0.5, **stream
        )
        assert_equivalent(offline, online)
        for rule_id, off in offline.results.items():
            assert online.results[rule_id].robustness == off.robustness

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_multirate_trace(self, seed):
        """Same property with a slow signal riding a fast clock — the
        resampling/freshness path must also chunk transparently."""
        rng = np.random.default_rng(7700 + seed)
        n_fast = int(rng.integers(60, 200))
        n_slow = max(n_fast // 4, 2)
        trace = multirate_trace(
            {"x": [float(v) for v in rng.integers(-4, 5, n_fast)]},
            {"s": [float(v) for v in rng.integers(0, 9, n_slow)]},
        )
        rules = [
            Rule.from_text("r0", "n", "not rising(s, 5)"),
            Rule.from_text("r1", "n", "s > 7 -> eventually[0, 160ms] x > 0"),
        ]
        chunk = int(rng.integers(1, 41))
        retention = float(rng.uniform(0.1, 2.0))
        assert_equivalent(
            *compare(rules, trace, min_chunk_rows=chunk, retention=retention)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_chunk_boundaries_inside_violation_runs(self, seed):
        """Traces built from long good/bad segments so violation runs are
        near-certain to straddle chunk boundaries; spans AND witness
        contents (checked by assert_equivalent) must survive the splits."""
        rng = np.random.default_rng(3100 + seed)
        xs = []
        while len(xs) < 160:
            good = int(rng.integers(3, 12))
            bad = int(rng.integers(8, 30))  # longer than most chunks below
            xs.extend([float(rng.integers(1, 5))] * good)
            xs.extend([-float(rng.integers(1, 5))] * bad)
        trace = uniform_trace({"x": xs, "g": [1.0] * len(xs)})
        rules = [
            Rule.from_text("p", "f", "x > 0"),
            Rule.from_text("gated", "f", "x > 0", gate="g"),
            Rule.from_text("alw", "f", "always[0, 60ms] x > 0"),
        ]
        chunk = int(rng.integers(2, 14))
        retention = float(rng.uniform(0.1, 1.5))
        assert_equivalent(
            *compare(rules, trace, min_chunk_rows=chunk, retention=retention)
        )

    def test_tiny_retention_is_raised_to_a_safe_floor(self):
        """A retention window smaller than the rules' past reach must not
        break equivalence — the monitor widens it automatically."""
        rule = Rule.from_text("r", "n", "x > 1 -> once[0, 400ms] y > 0")
        rng = np.random.default_rng(123)
        trace = uniform_trace(
            {
                "x": [float(v) for v in rng.integers(-2, 3, 150)],
                "y": [float(v) for v in rng.integers(-1, 2, 150)],
            }
        )
        assert_equivalent(
            *compare([rule], trace, min_chunk_rows=3, retention=0.01)
        )


class TestStreamingBehaviour:
    def test_violations_emitted_before_finish(self):
        rule = Rule.from_text("r", "n", "x > 0")
        online = OnlineMonitor([rule], min_chunk_rows=5)
        live = []
        values = [1] * 10 + [-1] * 10 + [1] * 30
        for i, value in enumerate(values):
            live.extend(online.feed(i * PERIOD, "x", float(value)))
        assert live, "violation should surface during streaming"
        assert live[0].start_row == 10

    def test_memory_stays_bounded(self):
        rule = Rule.from_text("r", "n", "x > 0")
        online = OnlineMonitor([rule], min_chunk_rows=10, retention=0.5)
        for i in range(5000):
            online.feed(i * PERIOD, "x", 1.0)
        # The rolling buffer holds roughly retention + chunk, never the
        # whole 100 s stream.
        assert online._buffer.update_count() < 500

    def test_irrelevant_signals_ignored(self):
        rule = Rule.from_text("r", "n", "x > 0")
        online = OnlineMonitor([rule])
        assert online.feed(0.0, "unrelated", 1.0) == []
        assert online._buffer.is_empty()

    def test_decision_latency_reflects_rule_horizon(self):
        fast = OnlineMonitor([Rule.from_text("r", "n", "x > 0")])
        slow = OnlineMonitor(
            [Rule.from_text("r", "n", "eventually[0, 5s] x > 0")]
        )
        assert slow.decision_latency > fast.decision_latency
        assert slow.decision_latency >= 5.0

    def test_feed_after_finish_rejected(self):
        online = OnlineMonitor([Rule.from_text("r", "n", "x > 0")])
        online.feed(0.0, "x", 1.0)
        online.finish()
        with pytest.raises(TraceError):
            online.feed(1.0, "x", 1.0)
        with pytest.raises(TraceError):
            online.finish()

    def test_empty_stream_finishes_unknown(self):
        online = OnlineMonitor([Rule.from_text("r", "n", "x > 0")])
        report = online.finish()
        assert report.results["r"].verdict is Verdict.UNKNOWN

    def test_intent_filters_applied_online(self):
        from repro.core.intent import PersistenceFilter

        rule = Rule.from_text("r", "n", "x > 0").relaxed(PersistenceFilter(3))
        trace = uniform_trace({"x": [1] * 20 + [-1] + [1] * 40})
        online = OnlineMonitor([rule], min_chunk_rows=10)
        online.feed_trace(trace)
        report = online.finish()
        result = report.results["r"]
        assert not result.violated
        assert result.dismissed


class TestPastOperatorsOnline:
    def test_once_rule_equivalence(self):
        rule = Rule.from_text("r", "n", "x > 1 -> once[0, 2s] y > 0")
        ys = [0] * 30 + [1] * 5 + [0] * 115
        xs = [0] * 40 + [2] * 20 + [0] * 90
        trace = uniform_trace(
            {"x": [float(v) for v in xs], "y": [float(v) for v in ys]}
        )
        assert_equivalent(*compare([rule], trace, min_chunk_rows=9))

    def test_historically_rule_equivalence(self):
        rule = Rule.from_text("r", "n", "historically[0, 100ms] x >= 0")
        xs = [1] * 50 + [-1] * 3 + [1] * 60
        trace = uniform_trace({"x": [float(v) for v in xs]})
        assert_equivalent(*compare([rule], trace, min_chunk_rows=13))

    def test_past_reach_extends_online_history(self):
        short = OnlineMonitor([Rule.from_text("r", "n", "x > 0")])
        long = OnlineMonitor(
            [Rule.from_text("r", "n", "once[0, 8s] x > 0")]
        )
        assert long._history_rows > short._history_rows
        # Past windows do not delay decisions.
        assert long.decision_latency == short.decision_latency


class TestMachineEquivalenceProperty:
    @given(
        events=st.lists(
            st.integers(min_value=-1, max_value=1), min_size=30, max_size=120
        ),
        chunk=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_machine_state_continuity_across_chunks(self, events, chunk):
        """Machine state must be seamless across chunk boundaries for any
        trace and any chunking — the online monitor resumes each machine
        from its saved state."""
        machine = StateMachine(
            "m",
            ("low", "mid", "high"),
            "low",
            (
                ("low", "mid", "e > 0"),
                ("mid", "high", "e > 0"),
                ("high", "mid", "e < 0"),
                ("mid", "low", "e < 0"),
            ),
        )
        rule = Rule.from_text(
            "r", "n", "in_state(m, high) -> x > 0"
        )
        trace = uniform_trace(
            {
                "e": [float(v) for v in events],
                "x": [float((-1) ** i) for i in range(len(events))],
            }
        )
        assert_equivalent(
            *compare([rule], trace, machines=[machine], min_chunk_rows=chunk)
        )


class TestWitnessCoalescing:
    """Regression: a violation run straddling a chunk boundary used to
    keep only the first fragment's witness columns when the fragments
    were coalesced — triage plots silently lost the tail of the run."""

    def _straddling_trace(self, run_start=8, run_len=14):
        n = 60
        xs = [1.0] * n
        for i in range(run_start, run_start + run_len):
            xs[i] = -float(i)  # distinct values so truncation is visible
        ys = [float(i % 5) for i in range(n)]
        return uniform_trace({"x": xs, "y": ys})

    @pytest.mark.parametrize("chunk", [3, 5, 7, 10, 13])
    def test_witness_columns_cover_the_full_run(self, chunk):
        rule = Rule.from_text("r", "n", "x > 0")
        trace = self._straddling_trace()
        offline, online = compare([rule], trace, min_chunk_rows=chunk)
        on_violations = online.results["r"].violations
        assert len(on_violations) == 1
        violation = on_violations[0]
        span = violation.end_row - violation.start_row + 1
        assert span == 14
        for name, column in violation.witness_columns.items():
            assert len(column) == span, name
        assert_equivalent(offline, online)

    def test_concatenated_values_match_offline(self):
        """Not just the right length — the joined arrays must be the
        byte-identical held samples the offline monitor extracts."""
        rule = Rule.from_text("r", "n", "x > 0")
        trace = self._straddling_trace(run_start=4, run_len=21)
        offline, online = compare([rule], trace, min_chunk_rows=6)
        off_v = offline.results["r"].violations[0]
        on_v = online.results["r"].violations[0]
        assert_witness_equal(off_v, on_v)
        np.testing.assert_array_equal(
            on_v.witness_columns["x"],
            np.array([-float(i) for i in range(4, 25)]),
        )


class TestLateEvents:
    """Regression: an event older than the retention frontier used to
    crash the feed with a trace-monotonicity error; the service drops
    and counts it instead."""

    def _aged_monitor(self):
        online = OnlineMonitor(
            [Rule.from_text("r", "n", "x > 0")], min_chunk_rows=5, retention=0.1
        )
        for i in range(200):
            online.feed(i * PERIOD, "x", 1.0)
        assert online._buffer.frontier > 0, "retention frontier must have moved"
        return online

    def test_late_event_dropped_and_counted(self):
        online = self._aged_monitor()
        frontier = online._buffer.frontier
        assert online.feed(frontier - 0.05, "x", -1.0) == []
        assert online.late_events == 1
        # The monitor keeps running: current-time events still work.
        online.feed(200 * PERIOD, "x", 1.0)
        report = online.finish()
        assert any("1 late event" in note for note in report.notes)

    def test_late_event_does_not_alter_verdict(self):
        online = self._aged_monitor()
        online.feed(0.0, "x", -1.0)  # way behind the frontier: ignored
        report = online.finish()
        assert report.results["r"].verdict is Verdict.TRUE

    def test_in_window_event_is_not_late(self):
        online = self._aged_monitor()
        before = online.late_events
        online.feed(199 * PERIOD, "x", 1.0)  # same stamp as the last one
        assert online.late_events == before


class TestNonFiniteTimes:
    """Regression: ``feed(nan, ...)`` stored NaN as the monitor's start
    time, then failed with an untyped ``ValueError`` converting it to a
    row; an unreferenced signal poisoned the clock silently."""

    @pytest.mark.parametrize("signal", ["x", "unreferenced"])
    def test_nan_feed_raises_typed_error_before_touching_the_clock(self, signal):
        online = OnlineMonitor([Rule.from_text("r", "n", "x > 0")])
        message = "%s: update at non-finite time t=nan" % signal
        with pytest.raises(TraceError, match=message):
            online.feed(float("nan"), signal, 1.0)
        with pytest.raises(TraceError, match="non-finite time t=inf"):
            online.feed(float("inf"), signal, 1.0)
        assert online._start_time is None
        assert online._latest == -math.inf
        for i in range(100):
            online.feed(i * PERIOD, "x", 1.0)
        report = online.finish()
        assert report.results["r"].verdict is Verdict.TRUE
        assert report.duration == pytest.approx(99 * PERIOD)


class TestEmitWaiting:
    """Regression: emissions deferred on missing signals were silently
    swallowed; now they are counted and the missing names surface in the
    final report."""

    def test_missing_signal_counted_and_named(self):
        rule = Rule.from_text("r", "n", "x > 0 and y > 0")
        online = OnlineMonitor([rule], min_chunk_rows=5)
        for i in range(60):
            online.feed(i * PERIOD, "x", 1.0)  # y never arrives
        assert online.emit_waits > 0
        report = online.finish()
        assert report.results["r"].verdict is Verdict.UNKNOWN
        assert any(
            "never arrived" in note and "y" in note for note in report.notes
        )

    def test_wait_resolves_when_signal_arrives(self):
        rule = Rule.from_text("r", "n", "x > 0 and y > 0")
        online = OnlineMonitor([rule], min_chunk_rows=5)
        for i in range(20):
            online.feed(i * PERIOD, "x", 1.0)
        waits = online.emit_waits
        assert waits > 0
        for i in range(20, 60):
            online.feed(i * PERIOD, "x", 1.0)
            online.feed(i * PERIOD, "y", 1.0)
        report = online.finish()
        assert report.results["r"].verdict is Verdict.TRUE
        # Once the signal shows up, nothing is reported as never-arrived.
        assert not any("never arrived" in note for note in report.notes)

    def test_no_waits_on_complete_stream(self):
        rule = Rule.from_text("r", "n", "x > 0")
        online = OnlineMonitor([rule], min_chunk_rows=5)
        for i in range(60):
            online.feed(i * PERIOD, "x", 1.0)
        online.finish()
        assert online.emit_waits == 0


class TestBoundedMemoryAcceptance:
    """The PR's acceptance property: stream ≥100× the retention window
    through the paper rules, check the per-signal buffer row span after
    *every* feed, and still produce letters byte-identical to offline."""

    def test_long_stream_never_exceeds_bound(self, nominal_trace):
        from repro.core.monitor import Monitor
        from repro.rules import paper_rules

        retention = 0.25  # 40 s trace => 160x retention
        rules = paper_rules()
        online = OnlineMonitor(
            rules, period=PERIOD, min_chunk_rows=50, retention=retention
        )
        assert nominal_trace.duration >= 100 * retention
        bound = online.max_buffer_rows
        for timestamp, signal, value in nominal_trace.events():
            online.feed(timestamp, signal, value)
            assert online.buffer_row_span() <= bound
        report = online.finish()
        offline = Monitor(rules, period=PERIOD).check(nominal_trace)
        assert report.letters() == offline.letters()
        assert online.peak_buffer_rows > 0
        assert online.late_events == 0

    def test_constant_stream_buffer_is_flat(self):
        """Double the stream, same peak buffer and same evaluation work
        per emitted row — the O(1)-amortized ring buffer, not the old
        re-record-everything trim."""
        rule = Rule.from_text("r", "n", "always[0, 100ms] x > 0")

        def run(n_events):
            registry = MetricsRegistry()
            with use_registry(registry):
                online = OnlineMonitor([rule], min_chunk_rows=10, retention=0.5)
                for i in range(n_events):
                    online.feed(i * PERIOD, "x", 1.0)
            counters = registry.snapshot()["counters"]
            work = counters["online.rows_reevaluated"] / counters["online.rows_emitted"]
            return online.peak_buffer_rows, work

        short_peak, short_work = run(4000)
        long_peak, long_work = run(8000)
        assert long_peak == short_peak
        assert long_work == pytest.approx(short_work, rel=0.01)


ROBUSTNESS_FUZZ_POOL = (
    ("prop", dict(formula="x > 0")),
    ("gated", dict(formula="x > -1", gate="g")),
    ("event", dict(formula="x < 0 -> eventually[0, 120ms] y > 0")),
    ("alw", dict(formula="always[0, 80ms] x > -3")),
    ("nxt", dict(formula="y > 1 -> next y >= 0")),
    ("once", dict(formula="x > 2 -> once[0, 200ms] y > 0")),
    ("hist", dict(formula="historically[0, 60ms] x >= -4")),
)


class TestRobustnessOnline:
    """Streamed margin intervals vs the offline robustness check.

    The contract of :meth:`OnlineMonitor.robustness_intervals`: every
    intermediate interval contains the offline margin interval, the
    upper bound tightens monotonically as chunks are emitted, and at
    :meth:`finish` the interval collapses onto the offline value — same
    bounds, same worst row, same worst time."""

    @pytest.mark.parametrize("seed", range(10))
    def test_streamed_intervals_bracket_offline(self, seed):
        rng = np.random.default_rng(31400 + seed)
        n_rows = int(rng.integers(40, 180))
        trace = uniform_trace(
            {
                "x": [float(v) for v in rng.uniform(-4.0, 4.0, n_rows)],
                "y": [float(v) for v in rng.uniform(-2.0, 3.0, n_rows)],
                "g": [float(v) for v in rng.integers(0, 2, n_rows)],
            }
        )
        n_rules = int(rng.integers(2, len(ROBUSTNESS_FUZZ_POOL) + 1))
        picks = rng.choice(len(ROBUSTNESS_FUZZ_POOL), size=n_rules, replace=False)
        rules = [
            Rule.from_text(
                ROBUSTNESS_FUZZ_POOL[i][0], "fuzz", **ROBUSTNESS_FUZZ_POOL[i][1]
            )
            for i in sorted(picks)
        ]
        chunk = int(rng.integers(1, 41))

        offline = Monitor(rules, period=PERIOD).check(trace, robustness=True)
        online = OnlineMonitor(
            rules, period=PERIOD, min_chunk_rows=chunk, robustness=True
        )

        previous_upper = {rule.rule_id: np.inf for rule in rules}
        for timestamp, signal, value in trace.events():
            online.feed(timestamp, signal, value)
            for rule_id, (lower, upper) in online.robustness_intervals().items():
                off = offline.results[rule_id].robustness
                assert lower <= upper, rule_id
                # Tightens monotonically...
                assert upper <= previous_upper[rule_id], rule_id
                previous_upper[rule_id] = upper
                # ...and always brackets the offline margin interval.
                assert lower <= off.lower, rule_id
                assert upper >= off.upper, rule_id

        report = online.finish()
        assert_equivalent(offline, report)
        final = online.robustness_intervals()
        for rule_id, off_result in offline.results.items():
            off = off_result.robustness
            assert final[rule_id] == (off.lower, off.upper), rule_id
            on = report.results[rule_id].robustness
            assert on is not None, rule_id
            assert (on.lower, on.upper) == (off.lower, off.upper), rule_id
            assert on.worst_row == off.worst_row, rule_id
            assert on.worst_time == off.worst_time, rule_id

    def test_early_decision_when_interval_excludes_zero(self):
        rule = Rule.from_text("r", "n", "x > 0")
        values = [1.0] * 20 + [-2.5] * 5 + [1.0] * 75
        trace = uniform_trace({"x": values})
        online = OnlineMonitor(
            [rule], period=PERIOD, min_chunk_rows=5, robustness=True
        )
        decided_at = None
        for timestamp, signal, value in trace.events():
            online.feed(timestamp, signal, value)
            if decided_at is None and online.early_decisions():
                decided_at = online.early_decisions()["r"]
                _, upper = online.robustness_intervals()["r"]
                assert upper < 0
        online.finish()
        # Decided mid-stream, long before the 2 s stream end.
        assert decided_at is not None
        assert decided_at < 1.0
        assert online.early_decisions()["r"] == decided_at

    def test_no_early_decision_for_satisfied_rule(self):
        rule = Rule.from_text("r", "n", "x > 0")
        trace = uniform_trace({"x": [3.0] * 60})
        online = OnlineMonitor([rule], min_chunk_rows=5, robustness=True)
        online.feed_trace(trace)
        online.finish()
        assert online.early_decisions() == {}

    def test_intervals_require_robustness_mode(self):
        online = OnlineMonitor([Rule.from_text("r", "n", "x > 0")])
        with pytest.raises(TraceError):
            online.robustness_intervals()

    def test_violation_depth_streamed(self):
        """A streamed violation carries the offline depth, not ``None``."""
        rule = Rule.from_text("r", "n", "x < 3")
        trace = uniform_trace({"x": [5.0] * 60})
        offline, online = compare([rule], trace, robustness=True)
        assert [v.margin for v in offline.results["r"].violations] == [-2.0]
        assert_equivalent(offline, online)

    def test_zero_row_stream_finishes_unknown_interval(self):
        online = OnlineMonitor(
            [Rule.from_text("r", "n", "x > 0")], robustness=True
        )
        report = online.finish()
        assert online.robustness_intervals()["r"] == (-np.inf, np.inf)
        robustness = report.results["r"].robustness
        assert robustness.worst_row is None
        assert not robustness.decided


class TestPeriodArgument:
    """Regression: ``period=0`` raised ``ZeroDivisionError``, ``nan`` an
    integer-conversion error, and a negative period was accepted."""

    @pytest.mark.parametrize(
        "period", [0.0, -0.02, float("nan"), float("inf"), -float("inf")]
    )
    def test_rejected_with_a_typed_error_naming_it(self, period):
        with pytest.raises(ParameterError, match="period must be a positive"):
            OnlineMonitor([Rule.from_text("r", "n", "x > 0")], period=period)


class TestChunkAndRetentionArguments:
    """Regression: ``min_chunk_rows`` below 1 was clamped to 1, and a
    NaN or infinite ``retention`` raised a raw ``ValueError`` or
    ``OverflowError`` while sizing the history."""

    @pytest.mark.parametrize("rows", [0, -4])
    def test_min_chunk_rows_below_one_rejected(self, rows):
        with pytest.raises(
            ParameterError, match="min_chunk_rows is a count and must be >= 1"
        ):
            OnlineMonitor([Rule.from_text("r", "n", "x > 0")], min_chunk_rows=rows)

    @pytest.mark.parametrize(
        "retention", [-0.5, float("nan"), float("inf"), -float("inf")]
    )
    def test_bad_retention_rejected(self, retention):
        with pytest.raises(ParameterError, match="retention must be a finite"):
            OnlineMonitor([Rule.from_text("r", "n", "x > 0")], retention=retention)

    def test_boundary_values_accepted(self):
        online = OnlineMonitor(
            [Rule.from_text("r", "n", "x > 0")], min_chunk_rows=1, retention=0.0
        )
        assert online.min_chunk_rows == 1


#: Rules for the block-ingest differential: a future-bounded window (so
#: chunks lag the clock), a past-looking one, and a freshness-aware delta.
BLOCK_RULES = (
    ("alw", "always[0, 60ms] x > -2"),
    ("once", "x > 1 -> once[0, 100ms] y > 0"),
    ("delta", "not rising(y, 4)"),
)

#: Time steps of the differential's event stream, by a drawn code in
#: [0, 600): rarely a non-finite stamp, a small step back (an order
#: error once that signal is buffered) or a far jump back (a late event
#: once the frontier moved); else ties and forward steps.
GLITCHES = {0: "nan", 1: "inf", 2: -0.005, 3: -0.005, 4: -3.0, 5: -3.0, 6: -3.0}
FORWARD = (0.0, 0.0, 0.01, 0.02, 0.03, 0.05)


@st.composite
def event_streams(draw):
    count = draw(st.integers(min_value=0, max_value=400))
    clock = 0.0
    events = []
    for _ in range(count):
        code = draw(st.integers(min_value=0, max_value=599))
        step = GLITCHES.get(code, FORWARD[code % len(FORWARD)])
        signal = draw(st.sampled_from(["x", "x", "y", "y", "z"]))
        value = draw(st.sampled_from([-3.0, -1.0, 0.0, 1.0, 2.0]))
        if isinstance(step, str):
            events.append((float(step), signal, value))
            continue
        if step > 0:
            clock += step
        # Backward steps are one-off stamps; the clock itself stays.
        events.append((clock + min(step, 0.0), signal, value))
    return events


def _ingest(events, cuts, min_chunk_rows, blocks):
    """Feed ``events`` per event through the oracle or as blocks cut at
    ``cuts``; returns everything the two paths must agree on."""
    registry = MetricsRegistry()
    with use_registry(registry):
        rules = [Rule.from_text(rid, rid, text) for rid, text in BLOCK_RULES]
        online = OnlineMonitor(
            rules, min_chunk_rows=min_chunk_rows, retention=0.1, robustness=True
        )
        live, error = [], None
        try:
            if blocks:
                for lo, hi in zip([0] + cuts, cuts + [len(events)]):
                    piece = events[lo:hi]
                    live.extend(
                        online.feed_block(
                            [t for t, _, _ in piece],
                            [name for _, name, _ in piece],
                            [v for _, _, v in piece],
                        )
                    )
            else:
                for event in events:
                    live.extend(loop_feed(online, *event))
        except TraceError as exc:
            error = str(exc)
            # A block hands over what it finalized before the bad event.
            live.extend(exc.violations)
        # What was ingested before the error (or the end).
        state = (
            online._start_time,
            online._latest,
            online.late_events,
            {name: online._buffer.updates(name) for name in online._buffer.signals()},
        )
        report = online.finish()
    counters = {
        name: registry.counters[name].value
        for name in (
            "online.chunks",
            "online.rows_emitted",
            "online.rows_reevaluated",
            "online.late_events",
            "online.emit_waiting",
        )
        if name in registry.counters
    }
    return dict(
        live=[(v.rule_id, v.start_row, v.end_row, v.margin) for v in live],
        error=error,
        state=state,
        counters=counters,
        peak=online.peak_buffer_rows,
        notes=report.notes,
        duration=report.duration,
        results={
            rule_id: (
                result.verdict,
                [(v.start_row, v.end_row, v.margin) for v in result.violations],
                result.rows_total,
                result.rows_checked,
                result.rows_unknown,
                result.robustness,
            )
            for rule_id, result in report.results.items()
        },
    )


class TestFeedBlockDifferential:
    """``feed_block`` against the per-event oracle: cut anywhere, a
    stream must chunk, count, report and fail exactly as fed one event
    at a time."""

    @given(
        events=event_streams(),
        data=st.data(),
        min_chunk_rows=st.sampled_from([1, 7, 50]),
    )
    @settings(max_examples=150, deadline=None)
    def test_blocks_match_per_event_feed(self, events, data, min_chunk_rows):
        cuts = sorted(
            data.draw(
                st.sets(st.integers(min_value=1, max_value=max(len(events) - 1, 1))),
                label="cuts",
            )
            & set(range(1, len(events)))
        )
        expected = _ingest(events, cuts, min_chunk_rows, blocks=False)
        assert _ingest(events, cuts, min_chunk_rows, blocks=True) == expected

    def test_named_stream_exercises_every_branch(self):
        """One fixed stream hitting all the differential's cases: an
        unreferenced signal, ties, late events, emits and, last, an
        order error in the middle of a block."""
        events = []
        for i in range(300):
            t = i * 0.01
            events += [(t, "x", 1.0), (t, "y", 0.0), (t, "z", 5.0)]
        events += [(0.5, "x", -3.0), (2.99, "y", 1.0), (2.9, "y", 1.0)]
        events += [(3.0 + i * 0.01, "x", 1.0) for i in range(50)]
        # [902] puts the backwards y at the head of a block.
        for cuts in ([], [7], [450, 451, 900], [902]):
            for min_chunk_rows in (1, 7, 50):
                expected = _ingest(events, cuts, min_chunk_rows, blocks=False)
                got = _ingest(events, cuts, min_chunk_rows, blocks=True)
                assert got == expected
                assert got["error"].startswith("y: update at t=2.900000")
                assert got["state"][2] == 1  # the late x at t=0.5
                assert got["counters"]["online.chunks"] > 0

    def test_block_longer_than_one_scan(self):
        """A block of more events than one scan segment (4,096) chunks
        exactly as the per-event oracle does, across segment seams."""
        events = []
        for i in range(2500):
            t = i * 0.01
            events += [(t, "x", 1.0 if i % 300 < 290 else -3.0), (t, "z", 0.0)]
            if i % 3 == 0:
                events.append((t, "y", float(i % 7)))
        assert len(events) > 4096
        for min_chunk_rows in (1, 50):
            expected = _ingest(events, [], min_chunk_rows, blocks=False)
            assert _ingest(events, [], min_chunk_rows, blocks=True) == expected
            assert expected["live"]

    def test_non_finite_time_ingests_the_prefix(self):
        online = OnlineMonitor([Rule.from_text("r", "n", "x > 0")])
        with pytest.raises(TraceError, match="x: update at non-finite time t=nan"):
            online.feed_block([0.0, 0.02, float("nan"), 0.04], ["x"] * 4, [1.0] * 4)
        assert online._latest == 0.02
        assert online._buffer.update_count("x") == 2

    def test_column_lengths_must_agree(self):
        online = OnlineMonitor([Rule.from_text("r", "n", "x > 0")])
        with pytest.raises(TraceError, match="differ in length"):
            online.feed_block([0.0, 0.02], ["x"], [1.0, 1.0])
