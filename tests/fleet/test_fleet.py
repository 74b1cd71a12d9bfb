"""The fleet service: shards, backpressure, rollups, status, replay."""

import asyncio
import copy
import json
import urllib.request

import pytest

from helpers import interleave, loop_replay_async, uniform_trace
from repro.core.monitor import Rule
from repro.errors import ParameterError, TraceError
from repro.fleet import (
    FLEET_ROLLUP,
    FLEET_SCHEMA_VERSION,
    POLICIES,
    FleetService,
    StreamShard,
    assign_streams,
    fleet_rollup,
    replay_traces,
)
from repro.fleet.status import StatusServer
from repro.logs.vehicle_logs import generate_drive_logs
from repro.rules.safety_rules import paper_rules
from repro.schema import require_valid, validate

PERIOD = 0.02


def simple_rules():
    return [
        Rule.from_text("pos", "f", "x > 0"),
        Rule.from_text("alw", "f", "always[0, 60ms] x > -5"),
    ]


def sawtooth_trace(n=400, name="t"):
    return uniform_trace(
        {"x": [float(1 if i % 50 < 40 else -1) for i in range(n)]}, name=name
    )


class TestStreamShard:
    def test_feed_and_finish(self):
        shard = StreamShard("v1", simple_rules(), min_chunk_rows=10)
        for i in range(200):
            shard.feed(i * PERIOD, "x", 1.0)
        report = shard.finish()
        assert report.letters() == {"pos": "S", "alw": "S"}
        entry = shard.snapshot()
        assert entry["events"] == 200
        assert entry["chunks"] > 0
        assert entry["finished"] is True
        assert entry["letters"] == {"pos": "S", "alw": "S"}

    def test_metrics_stay_private_to_the_shard(self):
        """Two shards fed different amounts must not share counters."""
        a = StreamShard("a", simple_rules(), min_chunk_rows=10)
        b = StreamShard("b", simple_rules(), min_chunk_rows=10)
        for i in range(100):
            a.feed(i * PERIOD, "x", 1.0)
        for i in range(300):
            b.feed(i * PERIOD, "x", 1.0)
        assert a.snapshot()["chunks"] < b.snapshot()["chunks"]

    def test_live_snapshot_has_null_letters(self):
        shard = StreamShard("v1", simple_rules(), min_chunk_rows=10)
        shard.feed(0.0, "x", 1.0)
        entry = shard.snapshot()
        assert entry["finished"] is False
        assert entry["letters"] is None


class TestShardMargins:
    def test_margins_null_without_robustness(self):
        shard = StreamShard("v1", simple_rules(), min_chunk_rows=10)
        shard.feed(0.0, "x", 1.0)
        assert shard.snapshot()["margins"] is None

    def test_live_margins_have_open_lower_bound(self):
        shard = StreamShard(
            "v1", simple_rules(), min_chunk_rows=10, robustness=True
        )
        for i in range(100):
            shard.feed(i * PERIOD, "x", 1.0)
        margins = shard.snapshot()["margins"]
        assert set(margins) == {"pos", "alw"}
        # Future rows could be arbitrarily violating: -inf until finish.
        assert margins["pos"]["lower"] == "-inf"

    def test_finished_margins_equal_the_offline_check(self):
        from repro.core.monitor import Monitor
        from repro.core.robustness import float_from_json

        trace = sawtooth_trace()
        shard = StreamShard(
            "v1", simple_rules(), min_chunk_rows=10, robustness=True
        )
        for timestamp, signal, value in trace.events():
            shard.feed(timestamp, signal, value)
        shard.finish()
        margins = shard.snapshot()["margins"]
        offline = Monitor(simple_rules(), period=PERIOD).check(
            trace, robustness=True
        )
        for rule_id, bounds in margins.items():
            robustness = offline.result(rule_id).robustness
            assert float_from_json(bounds["lower"]) == robustness.lower
            assert float_from_json(bounds["upper"]) == robustness.upper

    def test_rollup_aggregates_the_fleet_worst_margin(self):
        from repro.core.robustness import float_from_json

        # Stream "far" stays at x=3 (margin 3), "near" at x=1 (margin 1):
        # the fleet-level block is the pointwise minimum — the near one.
        far = StreamShard(
            "far", simple_rules(), min_chunk_rows=10, robustness=True
        )
        near = StreamShard(
            "near", simple_rules(), min_chunk_rows=10, robustness=True
        )
        for i in range(200):
            far.feed(i * PERIOD, "x", 3.0)
            near.feed(i * PERIOD, "x", 1.0)
        far.finish()
        near.finish()
        rollup = require_valid(FLEET_ROLLUP, fleet_rollup([far, near]))
        fleet_margins = rollup["fleet"]["margins"]
        near_margins = rollup["streams"]["near"]["margins"]
        assert fleet_margins["pos"] == near_margins["pos"]
        assert float_from_json(fleet_margins["pos"]["upper"]) == 1.0

    def test_mixed_fleet_aggregates_only_reporting_streams(self):
        plain = StreamShard("plain", simple_rules(), min_chunk_rows=10)
        rob = StreamShard(
            "rob", simple_rules(), min_chunk_rows=10, robustness=True
        )
        for i in range(100):
            plain.feed(i * PERIOD, "x", 1.0)
            rob.feed(i * PERIOD, "x", 1.0)
        rollup = require_valid(FLEET_ROLLUP, fleet_rollup([plain, rob]))
        assert rollup["streams"]["plain"]["margins"] is None
        assert set(rollup["fleet"]["margins"]) == {"pos", "alw"}

    def test_boolean_only_fleet_has_null_aggregate(self):
        shard = StreamShard("v1", simple_rules(), min_chunk_rows=10)
        shard.feed(0.0, "x", 1.0)
        rollup = require_valid(FLEET_ROLLUP, fleet_rollup([shard]))
        assert rollup["fleet"]["margins"] is None

    def test_validator_rejects_inverted_bounds(self):
        shard = StreamShard(
            "v1", simple_rules(), min_chunk_rows=10, robustness=True
        )
        shard.feed(0.0, "x", 1.0)
        rollup = fleet_rollup([shard])
        rollup["streams"]["v1"]["margins"]["pos"] = {
            "lower": 2.0,
            "upper": 1.0,
        }
        assert any(
            "inverted" in problem
            for problem in validate(FLEET_ROLLUP, rollup)
        )


def partitioned_rules():
    """One rule with a statically-dead disjunct: the automata pass can
    drop ``x`` and ``y`` (only the ``w`` branch is reachable)."""
    return [
        Rule.from_text(
            "mixed", "f", "(x > 0 and x <= 0 and y > 0) or (w <= 0)"
        ),
    ]


class TestShardObservability:
    def test_hint_null_without_observability(self):
        shard = StreamShard("v1", simple_rules(), min_chunk_rows=10)
        shard.feed(0.0, "x", 1.0)
        assert shard.observability_hint() is None
        assert shard.snapshot()["observability"] is None

    def test_hint_partitions_referenced_signals(self):
        shard = StreamShard(
            "v1", partitioned_rules(), min_chunk_rows=10, observability=True
        )
        hint = shard.snapshot()["observability"]
        assert hint == {
            "referenced": ["w", "x", "y"],
            "required": ["w"],
            "droppable": ["x", "y"],
            "bandwidth_hint": pytest.approx(2 / 3),
        }

    def test_uncompilable_rule_requires_all_its_signals(self):
        # Past-time operators are outside the automata fragment, so the
        # hint must conservatively keep every signal that rule reads.
        rules = partitioned_rules() + [
            Rule.from_text("past", "f", "once[0, 0.2] y > 0"),
        ]
        shard = StreamShard(
            "v1", rules, min_chunk_rows=10, observability=True
        )
        hint = shard.observability_hint()
        assert hint["required"] == ["w", "y"]
        assert hint["droppable"] == ["x"]

    def test_hint_is_static_and_cached(self):
        shard = StreamShard(
            "v1", partitioned_rules(), min_chunk_rows=10, observability=True
        )
        first = shard.observability_hint()
        for i in range(100):
            shard.feed(i * PERIOD, "w", -1.0)
        shard.finish()
        assert shard.observability_hint() is first

    def test_fleet_block_unions_required_over_streams(self):
        # Stream "b" runs a rule that genuinely needs x, so x is no
        # longer droppable fleet-wide even though "a" could shed it.
        a = StreamShard(
            "a", partitioned_rules(), min_chunk_rows=10, observability=True
        )
        b = StreamShard(
            "b", simple_rules(), min_chunk_rows=10, observability=True
        )
        rollup = require_valid(FLEET_ROLLUP, fleet_rollup([a, b]))
        block = rollup["fleet"]["observability"]
        assert block["referenced"] == ["w", "x", "y"]
        assert block["required"] == ["w", "x"]
        assert block["droppable"] == ["y"]

    def test_fleet_block_skips_non_reporting_streams(self):
        plain = StreamShard("plain", simple_rules(), min_chunk_rows=10)
        obs = StreamShard(
            "obs", partitioned_rules(), min_chunk_rows=10, observability=True
        )
        rollup = require_valid(FLEET_ROLLUP, fleet_rollup([plain, obs]))
        assert rollup["streams"]["plain"]["observability"] is None
        assert rollup["fleet"]["observability"]["droppable"] == ["x", "y"]

    def test_fleet_block_null_when_nobody_reports(self):
        shard = StreamShard("v1", simple_rules(), min_chunk_rows=10)
        rollup = require_valid(FLEET_ROLLUP, fleet_rollup([shard]))
        assert rollup["fleet"]["observability"] is None

    def test_validator_rejects_broken_partition(self):
        shard = StreamShard(
            "v1", partitioned_rules(), min_chunk_rows=10, observability=True
        )
        rollup = fleet_rollup([shard])
        rollup["streams"]["v1"]["observability"]["droppable"] = []
        assert any(
            "partition" in problem
            for problem in validate(FLEET_ROLLUP, rollup)
        )
        fresh = StreamShard(
            "v1", partitioned_rules(), min_chunk_rows=10, observability=True
        )
        rollup = fleet_rollup([fresh])
        rollup["fleet"]["observability"]["bandwidth_hint"] = 1.5
        assert any(
            "bandwidth_hint" in problem
            for problem in validate(FLEET_ROLLUP, rollup)
        )


class TestFleetService:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_streams_isolated_and_reported(self):
        async def scenario():
            service = FleetService(simple_rules(), min_chunk_rows=10)
            for i in range(300):
                t = i * PERIOD
                await service.submit("good", t, "x", 1.0)
                await service.submit("bad", t, "x", -1.0 if 50 <= i < 80 else 1.0)
            return await service.close()

        report = self._run(scenario())
        assert report.reports["good"].letters()["pos"] == "S"
        assert report.reports["bad"].letters()["pos"] == "V"
        assert report.violated_streams() == ["bad"]
        rollup = require_valid(FLEET_ROLLUP, report.rollup)
        assert rollup["fleet"]["streams"] == 2
        assert rollup["fleet"]["events"] == 600

    def test_drop_policy_counts_dropped_events(self):
        async def scenario():
            service = FleetService(
                simple_rules(), inbox_events=4, policy="drop", batch_events=4
            )
            # Submit far more than the inbox holds without ever yielding
            # to the worker: overflow must be dropped, not deadlock.
            for i in range(100):
                await service.submit("s", i * PERIOD, "x", 1.0)
            report = await service.close()
            return service, report

        service, report = self._run(scenario())
        dropped = service.registry.counters["fleet.backpressure_dropped"].value
        assert dropped > 0
        events = report.rollup["streams"]["s"]["events"]
        assert events + dropped == 100
        assert report.rollup["fleet"]["backpressure"]["dropped"] == dropped

    def test_block_policy_delivers_everything(self):
        async def scenario():
            service = FleetService(
                simple_rules(), inbox_events=4, policy="block", batch_events=4
            )
            for i in range(100):
                await service.submit("s", i * PERIOD, "x", 1.0)
            return service, await service.close()

        service, report = self._run(scenario())
        blocked = service.registry.counters["fleet.backpressure_blocked"].value
        assert blocked > 0, "a 4-slot inbox must have filled at least once"
        assert report.rollup["streams"]["s"]["events"] == 100
        assert report.rollup["fleet"]["backpressure"]["blocked"] == blocked

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            FleetService(simple_rules(), policy="best-effort")

    def test_submit_after_close_rejected(self):
        async def scenario():
            service = FleetService(simple_rules())
            await service.submit("s", 0.0, "x", 1.0)
            await service.close()
            with pytest.raises(RuntimeError):
                await service.submit("s", 1.0, "x", 1.0)

        self._run(scenario())


class TestRollupSchema:
    def _rollup(self):
        shard = StreamShard("v1", simple_rules(), min_chunk_rows=10)
        for i in range(100):
            shard.feed(i * PERIOD, "x", 1.0)
        shard.finish()
        return fleet_rollup([shard])

    def test_valid_rollup_passes(self):
        rollup = self._rollup()
        assert rollup["schema"] == FLEET_SCHEMA_VERSION
        assert validate(FLEET_ROLLUP, rollup) == []

    def test_rollup_round_trips_through_json(self):
        rollup = json.loads(json.dumps(self._rollup()))
        assert validate(FLEET_ROLLUP, rollup) == []

    def test_mutations_are_caught(self):
        rollup = self._rollup()
        rollup["streams"]["v1"]["letters"] = {"pos": "maybe"}
        assert validate(FLEET_ROLLUP, rollup)
        rollup = self._rollup()
        rollup["fleet"]["streams"] = 7
        assert validate(FLEET_ROLLUP, rollup)
        rollup = self._rollup()
        del rollup["fleet"]["backpressure"]
        with pytest.raises(ValueError):
            require_valid(FLEET_ROLLUP, rollup)

    def test_merged_totals_match_stream_sums(self):
        a = StreamShard("a", simple_rules(), min_chunk_rows=10)
        b = StreamShard("b", simple_rules(), min_chunk_rows=10)
        for i in range(80):
            a.feed(i * PERIOD, "x", 1.0)
        for i in range(120):
            b.feed(i * PERIOD, "x", 1.0)
        rollup = fleet_rollup([a, b])
        streams = rollup["streams"]
        assert rollup["fleet"]["events"] == 200
        assert rollup["fleet"]["chunks"] == (
            streams["a"]["chunks"] + streams["b"]["chunks"]
        )


class TestStatusServer:
    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_out_of_range_port_is_refused_on_construction(self, port):
        # Regression: start() died with a raw OverflowError from bind().
        with pytest.raises(ParameterError, match="must be a TCP port in 0-65535"):
            StatusServer(None, port=port)

    def test_serves_live_rollup_and_health(self):
        async def scenario():
            service = FleetService(simple_rules(), min_chunk_rows=10)
            for i in range(100):
                await service.submit("s", i * PERIOD, "x", 1.0)
            server = StatusServer(service, port=0).start()
            try:
                base = "http://127.0.0.1:%d" % server.port
                # The handler thread hops back onto this loop for the
                # rollup, so the fetch itself must run off-loop.
                status = await asyncio.get_event_loop().run_in_executor(
                    None, _fetch, base + "/status"
                )
                health = await asyncio.get_event_loop().run_in_executor(
                    None, _fetch, base + "/healthz"
                )
                missing = await asyncio.get_event_loop().run_in_executor(
                    None, _fetch_code, base + "/nope"
                )
            finally:
                server.stop()
            await service.close()
            return status, health, missing

        status, health, missing = asyncio.run(scenario())
        assert validate(FLEET_ROLLUP, status) == []
        assert status["streams"]["s"]["events"] == 100
        assert health == {"ok": True}
        assert missing == 404


def _fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _fetch_code(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


class TestReplay:
    def test_assign_cycles_traces_over_streams(self):
        traces = [sawtooth_trace(name="a"), sawtooth_trace(name="b")]
        pairs = assign_streams(traces, 5)
        assert [stream_id for stream_id, _ in pairs] == [
            "s00:a", "s01:b", "s02:a", "s03:b", "s04:a",
        ]

    def test_assign_rejects_empty_input(self):
        with pytest.raises(TraceError):
            assign_streams([], 4)
        with pytest.raises(ParameterError, match="streams is a count"):
            assign_streams([sawtooth_trace()], 0)

    def test_interleave_is_time_ordered(self):
        pairs = assign_streams([sawtooth_trace(name="a")], 3)
        stamps = [event[0] for event in interleave(pairs)]
        assert stamps == sorted(stamps)

    def test_replay_across_eight_streams(self):
        traces = [sawtooth_trace(name="t%d" % i, n=200 + 40 * i) for i in range(3)]
        report = replay_traces(traces, simple_rules(), streams=8, min_chunk_rows=10)
        rollup = require_valid(FLEET_ROLLUP, report.rollup)
        assert rollup["fleet"]["streams"] == 8
        for entry in rollup["streams"].values():
            assert entry["chunks"] > 0, entry["stream"]
            assert entry["finished"] is True
        # Cycled streams replaying the same log must agree exactly.
        letters = {
            entry["stream"].split(":", 1)[1]: entry["letters"]
            for entry in rollup["streams"].values()
        }
        for entry in rollup["streams"].values():
            name = entry["stream"].split(":", 1)[1]
            assert entry["letters"] == letters[name]


def dip_trace(n=3000, dip=2000, name="dip"):
    """``x`` stays positive except for ten rows starting at ``dip``."""
    return uniform_trace(
        {"x": [-1.0 if dip <= i < dip + 10 else 1.0 for i in range(n)]}, name=name
    )


class TestReplayBackpressure:
    def test_drop_policy_sheds_nothing_a_draining_fleet_can_take(self):
        """Regression: the replay never yielded to the workers, so under
        ``drop`` every stream kept only its first ``inbox_events`` events
        and a late violation read as a pass."""
        traces = [dip_trace(name="a"), sawtooth_trace(n=1500, name="b")]
        kwargs = dict(streams=3, min_chunk_rows=10)
        block = replay_traces(traces, simple_rules(), **kwargs)
        drop = replay_traces(traces, simple_rules(), policy="drop", **kwargs)
        assert drop.rollup["fleet"]["backpressure"]["dropped"] == 0
        assert drop.rollup["fleet"]["events"] == block.rollup["fleet"]["events"]
        for stream_id, report in block.reports.items():
            assert drop.reports[stream_id].letters() == report.letters()
        assert drop.reports["s00:a"].letters()["pos"] == "V"

    def test_dropped_events_are_counted_and_noted_per_stream(self):
        traces = [dip_trace(name="a")]
        report = replay_traces(
            traces, simple_rules(), streams=2, min_chunk_rows=10,
            inbox_events=16, policy="drop",
        )
        fleet = report.rollup["fleet"]
        dropped = fleet["backpressure"]["dropped"]
        assert dropped > 0
        submitted = fleet["metrics"]["counters"]["fleet.events_submitted"]
        assert submitted == fleet["events"] + dropped == 2 * 3000
        noted = 0
        for stream_id, stream_report in report.reports.items():
            lost = 3000 - report.rollup["streams"][stream_id]["events"]
            notes = [note for note in stream_report.notes if "dropped at a full inbox" in note]
            assert notes == [
                "fleet: %d event(s) dropped at a full inbox (backpressure "
                "policy 'drop'); the monitor never saw them" % lost
            ]
            noted += lost
        assert noted == dropped

    def test_block_policy_paces_the_replay_by_its_inboxes(self):
        """Under ``block`` the replay only hands the loop to the workers
        when an inbox is full: it waits, counted, and loses nothing."""
        traces = [dip_trace(name="a")]
        report = replay_traces(traces, simple_rules(), streams=2, min_chunk_rows=10)
        fleet = report.rollup["fleet"]
        assert fleet["backpressure"]["blocked"] > 0
        assert fleet["backpressure"]["dropped"] == 0
        assert fleet["events"] == 2 * 3000


class TestWorkerFailure:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_dead_worker_error_reaches_the_producer(self, policy):
        """Regression: a worker killed by a bad event left the producer
        awaiting a full inbox nobody drained (and ``close`` too)."""

        async def scenario():
            service = FleetService(
                paper_rules(), inbox_events=4, batch_events=2, policy=policy
            )
            with pytest.raises(TraceError, match="precedes last update"):
                await service.submit("s", 1.0, "Velocity", 20.0)
                await service.submit("s", 0.5, "Velocity", 20.0)
                for i in range(20):
                    await service.submit("s", 1.0 + 0.02 * i, "Velocity", 20.0)
                await service.close()
            # The error is kept: later calls raise it too, never hang.
            with pytest.raises(TraceError, match="precedes last update"):
                await service.submit("s", 2.0, "Velocity", 20.0)
            with pytest.raises(TraceError, match="precedes last update"):
                await service.submit_block("t", [2.0], ["Velocity"], [20.0])

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_close_after_a_failure_stops_every_worker(self, policy):
        """A healthy stream's worker, parked on its empty inbox, must not
        outlive the ``close`` that raises another stream's failure."""

        async def scenario():
            service = FleetService(
                paper_rules(), inbox_events=4, batch_events=2, policy=policy
            )
            await service.submit("healthy", 1.0, "Velocity", 20.0)
            await service.submit("bad", 1.0, "Velocity", 20.0)
            await service.submit("bad", 0.5, "Velocity", 20.0)
            await asyncio.sleep(0)  # both workers run and park or die
            with pytest.raises(TraceError, match="precedes last update"):
                await service.close()
            assert len(service._workers) == 2
            assert all(worker.done() for worker in service._workers.values())
            with pytest.raises(TraceError, match="precedes last update"):
                await service.close()

        asyncio.run(asyncio.wait_for(scenario(), timeout=30))


@pytest.fixture(scope="module")
def drive_assignments():
    return assign_streams(generate_drive_logs(seed=2014), 8)


def comparable(rollup):
    """A rollup without what depends on batching or on the clock: the
    batch count, blocked submits and timing histograms."""
    rollup = copy.deepcopy(rollup)
    entries = [rollup["fleet"]] + list(rollup["streams"].values())
    for entry in entries:
        histograms = entry["metrics"]["histograms"]
        for name in [name for name in histograms if name.endswith(".seconds")]:
            del histograms[name]
    counters = rollup["fleet"]["metrics"]["counters"]
    del counters["fleet.batches"]
    counters.pop("fleet.backpressure_blocked", None)
    del rollup["fleet"]["backpressure"]["blocked"]
    return rollup


class TestReplayDifferential:
    """The sliced block replay against the per-event oracle: the time
    merge of every event (``interleave``), one ``submit`` and one
    ``OnlineMonitor`` event at a time."""

    @pytest.mark.parametrize("robustness", [False, True])
    def test_drive_log_rollup_equals_the_per_event_replay(
        self, drive_assignments, robustness
    ):
        traces = [trace for _, trace in drive_assignments[:6]]
        report = replay_traces(traces, paper_rules(), streams=8, robustness=robustness)
        expected = asyncio.run(
            loop_replay_async(drive_assignments, paper_rules(), robustness=robustness)
        )
        assert comparable(report.rollup) == comparable(expected.rollup)
        assert report.rollup["fleet"]["events"] == sum(
            trace.update_count() for _, trace in drive_assignments
        )
        for stream_id, stream_report in expected.reports.items():
            assert report.reports[stream_id].summary() == stream_report.summary()
