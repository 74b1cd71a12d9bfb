"""The four benchmark workloads.

Every workload is a closed loop: one client in one process issues its
next operation only when the previous one has returned, with no worker
pool and the fleet status server off.  A workload's operations form a
fixed *pass*; a run repeats whole passes, so every run measures the same
mix of operations.  Each class records why it was chosen (``why``),
how its output is checked (``verify``) and which program functions its
traced run wraps (``patches``) and reports (``layer_metrics``).

Imports of :mod:`repro` happen inside :meth:`Workload.setup`, which is
the part of process start-up the ``setup_s`` metric measures.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from clocks import WallClock
from spans import Patch, Tracer

#: Layer metric values: name -> (value, unit).
Metrics = Dict[str, Tuple[float, str]]


class Workload:
    name = ""
    why = ""
    #: Input kinds the load generator must provide (see loadgen.WRITERS).
    inputs: Tuple[str, ...] = ()
    #: What one unit of ``throughput_per_s`` is, for the printed table.
    unit_label = ""
    #: The workload-specific names of the end-to-end metrics.
    aliases: Dict[str, str] = {}

    def __init__(self, root: str, seed: int, input_dirs: Dict[str, str]) -> None:
        self.root = root
        self.seed = seed
        self.input_dirs = input_dirs
        #: Latency samples in seconds (``op_p50_ms``, ``op_p90_ms``).
        self.latencies: List[float] = []
        #: Times operations; the end-to-end run swaps in a SpeedProbe.
        self.clock = WallClock()

    def setup(self) -> None:
        """Imports, DBC load, rule parsing, monitor construction."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after setup: expected outputs for ``verify``."""

    def ops_per_pass(self) -> int:
        raise NotImplementedError

    def op(self, index: int) -> Tuple[float, object]:
        """Run operation ``index`` of a pass; return (units, outcome)."""
        raise NotImplementedError

    @contextlib.contextmanager
    def measuring(self) -> Iterator[None]:
        """Instruments every run keeps on, traced or not (none by default)."""
        yield

    def record_latency(self, index: int, seconds: float) -> None:
        self.latencies.append(seconds)

    def verify(self, index: int, outcome: object) -> Optional[str]:
        """Why ``outcome`` is wrong, or ``None`` when it is correct."""
        raise NotImplementedError

    def sample_op(self) -> int:
        """The operation a traced run of another workload samples."""
        return 0

    def patches(self, tracer: Tracer) -> List[Patch]:
        """What the traced run wraps; also resets the layer counts."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        raise NotImplementedError

    # ------------------------------------------------------------------

    def golden(self, name: str) -> str:
        with open(
            os.path.join(self.root, "results", name), "r", encoding="utf-8"
        ) as handle:
            return handle.read()


def _letters(report) -> str:
    letters = report.letters()
    return "".join(letters[rule_id] for rule_id in sorted(letters))


def _stat(tracer: Tracer, name: str, key: str) -> float:
    return tracer.by_name().get(name, {}).get(key, 0.0)


@contextlib.contextmanager
def timed_calls(workload: Workload, owner: object, attribute: str, keep=None):
    """Add the duration of every call of ``owner.attribute`` to the
    workload's latency samples (those ``keep(args)`` accepts), timed by
    the workload's clock; restore the attribute afterwards."""
    original = owner.__dict__[attribute]

    def timed(*args):
        clock = workload.clock
        mark = clock.mark()
        try:
            return original(*args)
        finally:
            if keep is None or keep(args):
                workload.latencies.append(clock.seconds(mark))

    setattr(owner, attribute, timed)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


class Counter:
    """Observer that counts calls and calls whose result passes a test."""

    def __init__(self, test=None) -> None:
        self.calls = 0
        self.hits = 0
        self.total = 0.0
        self._test = test

    def __call__(self, args: tuple, result: object) -> None:
        self.calls += 1
        if self._test is not None:
            value = self._test(args, result)
            self.hits += bool(value)
            self.total += float(value)


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------


class CampaignWorkload(Workload):
    name = "campaign"
    why = (
        "Full-fidelity Table I rows, one per injection kind: the simulator "
        "layers (can, hil, vehicle, acc) do about 99% of the work here, so "
        "a simulator optimisation shows its win on this workload."
    )
    unit_label = "simulated s per host s"
    aliases = {
        "throughput_per_s": "campaign_sim_rate",
        "op_p50_ms": "campaign_hold_p50_ms",
        "op_p90_ms": "campaign_hold_p90_ms",
    }
    #: One Table I row per injection kind, at the paper's hold times.
    SLICE = (
        "Random Velocity",
        "Ballista ACCSetSpeed",
        "Bitflips Velocity",
        "mBallista All",
        "mBitflip4 Range+",
    )
    #: The seed ``results/table1.txt`` was produced with.
    GOLDEN_SEED = 2014

    def setup(self) -> None:
        from repro.testing.campaign import RobustnessCampaign, table1_tests

        self.campaign = RobustnessCampaign(seed=self.seed)
        tests = {test.label: test for test in table1_tests()}
        self.tests = [tests[label] for label in self.SLICE]

    def prepare(self) -> None:
        self.expected: Dict[str, str] = {}
        if self.seed != self.GOLDEN_SEED:
            return
        for line in self.golden("table1.txt").splitlines():
            parts = line.split()
            letters = []
            while parts and parts[-1] in ("S", "V"):
                letters.insert(0, parts.pop())
            if letters and parts:
                self.expected[" ".join(parts)] = "".join(letters)

    @contextlib.contextmanager
    def measuring(self) -> Iterator[None]:
        """Time every injection hold: simulating the 20 s an injected
        fault is held is the campaign's unit of progress.  A pass has
        about 70 holds but only five rows, too few for percentiles."""
        from repro.hil.simulator import HilSimulator

        hold = self.campaign.hold_time
        with timed_calls(self, HilSimulator, "run_for", lambda args: args[1] == hold):
            yield

    def record_latency(self, index: int, seconds: float) -> None:
        """Latency samples are the injection holds, not whole rows."""

    def ops_per_pass(self) -> int:
        return len(self.tests)

    def op(self, index: int) -> Tuple[float, object]:
        test = self.tests[index]
        outcome = self.campaign.run_test(test)
        return self.campaign.scenario_duration(test), outcome

    def verify(self, index: int, outcome) -> Optional[str]:
        label = self.tests[index].label
        letters = "".join(outcome.letters[rid] for rid in sorted(outcome.letters))
        if self.seed == self.GOLDEN_SEED:
            if letters != self.expected.get(label):
                return "%s: letters %s, table1.txt has %s" % (
                    label, letters, self.expected.get(label),
                )
        elif outcome.letters["rule0"] != "S":
            return "%s: rule0 violated (%s)" % (label, letters)
        return None

    def sample_op(self) -> int:
        return self.SLICE.index("Ballista ACCSetSpeed")

    def patches(self, tracer: Tracer) -> List[Patch]:
        from repro.acc.controller import FsraccController
        from repro.can.bus import CanBus, JitterModel
        from repro.can.database import CanDatabase
        from repro.core.monitor import Monitor
        from repro.hil.injection import InjectionHarness
        from repro.hil.simulator import HilSimulator
        from repro.hil.tracing import TraceRecorder
        from repro.vehicle.driver import DriverScript
        from repro.vehicle.dynamics import LongitudinalCar
        from repro.vehicle.lead import LeadVehicle
        from repro.vehicle.sensors import RangeSensor

        # A tap returns the payload (None only under a silence injection,
        # which the campaign slice has none of); a frame whose payload
        # comes back unchanged need not be decoded.
        self.taps = Counter(lambda args, result: result == args[2])
        return [
            (HilSimulator, "step", "hil.step", None),
            (CanBus, "step", "can.bus", None),
            (CanDatabase, "encode", "can.encode", None),
            (CanDatabase, "decode", "can.decode", None),
            (JitterModel, "delay", "can.jitter", None),
            (InjectionHarness, "tap", "hil.inject.tap", self.taps),
            (TraceRecorder, "on_frame", "hil.record", None),
            (LongitudinalCar, "step", "vehicle.car", None),
            (RangeSensor, "measure", "vehicle.sensor", None),
            (LeadVehicle, "step", "vehicle.lead", None),
            (DriverScript, "step", "vehicle.driver", None),
            (FsraccController, "step", "acc.step", None),
            (Monitor, "check", "campaign.check", None),
        ]

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        metrics: Metrics = {
            "hil.step.self_s": (_stat(tracer, "hil.step", "self_s"), "s"),
            "can.bus.self_s": (_stat(tracer, "can.bus", "self_s"), "s"),
        }
        for span, metric in (
            ("can.encode", "can.encode_s"),
            ("can.decode", "can.decode_s"),
            ("can.jitter", "can.jitter_s"),
            ("hil.inject.tap", "hil.inject.tap_s"),
            ("hil.record", "hil.record_s"),
            ("vehicle.car", "vehicle.car_s"),
            ("vehicle.sensor", "vehicle.sensor_s"),
            ("vehicle.lead", "vehicle.lead_s"),
            ("vehicle.driver", "vehicle.driver_s"),
            ("acc.step", "acc.step_s"),
            ("campaign.check", "campaign.check_s"),
        ):
            metrics[metric] = (_stat(tracer, span, "total_s"), "s")
        metrics.update(
            {
                "hil.steps": (_stat(tracer, "hil.step", "calls"), "count"),
                "can.frames": (_stat(tracer, "hil.record", "calls"), "count"),
                "can.encode.calls": (_stat(tracer, "can.encode", "calls"), "count"),
                "can.decode.calls": (_stat(tracer, "can.decode", "calls"), "count"),
                "hil.inject.passthrough_ratio": (
                    self.taps.hits / max(self.taps.calls, 1),
                    "ratio",
                ),
            }
        )
        return metrics


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------


class CheckWorkload(Workload):
    name = "check"
    why = (
        "The six drive logs read from CSV and checked strict (with "
        "margins) then relaxed, as 'repro check' does: no simulation, so "
        "log parsing and rule evaluation do the work and a simulator "
        "optimisation should show no change."
    )
    inputs = ("logs",)
    unit_label = "rows per host s (20 ms rows)"
    aliases = {
        "throughput_per_s": "check_rows_per_s",
        "op_p50_ms": "check_log_p50_ms",
        "op_p90_ms": "check_log_p90_ms",
    }
    #: The drive seed ``results/vehicle_logs.txt`` was produced with.
    GOLDEN_SEED = 2014

    def setup(self) -> None:
        from repro.core.monitor import Monitor
        from repro.logs.format import read_trace
        from repro.rules.safety_rules import paper_rules

        self.read_trace = read_trace
        self.strict = Monitor(paper_rules())
        self.relaxed = Monitor(paper_rules(relaxed=True))
        self.files = sorted(glob.glob(os.path.join(self.input_dirs["logs"], "*.csv")))
        self.bytes_read = 0
        self.violations = 0

    def prepare(self) -> None:
        self.expected: Dict[str, Tuple[str, str]] = {}
        if self.seed != self.GOLDEN_SEED:
            return
        for line in self.golden("vehicle_logs.txt").splitlines():
            parts = line.split()
            if parts and parts[0].startswith("vehicle:"):
                self.expected[parts[0]] = (parts[1], parts[2])

    def ops_per_pass(self) -> int:
        return len(self.files)

    def op(self, index: int) -> Tuple[float, object]:
        trace = self.read_trace(self.files[index])
        strict = self.strict.check(trace, robustness=True)
        relaxed = self.relaxed.check(trace)
        rows = int(round(strict.duration / strict.period)) + 1
        return rows, (trace.name, strict, relaxed)

    def verify(self, index: int, outcome) -> Optional[str]:
        name, strict, relaxed = outcome
        self.bytes_read += os.path.getsize(self.files[index])
        self.violations += strict.violation_count() + relaxed.violation_count()
        letters = (_letters(strict), _letters(relaxed))
        if set(letters[1]) != {"S"}:
            return "%s: relaxed rules violated (%s)" % (name, letters[1])
        if self.seed == self.GOLDEN_SEED and letters != self.expected.get(name):
            return "%s: strict/relaxed %s, vehicle_logs.txt has %s" % (
                name, letters, self.expected.get(name),
            )
        return None

    def patches(self, tracer: Tracer) -> List[Patch]:
        import repro.logs.format as log_format
        from repro.core.monitor import Monitor
        from repro.logs.trace import Trace

        self.view_rows = Counter(lambda args, view: view.n_rows)
        self.bytes_read = self.violations = 0
        self.read_trace = tracer.wrap(log_format.read_trace, "logs.read")
        return [
            (Trace, "to_view", "logs.to_view", self.view_rows),
            (Monitor, "check_view", "core.check_view", None),
        ]

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        return {
            "logs.read_s": (_stat(tracer, "logs.read", "total_s"), "s"),
            "logs.read_bytes": (self.bytes_read, "bytes"),
            "logs.to_view_s": (_stat(tracer, "logs.to_view", "total_s"), "s"),
            "core.check_view_s": (_stat(tracer, "core.check_view", "total_s"), "s"),
            "core.rows": (self.view_rows.total, "count"),
            "core.violations": (self.violations, "count"),
        }


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------


class FleetWorkload(Workload):
    name = "fleet"
    why = (
        "The drive logs replayed across 8 streams on one asyncio loop "
        "(paper rules, block policy, default inbox and chunking): the same "
        "core evaluator run incrementally over StreamTrace chunks, plus "
        "the fleet ingest path."
    )
    inputs = ("logs",)
    unit_label = "events per host s"
    aliases = {
        "throughput_per_s": "fleet_events_per_s",
        "op_p50_ms": "fleet_batch_p50_ms",
        "op_p90_ms": "fleet_batch_p90_ms",
    }
    STREAMS = 8
    #: Operation 1 is not part of a pass: a two-stream replay of the
    #: shortest log, which a traced run of another workload samples.
    SAMPLE = 1

    def setup(self) -> None:
        from repro.fleet import load_log_directory, replay_traces
        from repro.rules.safety_rules import paper_rules

        self.replay_traces = replay_traces
        self.rules = paper_rules()
        self.traces = load_log_directory(self.input_dirs["logs"])
        self.blocked = self.rows_emitted = self.rows_reevaluated = 0

    def prepare(self) -> None:
        from repro.core.monitor import Monitor
        from repro.fleet.replay import assign_streams

        offline = Monitor(self.rules)
        self.expected = {
            trace.name: _letters(offline.check(trace)) for trace in self.traces
        }
        shortest = min(self.traces, key=lambda trace: trace.update_count())
        self.replays = [([*self.traces], self.STREAMS), ([shortest], 2)]
        self.events = [
            sum(
                trace.update_count()
                for _, trace in assign_streams(traces, streams)
            )
            for traces, streams in self.replays
        ]

    @contextlib.contextmanager
    def measuring(self) -> Iterator[None]:
        """Time every StreamShard.feed_batch: how long one stream holds
        the event loop.  One clock pair per batch of up to 256 events."""
        from repro.fleet.shard import StreamShard

        with timed_calls(self, StreamShard, "feed_batch"):
            yield

    def record_latency(self, index: int, seconds: float) -> None:
        """Latency samples are the feed_batch timings, not replays."""

    def ops_per_pass(self) -> int:
        return 1

    def sample_op(self) -> int:
        return self.SAMPLE

    def op(self, index: int) -> Tuple[float, object]:
        traces, streams = self.replays[index]
        report = self.replay_traces(
            traces, self.rules, streams=streams, policy="block"
        )
        return self.events[index], report

    def verify(self, index: int, report) -> Optional[str]:
        fleet = report.rollup["fleet"]
        counters = fleet["metrics"]["counters"]
        self.blocked += fleet["backpressure"]["blocked"]
        self.rows_emitted += counters.get("online.rows_emitted", 0)
        self.rows_reevaluated += counters.get("online.rows_reevaluated", 0)
        streams = self.replays[index][1]
        if len(report.reports) != streams:
            return "expected %d streams, got %d" % (streams, len(report.reports))
        for stream_id, stream_report in sorted(report.reports.items()):
            source = stream_id.split(":", 1)[1]
            if _letters(stream_report) != self.expected[source]:
                return "%s: online letters %s, offline %s" % (
                    stream_id, _letters(stream_report), self.expected[source],
                )
        return None

    def patches(self, tracer: Tracer) -> List[Patch]:
        import repro.core.online as online
        import repro.fleet.service as service
        from repro.core.online import OnlineMonitor
        from repro.fleet.shard import StreamShard
        from repro.logs.trace import StreamTrace

        self.batch_events = Counter(lambda args, result: len(args[1]))
        self.blocked = self.rows_emitted = self.rows_reevaluated = 0
        return [
            (StreamShard, "feed_batch", "fleet.feed_batch", self.batch_events),
            (StreamShard, "finish", "fleet.finish", None),
            (service, "fleet_rollup", "fleet.rollup", None),
            (OnlineMonitor, "feed", "online.feed", None),
            (online, "evaluate_formula", "online.evaluate", None),
            (StreamTrace, "to_view", "logs.stream_view", None),
        ]

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        emitted = max(self.rows_emitted, 1)
        return {
            "fleet.ingest_s": (_stat(tracer, "fleet.op", "self_s"), "s"),
            "fleet.feed_batch.self_s": (_stat(tracer, "fleet.feed_batch", "self_s"), "s"),
            "online.feed.self_s": (_stat(tracer, "online.feed", "self_s"), "s"),
            "online.evaluate_s": (_stat(tracer, "online.evaluate", "total_s"), "s"),
            "logs.stream_view_s": (_stat(tracer, "logs.stream_view", "total_s"), "s"),
            "fleet.finish_s": (_stat(tracer, "fleet.finish", "total_s"), "s"),
            "fleet.rollup_s": (_stat(tracer, "fleet.rollup", "total_s"), "s"),
            "fleet.batches": (self.batch_events.calls, "count"),
            "fleet.events_per_batch": (
                self.batch_events.total / max(self.batch_events.calls, 1),
                "count",
            ),
            "fleet.backpressure_blocked": (self.blocked, "count"),
            "online.eval_rows_ratio": (
                (self.rows_emitted + self.rows_reevaluated) / emitted,
                "ratio",
            ),
        }


# ----------------------------------------------------------------------
# audit
# ----------------------------------------------------------------------


class AuditWorkload(Workload):
    name = "audit"
    why = (
        "lint, audit, margins and automata over the strict and relaxed "
        "paper rules and seeded fuzzed rule sets: the only workload that "
        "reaches repro.analysis."
    )
    inputs = ("rules",)
    unit_label = "rules analysed per host s"
    aliases = {
        "throughput_per_s": "audit_rules_per_s",
        "op_p50_ms": "audit_set_p50_ms",
        "op_p90_ms": "audit_set_p90_ms",
    }
    STRICT = "paper rules (strict)"

    def setup(self) -> None:
        from repro.analysis import (
            analyze_automata_specs,
            analyze_margins_specs,
            audit_specs,
            lint_specs,
            paper_plan,
        )
        from repro.can.fsracc import fsracc_database
        from repro.core.specfile import load_specs
        from repro.rules.safety_rules import paper_specset

        self.analyses = [
            lint_specs,
            audit_specs,
            analyze_margins_specs,
            analyze_automata_specs,
        ]
        self.database = fsracc_database()
        self.plan = paper_plan()
        self.sets = [
            (self.STRICT, paper_specset(False)),
            ("paper rules (relaxed)", paper_specset(True)),
        ]
        for path in sorted(glob.glob(os.path.join(self.input_dirs["rules"], "*.rules"))):
            self.sets.append((os.path.basename(path), load_specs(path)))
        self.findings = 0

    def prepare(self) -> None:
        self.expected_automata = self.golden("automata_paper.json")

    def ops_per_pass(self) -> int:
        return len(self.sets)

    def op(self, index: int) -> Tuple[float, object]:
        name, specs = self.sets[index]
        lint, audit, margins, automata = self.analyses
        # The same calls, with the same arguments, as the CLI commands.
        reports = (
            lint(specs, database=self.database),
            audit(specs, plan=self.plan, target=name),
            margins(specs, plan=self.plan, target=name),
            automata(specs, target=name),
        )
        return len(specs.rules), reports

    def verify(self, index: int, reports) -> Optional[str]:
        from repro.analysis import build_automata_report

        lint, audit, margins, automata = reports
        self.findings += len(lint) + len(audit.diagnostics())
        if self.sets[index][0] != self.STRICT:
            return None
        if audit.failed:
            return "paper strict audit has error-level findings"
        text = json.dumps(build_automata_report(automata), indent=2, sort_keys=True)
        if text + "\n" != self.expected_automata:
            return "paper strict automata report differs from automata_paper.json"
        return None

    def patches(self, tracer: Tracer) -> List[Patch]:
        self.findings = 0
        self.analyses = [
            tracer.wrap(function, name)
            for function, name in zip(
                self.analyses,
                ("analysis.lint", "analysis.audit", "analysis.margins", "analysis.automata"),
            )
        ]
        return []

    def layer_metrics(self, tracer: Tracer) -> Metrics:
        metrics = {
            "analysis.%s_s" % name: (_stat(tracer, "analysis." + name, "total_s"), "s")
            for name in ("lint", "audit", "margins", "automata")
        }
        metrics["analysis.findings"] = (self.findings, "count")
        return metrics


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignWorkload, CheckWorkload, FleetWorkload, AuditWorkload)
}
