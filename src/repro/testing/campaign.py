"""Robustness-testing campaign — the §IV test plan.

For each of the eight single-signal targets the campaign runs three
tests (Ballista, random value, and 1/2/4-bit flips), plus the eight
multi-signal tests of Table I.  Each injection is held for 20 s "to
allow time for the fault to manifest into a specification violation",
with a short pass-through gap between injections so the system re-settles.
The captured trace of every test is checked by the monitor, yielding one
S/V letter per rule — a Table I row.

Every test runs on a fresh HIL testbench instance (scripted engagement
behind a steady lead), with its RNG seeded deterministically from the
campaign seed and the row label, so the whole table is reproducible.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.can.fsracc import FSRACC_INPUTS, fsracc_database
from repro.core.monitor import (
    Monitor,
    MonitorReport,
    Rule,
    require_non_negative,
)
from repro.errors import InjectionError, SimulationError
from repro.hil.simulator import HilSimulator, SimulationResult
from repro.hil.typecheck import HIL_PROFILE, InjectionTypeChecker
from repro.logs.trace import Trace
from repro.obs import get_registry
from repro.rules.safety_rules import paper_rules
from repro.testing.ballista import ballista_values
from repro.testing.bitflip import (
    FLIPS_PER_SIZE,
    FLIP_SIZES,
    bitflip_offsets,
    bitflip_schedule,
)
from repro.testing.random_injection import random_values
from repro.testing.results import (
    RANGE_PLUS,
    SINGLE_TARGETS,
    Table1,
    TableRow,
)
from repro.vehicle.scenario import steady_follow

#: Seconds each injected fault is held (§III-A).
HOLD_TIME = 20.0
#: Pass-through recovery time between injections.
GAP_TIME = 5.0
#: Settling time before the first injection (engage + reach steady state).
SETTLE_TIME = 15.0
#: Injection values per single-signal Random/Ballista test (§IV).
VALUES_PER_TEST = 8
#: Injection values per multi-signal test (§IV).
MULTI_VALUES = 20


@dataclass(frozen=True)
class InjectionTest:
    """One Table I row specification."""

    label: str
    kind: str  # Random | Ballista | Bitflips | mRandom | mBallista | mBitflipN
    targets: Tuple[str, ...]


@dataclass
class TestOutcome:
    """Result of running one injection test.

    ``margins`` is ``None`` unless the campaign ran with
    ``robustness=True``; then it maps each rule id to its JSON-safe
    robustness digest (plus a ``near_miss`` flag).
    """

    test: InjectionTest
    report: MonitorReport
    letters: Dict[str, str]
    collisions: int
    rejections: int
    trace: Optional[Trace] = None
    margins: Optional[Dict[str, Dict[str, object]]] = None

    def to_row(self) -> TableRow:
        """Convert to a Table I row."""
        return TableRow(
            label=self.test.label,
            kind=self.test.kind,
            targets=self.test.targets,
            letters=dict(self.letters),
            collisions=self.collisions,
            rejections=self.rejections,
            margins=None if self.margins is None else dict(self.margins),
        )


def single_signal_tests() -> List[InjectionTest]:
    """The 24 single-signal tests, in the paper's row order."""
    tests = []
    for kind in ("Random", "Ballista", "Bitflips"):
        for signal in SINGLE_TARGETS:
            tests.append(
                InjectionTest("%s %s" % (kind, signal), kind, (signal,))
            )
    return tests


def multi_signal_tests() -> List[InjectionTest]:
    """The 8 multi-signal tests, in the paper's row order."""
    range_plus_set = RANGE_PLUS + ("ACCSetSpeed",)
    everything = tuple(FSRACC_INPUTS)
    return [
        InjectionTest("mBallista Range+", "mBallista", RANGE_PLUS),
        InjectionTest("mBallista All", "mBallista", everything),
        InjectionTest("mRandom Range+", "mRandom", RANGE_PLUS),
        InjectionTest("mRandom All", "mRandom", everything),
        InjectionTest("mRandom Range+Set", "mRandom", range_plus_set),
        InjectionTest("mBitflip1 Range+", "mBitflip1", RANGE_PLUS),
        InjectionTest("mBitflip2 Range+", "mBitflip2", RANGE_PLUS),
        InjectionTest("mBitflip4 Range+", "mBitflip4", RANGE_PLUS),
    ]


def table1_tests() -> List[InjectionTest]:
    """All 32 Table I rows, in order."""
    return single_signal_tests() + multi_signal_tests()


#: Lazily built database used only for plan sizing (bit lengths); the
#: simulator under test always builds its own fresh instance.
_PLAN_DATABASE = None


def _plan_database():
    global _PLAN_DATABASE
    if _PLAN_DATABASE is None:
        _PLAN_DATABASE = fsracc_database()
    return _PLAN_DATABASE


class RobustnessCampaign:
    """Runs injection tests and assembles the Table I matrix.

    A campaign instance holds only immutable configuration (rules, seed,
    timing parameters): every :meth:`run_test` call builds its own
    simulator *and* its own :class:`Monitor`, so outcomes cannot bleed
    between tests and instances are safe to ship to worker processes
    (see :mod:`repro.testing.parallel`).
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        checker: InjectionTypeChecker = HIL_PROFILE,
        seed: int = 2014,
        hold_time: float = HOLD_TIME,
        gap_time: float = GAP_TIME,
        settle_time: float = SETTLE_TIME,
        keep_traces: bool = False,
        robustness: bool = False,
        near_miss_threshold: Optional[float] = None,
    ) -> None:
        for name, value in (
            ("hold_time", hold_time),
            ("gap_time", gap_time),
            ("settle_time", settle_time),
        ):
            if not (value >= 0 and math.isfinite(value)):
                raise SimulationError(
                    "%s must be a finite number of seconds >= 0, got %r"
                    % (name, value)
                )
        if near_miss_threshold is not None:
            require_non_negative("near_miss_threshold", near_miss_threshold)
            robustness = True
        #: Also compute per-cell robustness margins (the heatmap variant
        #: of Table I).  The letters are bit-identical either way — the
        #: margin pass reads the same trace the letters came from and
        #: never touches the RNG.
        self.robustness = robustness
        self.near_miss_threshold = near_miss_threshold
        self.rules = list(rules) if rules is not None else paper_rules()
        self.checker = checker
        self.seed = seed
        self.hold_time = hold_time
        self.gap_time = gap_time
        self.settle_time = settle_time
        self.keep_traces = keep_traces
        # Validate the rule set eagerly (duplicate ids, undefined
        # machines) so misconfiguration fails here, not inside a worker.
        self.make_monitor()

    # ------------------------------------------------------------------

    def make_monitor(self) -> Monitor:
        """A fresh monitor over this campaign's rules.

        Built per test: sharing one monitor across tests (and worker
        processes) would couple outcomes to shared object state.
        """
        return Monitor(self.rules)

    def injection_count(self, test: InjectionTest) -> int:
        """How many injections ``test``'s plan holds (no RNG consumed)."""
        kind = test.kind
        if kind in ("Random", "Ballista"):
            return VALUES_PER_TEST
        if kind in ("mRandom", "mBallista") or kind.startswith("mBitflip"):
            return MULTI_VALUES
        if kind == "Bitflips":
            (target,) = test.targets
            bit_length = _plan_database().signal(target).bit_length
            return sum(
                FLIPS_PER_SIZE for size in FLIP_SIZES if size <= bit_length
            )
        raise InjectionError("unknown injection kind %r" % kind)

    def scenario_duration(self, test: InjectionTest) -> float:
        """The exact scenario length: ``settle + n * (hold + gap)``."""
        return self.settle_time + self.injection_count(test) * (
            self.hold_time + self.gap_time
        )

    def _simulate(self, test: InjectionTest) -> SimulationResult:
        """Run one test's injections on a fresh testbench — no checking.

        A separate method so the simulator is unreachable, and can be
        collected, before :meth:`run_test` runs the monitor pass.
        """
        registry = get_registry()
        with registry.span("campaign.test"):
            derived_seed = self._derive_seed(test.label)
            rng = np.random.default_rng(derived_seed)
            simulator = HilSimulator(
                scenario=steady_follow(duration=self.scenario_duration(test)),
                checker=self.checker,
                seed=derived_seed,
                trace_name=test.label,
            )
            with registry.span("campaign.sim"):
                simulator.run_for(self.settle_time)
            with registry.span("campaign.inject"):
                plan = self._injection_plan(test, simulator, rng)
            for apply_injection in plan:
                with registry.span("campaign.inject"):
                    apply_injection(simulator)
                registry.counter("campaign.injections").inc()
                with registry.span("campaign.sim"):
                    simulator.run_for(self.hold_time)
                simulator.injection.clear_all()
                with registry.span("campaign.sim"):
                    simulator.run_for(self.gap_time)
            return simulator.result()

    def run_test(self, test: InjectionTest) -> TestOutcome:
        """Run one injection test on a fresh testbench.

        With a metrics registry installed (see :mod:`repro.obs`), each
        phase reports its wall time — ``campaign.test`` (the simulation
        as a whole), ``campaign.sim`` (simulator stepping),
        ``campaign.inject`` (building/applying injections),
        ``campaign.check`` (the monitor pass) — plus per-test rejection
        and collision counters.  The instruments never touch the RNG, so
        the letters are identical with metrics on or off.
        """
        registry = get_registry()
        registry.counter("campaign.tests").inc()
        result = self._simulate(test)
        with registry.span("campaign.check"):
            report = self.make_monitor().check(
                result.trace,
                robustness=self.robustness,
                near_miss_threshold=self.near_miss_threshold,
            )
        letters = {
            rule.rule_id: report.letter(rule.rule_id) for rule in self.rules
        }
        margins = None
        if self.robustness:
            margins = {}
            for rule in self.rules:
                checked = report.result(rule.rule_id)
                digest = checked.robustness.to_dict()
                digest["near_miss"] = checked.near_miss is not None
                margins[rule.rule_id] = digest
        registry.counter("campaign.rejections").inc(result.injection_rejections)
        registry.counter("campaign.collisions").inc(result.collisions)
        return TestOutcome(
            test=test,
            report=report,
            letters=letters,
            collisions=result.collisions,
            rejections=result.injection_rejections,
            trace=result.trace if self.keep_traces else None,
            margins=margins,
        )

    def run_table1(
        self,
        tests: Optional[Sequence[InjectionTest]] = None,
        progress: Optional[Callable[[InjectionTest, TestOutcome], None]] = None,
        jobs: int = 1,
    ) -> Table1:
        """Run every Table I test and assemble the matrix.

        ``jobs`` > 1 fans the tests out to that many worker processes
        (``jobs=0`` uses every core); rows come back in paper order and
        are bit-identical to a sequential run because each test derives
        its seed from the campaign seed and its own label.  In parallel
        mode ``progress`` receives a :class:`~repro.testing.results.TableRow`
        (same ``letters``/``collisions``/``rejections`` fields, no
        report or trace) as each test finishes, in completion order.
        """
        if jobs != 1:
            from repro.testing.parallel import resolve_jobs, run_table1_parallel

            if resolve_jobs(jobs) > 1:
                return run_table1_parallel(
                    self, tests=tests, jobs=jobs, progress=progress
                )
        table = Table1()
        for test in tests if tests is not None else table1_tests():
            outcome = self.run_test(test)
            table.rows.append(outcome.to_row())
            if progress is not None:
                progress(test, outcome)
        return table

    # ------------------------------------------------------------------

    def _derive_seed(self, label: str) -> int:
        return zlib.crc32(("%d/%s" % (self.seed, label)).encode("utf-8"))

    def _injection_plan(
        self,
        test: InjectionTest,
        simulator: HilSimulator,
        rng: np.random.Generator,
    ) -> List[Callable[[HilSimulator], None]]:
        """Build the per-injection closures for one test."""
        kind = test.kind
        if kind in ("Random", "Ballista"):
            return self._value_plan(test, simulator, rng, VALUES_PER_TEST)
        if kind in ("mRandom", "mBallista"):
            return self._value_plan(test, simulator, rng, MULTI_VALUES)
        if kind == "Bitflips":
            return self._single_bitflip_plan(test, simulator, rng)
        if kind.startswith("mBitflip"):
            return self._multi_bitflip_plan(test, simulator, rng)
        raise InjectionError("unknown injection kind %r" % kind)

    def _value_plan(
        self,
        test: InjectionTest,
        simulator: HilSimulator,
        rng: np.random.Generator,
        count: int,
    ) -> List[Callable[[HilSimulator], None]]:
        generator = (
            ballista_values
            if test.kind in ("Ballista", "mBallista")
            else random_values
        )
        values_by_target = {
            target: generator(simulator.database.signal(target), count, rng)
            for target in test.targets
        }

        def make(step: int) -> Callable[[HilSimulator], None]:
            def apply(sim: HilSimulator) -> None:
                for target in test.targets:
                    sim.injection.inject_value(
                        target, values_by_target[target][step]
                    )

            return apply

        return [make(step) for step in range(count)]

    def _single_bitflip_plan(
        self,
        test: InjectionTest,
        simulator: HilSimulator,
        rng: np.random.Generator,
    ) -> List[Callable[[HilSimulator], None]]:
        (target,) = test.targets
        schedule = bitflip_schedule(simulator.database.signal(target), rng)

        def make(offsets: Tuple[int, ...]) -> Callable[[HilSimulator], None]:
            def apply(sim: HilSimulator) -> None:
                sim.injection.inject_bitflips(target, offsets)

            return apply

        return [make(offsets) for offsets in schedule]

    def _multi_bitflip_plan(
        self,
        test: InjectionTest,
        simulator: HilSimulator,
        rng: np.random.Generator,
    ) -> List[Callable[[HilSimulator], None]]:
        n_bits = int(test.kind[len("mBitflip"):])

        def make(step: int) -> Callable[[HilSimulator], None]:
            def apply(sim: HilSimulator) -> None:
                for target in test.targets:
                    signal = sim.database.signal(target)
                    size = min(n_bits, signal.bit_length)
                    sim.injection.inject_bitflips(
                        target, bitflip_offsets(signal, size, rng)
                    )

            return apply

        return [make(step) for step in range(MULTI_VALUES)]
