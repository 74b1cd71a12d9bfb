"""The HIL testbench — the dSPACE stand-in.

Co-simulates the longitudinal vehicle plant, the scripted environment
(lead vehicle, driver), the CAN network and the FSRACC module at a fixed
physics step, with the controller executing on its own control period and
every message broadcast on its database period.  A passive trace recorder
listens on the bus — after the injection taps — so captured logs contain
exactly what a bolt-on monitor plugged into the vehicle network would see.

Step ordering (one physics step):

1. advance the scripted driver and lead vehicle;
2. measure the radar target;
3. refresh the signal registry (ground-truth producer values);
4. step the bus — due messages take their values from the registry,
   the raw fields of the carriers of active injections pass through the
   injection tap, and every frame is delivered to its message's sinks
   (the trace recorder and, for the carriers of FSRACC inputs, the
   FSRACC input cache);
5. on control-period boundaries, run the FSRACC cycle on its *received*
   (post-injection) inputs and latch its outputs into the registry;
6. integrate the plant, with engine/brake ECUs honouring the FSRACC
   requests only while ``ACCEnabled`` is asserted.

Because outputs latch into the registry after the bus step, output
messages report each control decision one cycle later — the reporting
latency a real distributed system exhibits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.acc.controller import AccParams, FsraccController
from repro.acc.interface import AccInputs, AccOutputs
from repro.can.bus import CanBus, JitterModel
from repro.can.fsracc import FSRACC_ALL_INPUTS, fsracc_database
from repro.can.signal import SignalValue
from repro.errors import SimulationError
from repro.hil.injection import InjectionHarness
from repro.hil.tracing import TraceRecorder
from repro.hil.typecheck import HIL_PROFILE, InjectionTypeChecker
from repro.logs.trace import Trace
from repro.vehicle.driver import DriverState
from repro.vehicle.dynamics import LongitudinalCar
from repro.vehicle.scenario import Scenario

#: Plant integration step, seconds.
PHYSICS_DT = 0.01
#: FSRACC control period, seconds (matches the fast message period).
CONTROL_PERIOD = 0.02
#: Physics steps per control period.
CONTROL_STEPS = round(CONTROL_PERIOD / PHYSICS_DT)


@dataclass
class SimulationResult:
    """Summary of one simulator run."""

    trace: Trace
    duration: float
    collisions: int
    min_gap: float
    frames_sent: int
    injection_attempts: int
    injection_rejections: int


class HilSimulator:
    """Fixed-step co-simulation of plant, network and feature under test."""

    def __init__(
        self,
        scenario: Scenario,
        acc_params: Optional[AccParams] = None,
        checker: InjectionTypeChecker = HIL_PROFILE,
        seed: int = 0,
        jitter_max: float = 0.004,
        trace_name: str = "",
    ) -> None:
        if not 0.0 <= jitter_max < CONTROL_PERIOD:
            raise SimulationError(
                "jitter_max must be at least 0 and below the fastest "
                "message period (%g s), got %r" % (CONTROL_PERIOD, jitter_max)
            )
        self.scenario = scenario
        self.database = fsracc_database()
        self.bus = CanBus(self.database, JitterModel(jitter_max, seed))
        self.injection = InjectionHarness(self.database, checker)
        self.bus.add_frame_tap(self.injection.tap, self.injection.targets)
        self.recorder = TraceRecorder(trace_name or scenario.name)
        self.bus.add_listener(self.recorder.frame_sink)
        # The bus holds closures over the simulator's dicts, never its
        # bound methods, so a finished simulator is freed by reference
        # counting alone rather than waiting for the cycle collector.
        acc_inputs: Dict[str, SignalValue] = {}
        self._acc_input_cache = acc_inputs

        def feed_acc_inputs(
            timestamp: float, values: Dict[str, SignalValue]
        ) -> None:
            """Feed post-injection input signals into the FSRACC's receive cache."""
            acc_inputs.update(values)

        # Only the messages carrying FSRACC inputs feed the cache.  A
        # carrier may hold other signals too; AccInputs.from_signals
        # reads only the inputs.
        self.bus.add_listener(
            lambda message: feed_acc_inputs
            if any(signal.name in FSRACC_ALL_INPUTS for signal in message.signals)
            else None
        )

        self.car = LongitudinalCar(
            road=scenario.road, initial_velocity=scenario.initial_velocity
        )
        self.lead = scenario.make_lead()
        self.driver = scenario.make_driver()
        self.sensor = scenario.make_sensor(seed)
        self.acc = FsraccController(acc_params or AccParams())

        self._registry: Dict[str, SignalValue] = {
            name: self.database.signal(name).default_value()
            for name in self.database.signal_names()
        }
        self._registry["SelHeadway"] = 2
        self._acc_outputs = AccOutputs()
        self._driver_overrides: Dict[str, float] = {}
        #: The driver state the overrides were last resolved against
        #: (None: resolve at the next step) and the brake pressure the
        #: plant sees.  The resolved pedal, set-speed, switch and headway
        #: values live in the registry.
        self._driver_seen: Optional[DriverState] = None
        self._brake_pressure = 0.0

        registry = self._registry
        for message in self.database.messages():
            self.bus.attach_publisher(message.name, lambda: registry)

        self._noise_rng = np.random.default_rng(seed + 0x5EED)
        self._steps = 0
        self.time = 0.0
        self.collisions = 0
        self.min_gap = math.inf
        self._prev_gap: Optional[float] = None

    # ------------------------------------------------------------------
    # Public control surface
    # ------------------------------------------------------------------

    def set_driver_override(self, field: str, value: float) -> None:
        """Override one scripted driver field (ControlDesk write access).

        Valid fields: ``accel_pedal``, ``brake_pressure``, ``set_speed``,
        ``headway``, ``acc_on``.
        """
        if field not in (
            "accel_pedal",
            "brake_pressure",
            "set_speed",
            "headway",
            "acc_on",
        ):
            raise SimulationError("unknown driver field %s" % field)
        self._driver_overrides[field] = value
        self._driver_seen = None

    def clear_driver_override(self, field: str) -> None:
        """Remove one driver override."""
        self._driver_overrides.pop(field, None)
        self._driver_seen = None

    def step(self) -> None:
        """Advance the whole testbench by one physics step."""
        self._steps = steps = self._steps + 1
        self.time = now = steps * PHYSICS_DT
        car = self.car

        driver = self.driver.step(now)
        if driver is not self._driver_seen:
            self._resolve_driver(driver)

        self.lead.step(PHYSICS_DT, now, car.position)
        self._track_collision()
        measurement = self.sensor.measure(self.lead, car.position, car.velocity)

        registry = self._registry
        registry["Velocity"] = self._measured_velocity()
        registry["ThrotPos"] = car.engine.throttle_position
        registry["VehicleAhead"] = measurement.vehicle_ahead
        registry["TargetRange"] = measurement.target_range
        registry["TargetRelVel"] = measurement.target_rel_vel

        self.bus.step(now)

        if steps % CONTROL_STEPS == 0:
            inputs = AccInputs.from_signals(self._acc_input_cache)
            self._acc_outputs = self.acc.step(CONTROL_PERIOD, inputs)
            registry.update(self._acc_outputs.to_signals())

        out = self._acc_outputs
        honour = out.acc_enabled
        torque_cmd = out.requested_torque if honour and out.torque_requested else 0.0
        decel_cmd = out.requested_decel if honour and out.brake_requested else 0.0
        brake_flag = honour and out.brake_requested
        car.step(
            PHYSICS_DT,
            requested_torque=torque_cmd,
            requested_decel=decel_cmd,
            brake_requested=brake_flag,
            driver_brake_pressure=self._brake_pressure,
        )

    def run_for(self, seconds: float) -> None:
        """Step the testbench forward by ``seconds`` of simulated time.

        ``seconds`` must be finite and not negative (up to half a
        physics step of float noise): time does not run backwards.
        """
        if not math.isfinite(seconds):
            raise SimulationError(
                "simulated time must be finite, got %r seconds" % (seconds,)
            )
        if seconds < -PHYSICS_DT / 2:
            raise SimulationError(
                "simulated time cannot run backwards: asked for %r seconds at "
                "t=%r s" % (seconds, self.time)
            )
        end = self.time + seconds
        while self.time < end - PHYSICS_DT / 2:
            self.step()

    def run(self, duration: Optional[float] = None) -> SimulationResult:
        """Run to ``duration`` (default: the scenario's) and summarize.

        A ``duration`` the testbench has already passed is an error.
        """
        if duration is None:
            duration = self.scenario.duration
        self.run_for(duration - self.time)
        return self.result()

    def result(self) -> SimulationResult:
        """Summary of the run so far (the trace keeps accumulating)."""
        return SimulationResult(
            trace=self.recorder.trace,
            duration=self.time,
            collisions=self.collisions,
            min_gap=self.min_gap,
            frames_sent=self.bus.frames_sent,
            injection_attempts=self.injection.attempts,
            injection_rejections=self.injection.rejections,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _resolve_driver(self, driver: DriverState) -> None:
        """Write the driver's inputs, overrides applied, to the registry."""
        overrides = self._driver_overrides
        self._driver_seen = driver
        self._brake_pressure = overrides.get("brake_pressure", driver.brake_pressure)
        registry = self._registry
        registry["AccelPedPos"] = overrides.get("accel_pedal", driver.accel_pedal)
        registry["BrakePedPres"] = self._brake_pressure
        registry["ACCSetSpeed"] = overrides.get("set_speed", driver.set_speed)
        registry["AccActive"] = bool(overrides.get("acc_on", driver.acc_on))
        registry["SelHeadway"] = int(overrides.get("headway", driver.headway))

    def _measured_velocity(self) -> float:
        """Wheel-speed sensor reading (noisy on the vehicle profile)."""
        noise_std = self.scenario.velocity_noise_std
        if noise_std <= 0:
            return self.car.velocity
        return max(
            0.0, self.car.velocity + float(self._noise_rng.normal(0.0, noise_std))
        )

    def _track_collision(self) -> None:
        gap = self.lead.range_from(self.car.position)
        if gap is None:
            self._prev_gap = None
            return
        self.min_gap = min(self.min_gap, gap)
        if self._prev_gap is not None and self._prev_gap > 0 >= gap:
            # The simulated world, like CARSIM on the paper's HIL, does
            # not enforce collisions — the ego drives through the target.
            self.collisions += 1
        self._prev_gap = gap
