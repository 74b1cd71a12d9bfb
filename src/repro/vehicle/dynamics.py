"""Longitudinal vehicle dynamics — the CARSIM stand-in.

A point-mass longitudinal model with engine, brakes, aerodynamic and
rolling drag, and road grade.  The safety rules in the paper only refer
to longitudinal quantities (speed, range, relative speed, torque and
deceleration requests), so a longitudinal model exercises the same
monitor code paths the authors' CARSIM environment did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.vehicle.brakes import BrakeSystem
from repro.vehicle.engine import Engine
from repro.vehicle.road import FlatRoad, RoadProfile

#: Standard gravity, m/s².
GRAVITY = 9.81


@dataclass
class CarState:
    """Snapshot of the ego vehicle's longitudinal state."""

    position: float
    velocity: float
    acceleration: float
    engine_torque: float
    brake_decel: float
    grade: float


class LongitudinalCar:
    """Point-mass car with engine, brakes, drag and grade forces.

    Attributes:
        mass: vehicle mass, kg.
        drag_c0: constant rolling resistance force, N.
        drag_c1: linear drag coefficient, N per (m/s).
        drag_c2: aerodynamic drag coefficient, N per (m/s)².
    """

    def __init__(
        self,
        mass: float = 1600.0,
        drag_c0: float = 160.0,
        drag_c1: float = 2.0,
        drag_c2: float = 0.42,
        engine: Optional[Engine] = None,
        brakes: Optional[BrakeSystem] = None,
        road: Optional[RoadProfile] = None,
        initial_velocity: float = 0.0,
        initial_position: float = 0.0,
    ) -> None:
        if mass <= 0:
            raise SimulationError("mass must be positive")
        self.mass = mass
        self.drag_c0 = drag_c0
        self.drag_c1 = drag_c1
        self.drag_c2 = drag_c2
        self.engine = engine or Engine()
        self.brakes = brakes or BrakeSystem()
        self.road = road or FlatRoad()
        self.position = initial_position
        self.velocity = initial_velocity
        self.acceleration = 0.0

    def reset(self, position: float = 0.0, velocity: float = 0.0) -> None:
        """Reset kinematics and actuators."""
        self.position = position
        self.velocity = velocity
        self.acceleration = 0.0
        self.engine.reset()
        self.brakes.reset()

    def drag_force(self, velocity: Optional[float] = None) -> float:
        """Total resistive force (N) at the given (or current) speed."""
        v = self.velocity if velocity is None else velocity
        if v <= 0:
            return 0.0
        return self.drag_c0 + self.drag_c1 * v + self.drag_c2 * v * v

    def cruise_torque(self, velocity: float, grade: float = 0.0) -> float:
        """Wheel torque (Nm) needed to hold ``velocity`` on ``grade``.

        Useful to initialize controllers and to reason about hill-climb
        torque in tests.
        """
        force = self.drag_force(velocity) + self.mass * GRAVITY * grade
        return force * self.engine.wheel_radius

    def step(
        self,
        dt: float,
        requested_torque: float,
        requested_decel: float,
        brake_requested: bool,
        driver_brake_pressure: float = 0.0,
    ) -> CarState:
        """Advance the vehicle one time step.

        Args:
            dt: integration step, seconds.
            requested_torque: ACC wheel-torque request, Nm.
            requested_decel: ACC deceleration request, m/s² (negative).
            brake_requested: whether the ACC asserts its brake request.
            driver_brake_pressure: driver pedal pressure, bar.
        """
        if dt <= 0:
            raise SimulationError("dt must be positive")
        grade = self.road.grade_at(self.position)
        tractive = self.engine.step(dt, requested_torque)
        decel = self.brakes.step(
            dt, requested_decel, brake_requested, driver_brake_pressure
        )
        force = (
            tractive
            - self.drag_force()
            - self.mass * GRAVITY * grade
            - self.mass * decel
        )
        self.acceleration = force / self.mass
        self.velocity += self.acceleration * dt
        if self.velocity < 0.0:
            # The car does not roll backwards in these scenarios; holding
            # at rest mirrors a real transmission's creep/hold behaviour.
            self.velocity = 0.0
            self.acceleration = max(self.acceleration, 0.0)
        self.position += self.velocity * dt
        return self.state(grade)

    def state(self, grade: Optional[float] = None) -> CarState:
        """Current state snapshot."""
        if grade is None:
            grade = self.road.grade_at(self.position)
        return CarState(
            position=self.position,
            velocity=self.velocity,
            acceleration=self.acceleration,
            engine_torque=self.engine.torque,
            brake_decel=self.brakes.decel,
            grade=grade,
        )
