"""Broadcast bus: scheduling, periods, jitter, listeners, taps."""

import struct

import pytest

from helpers import PerFrameBus, ScalarJitter
from repro.can.bus import JITTER_BLOCK, CanBus, JitterModel
from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import BusError, FrameError
from repro.errors import ParameterError
from repro.can.signal import SignalDef, SignalType


def build_database():
    fast = MessageDef(
        "Fast", 0x10, 8, 0.02,
        (SignalDef("speed", 0, 32, SignalType.FLOAT),),
    )
    slow = MessageDef(
        "Slow", 0x20, 8, 0.08,
        (SignalDef("torque", 0, 32, SignalType.FLOAT),),
    )
    return CanDatabase([fast, slow])


def build_bus(jitter=0.0, seed=0):
    db = build_database()
    bus = CanBus(db, JitterModel(jitter, seed))
    state = {"speed": 10.0, "torque": 100.0}
    bus.attach_publisher("Fast", lambda: state)
    bus.attach_publisher("Slow", lambda: state)
    return bus, state


class TestScheduling:
    def test_fast_message_four_times_per_slow(self):
        bus, _ = build_bus()
        counts = {"Fast": 0, "Slow": 0}
        bus.add_listener(lambda m, t, v: counts.__setitem__(m.name, counts[m.name] + 1))
        bus.run_until(0.8)
        assert counts["Fast"] == pytest.approx(40, abs=1)
        assert counts["Slow"] == pytest.approx(10, abs=1)
        assert counts["Fast"] / counts["Slow"] == pytest.approx(4.0, rel=0.1)

    def test_values_come_from_publisher_at_transmit_time(self):
        bus, state = build_bus()
        seen = []
        bus.add_listener(lambda m, t, v: seen.append(v.get("speed")) if m.name == "Fast" else None)
        bus.run_until(0.05)
        state["speed"] = 99.0
        bus.run_until(0.10)
        assert 10.0 in seen and 99.0 in seen

    def test_duplicate_publisher_rejected(self):
        bus, _ = build_bus()
        with pytest.raises(BusError):
            bus.attach_publisher("Fast", dict)

    def test_unpublished_messages_reported(self):
        db = build_database()
        bus = CanBus(db)
        bus.attach_publisher("Fast", dict)
        assert bus.unpublished_messages() == ("Slow",)

    def test_step_without_publisher_raises(self):
        db = build_database()
        bus = CanBus(db)
        bus.attach_publisher("Fast", dict)
        bus.attach_publisher("Slow", dict)
        # Sanity: with both attached, stepping works.
        assert bus.step(0.1)

    def test_frames_sent_counter(self):
        bus, _ = build_bus()
        bus.run_until(0.2)
        assert bus.frames_sent > 0


class TestJitter:
    def test_zero_jitter_gives_exact_timestamps(self):
        bus, _ = build_bus(jitter=0.0)
        stamps = []
        bus.add_listener(lambda m, t, v: stamps.append(t) if m.name == "Slow" else None)
        bus.run_until(0.5)
        deltas = [round(b - a, 9) for a, b in zip(stamps, stamps[1:])]
        assert all(d == pytest.approx(0.08) for d in deltas)

    def test_jitter_perturbs_timestamps_but_not_schedule(self):
        bus, _ = build_bus(jitter=0.004, seed=3)
        stamps = []
        bus.add_listener(lambda m, t, v: stamps.append(t) if m.name == "Slow" else None)
        bus.run_until(1.0)
        deltas = [b - a for a, b in zip(stamps, stamps[1:])]
        assert any(abs(d - 0.08) > 1e-6 for d in deltas)
        # Long-run average stays on the nominal period.
        assert sum(deltas) / len(deltas) == pytest.approx(0.08, abs=0.002)

    def test_jitter_model_bounds(self):
        model = JitterModel(0.003, seed=1)
        for _ in range(200):
            assert 0.0 <= model.delay() <= 0.003

    @pytest.mark.parametrize("seed", [0, 3, 2014])
    def test_block_draws_give_the_scalar_draw_sequence(self, seed):
        # Cross two block boundaries, and change max_jitter mid-stream,
        # to zero (no draw) and back, just before and after a boundary.
        plan = (
            [0.004] * (JITTER_BLOCK - 3)
            + [0.0] * 5
            + [0.0015] * 10
            + [1e-9, 0.019, 0.0] * 400
            + [0.004] * JITTER_BLOCK
        )
        model, scalar = JitterModel(plan[0], seed), ScalarJitter(plan[0], seed)
        for max_jitter in plan:
            model.max_jitter = scalar.max_jitter = max_jitter
            got, want = model.delay(), scalar.delay()
            assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ParameterError):
            JitterModel(-0.001)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_jitter_rejected(self, bad):
        # Regression: NaN and +inf were accepted, and NaN stamps then
        # failed the trace recorder mid-run.
        with pytest.raises(
            ParameterError, match="max_jitter must be a finite number of seconds"
        ):
            JitterModel(bad)


class TestTaps:
    def test_tap_rewrites_payload(self, database):
        bus, _ = build_bus()

        def tap(message, data, timestamp):
            if message.name == "Fast":
                from repro.can.codec import encode_signal
                return encode_signal(data, message.signal("speed"), -5.0)
            return data

        bus.add_frame_tap(tap)
        seen = []
        bus.add_listener(lambda m, t, v: seen.append(v["speed"]) if m.name == "Fast" else None)
        bus.run_until(0.1)
        assert seen and all(value == -5.0 for value in seen)

    def test_tap_can_be_removed(self):
        bus, _ = build_bus()
        tap = lambda message, data, timestamp: data
        bus.add_frame_tap(tap)
        bus.remove_frame_tap(tap)
        bus.run_until(0.05)  # must not raise


def crowded_database():
    """A period shorter than the 0.01 s step, so "Rapid" is due two or
    three times per step, and equal phases and periods, so "Tied" and
    "Also" share every due time (and all three share t=0)."""
    return CanDatabase(
        [
            MessageDef("Also", 0x30, 8, 0.02, (SignalDef("a", 0, 32, SignalType.FLOAT),)),
            MessageDef("Rapid", 0x10, 8, 0.004, (SignalDef("r", 0, 32, SignalType.FLOAT),)),
            MessageDef("Tied", 0x20, 8, 0.02, (SignalDef("t", 0, 32, SignalType.FLOAT),)),
            MessageDef(
                "Odd", 0x13, 4, 0.03,
                (
                    SignalDef("e", 0, 3, SignalType.ENUM),
                    SignalDef("b", 8, 1, SignalType.BOOL),
                ),
            ),
        ]
    )


def crowded_run(bus_class, jitter_class, steps=120):
    """Step a bus over ``crowded_database`` with counting publishers, an
    undeclared tap that rewrites "Odd" and drops every fourth "Also",
    and a listener; return everything it saw, stamps as bytes."""
    bus = bus_class(crowded_database(), jitter_class(0.003, 11))
    calls = {"n": 0}

    def provider():
        calls["n"] += 1
        n = calls["n"]
        return {"a": n, "r": -n, "t": 0.5 * n, "e": n % 8, "b": n % 3}

    for name in ("Odd", "Tied", "Rapid", "Also"):
        bus.attach_publisher(name, provider)
    tapped, seen = [], []

    def tap(message, data, timestamp):
        tapped.append((message.name, struct.pack("<d", timestamp)))
        if message.name == "Odd":
            return bytes([data[0] ^ 0b101]) + data[1:]
        if message.name == "Also" and len(tapped) % 4 == 0:
            return None
        return data

    bus.add_frame_tap(tap)
    bus.add_listener(
        lambda message, timestamp, values: seen.append(
            (message.name, struct.pack("<d", timestamp), dict(values))
        )
    )
    sent = [bus.step(0.01 * (i + 1)) for i in range(steps)]
    return seen, tapped, (bus.frames_sent, bus.frames_dropped), sent


class TestDueList:
    def test_matches_the_per_frame_oracle(self):
        got = crowded_run(CanBus, JitterModel)
        want = crowded_run(PerFrameBus, ScalarJitter)
        assert got[:3] == want[:3]
        # The oracle returns the frames, the bus their number.
        assert got[3] == [len(frames) for frames in want[3]]
        assert want[2][1] > 0

    def test_a_message_due_twice_in_one_step(self):
        bus = CanBus(crowded_database())
        bus.attach_publisher("Rapid", dict)
        stamps = []
        bus.add_listener(lambda message, timestamp, values: stamps.append(timestamp))
        # 0, 0.004, 0.008; then 0.012, 0.016 and 0.02 (accumulated a
        # hair above 0.02, inside the step's 1e-12 slack); 0.024, 0.028.
        assert [bus.step(0.01), bus.step(0.02), bus.step(0.03)] == [3, 3, 2]
        due = 0.0
        for stamp in stamps:
            assert stamp == due  # the float accumulation of due + period
            due += 0.004

    def test_tied_dues_go_out_in_can_id_order(self):
        bus = CanBus(crowded_database())
        for name in ("Also", "Tied", "Rapid"):
            bus.attach_publisher(name, dict)
        order = []
        bus.add_listener(lambda message, timestamp, values: order.append((timestamp, message.can_id)))
        bus.run_until(0.1)
        assert order == sorted(order)
        assert order[:3] == [(0.0, 0x10), (0.0, 0x20), (0.0, 0x30)]


class TestTapTargets:
    def test_undeclared_tap_sees_every_frame(self):
        bus, _ = build_bus()
        names = []
        bus.add_frame_tap(lambda message, data, timestamp: names.append(message.name) or data)
        delivered = []
        bus.add_listener(lambda message, timestamp, values: delivered.append(message.name))
        bus.run_until(0.2)
        assert names == delivered and {"Fast", "Slow"} == set(names)

    def test_declared_tap_sees_only_its_live_targets(self):
        bus, _ = build_bus()
        targets = {"Slow"}
        names = []
        bus.add_frame_tap(
            lambda message, data, timestamp: names.append(message.name) or data,
            targets,
        )
        bus.run_until(0.2)
        assert names and set(names) == {"Slow"}
        targets.clear()
        targets.add("Fast")
        names.clear()
        for step in range(21, 41):
            bus.step(0.01 * step)
        assert names and set(names) == {"Fast"}

    def test_an_undeclared_tap_opens_every_message_to_all_taps(self):
        bus, _ = build_bus()
        declared, undeclared = [], []
        bus.add_frame_tap(lambda m, d, t: declared.append(m.name) or d, {"Slow"})
        bus.add_frame_tap(lambda m, d, t: undeclared.append(m.name) or d)
        bus.run_until(0.2)
        assert set(declared) == {"Slow"} and set(undeclared) == {"Fast", "Slow"}

    def test_removing_an_unknown_tap_raises(self):
        bus, _ = build_bus()
        with pytest.raises(ValueError):
            bus.remove_frame_tap(lambda message, data, timestamp: data)

    def test_out_of_range_can_id_is_refused_when_scheduled(self):
        database = CanDatabase(
            [MessageDef("Wide", 0x800, 8, 0.02, (SignalDef("w", 0, 32, SignalType.FLOAT),))]
        )
        with pytest.raises(FrameError):
            CanBus(database).attach_publisher("Wide", dict)
