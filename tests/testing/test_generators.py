"""Injection value generators: Ballista, random, bit flips."""

import math

import numpy as np
import pytest

from repro.errors import InjectionError, ParameterError
from repro.testing.ballista import (
    BALLISTA_FLOATS,
    ballista_values,
    random_valid_values,
)
from repro.testing.bitflip import (
    FLIPS_PER_SIZE,
    FLIP_SIZES,
    bitflip_offsets,
    bitflip_schedule,
)
from repro.testing.random_injection import FLOAT_RANGE, random_values


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestBallistaDictionary:
    def test_paper_set_has_22_values(self):
        assert len(BALLISTA_FLOATS) == 22

    def test_contains_the_paper_exceptionals(self):
        assert any(math.isnan(v) for v in BALLISTA_FLOATS)
        assert float("inf") in BALLISTA_FLOATS
        assert float("-inf") in BALLISTA_FLOATS
        assert math.pi in BALLISTA_FLOATS
        assert math.e in BALLISTA_FLOATS
        assert 4.9406564584124654e-324 in BALLISTA_FLOATS  # denormal

    def test_float_draws_come_from_the_set(self, rng, database):
        signal = database.signal("Velocity")
        values = ballista_values(signal, 8, rng)
        assert len(values) == 8
        for value in values:
            assert any(
                (math.isnan(value) and math.isnan(b)) or value == b
                for b in BALLISTA_FLOATS
            )

    def test_no_replacement_when_enough_values(self, rng, database):
        signal = database.signal("Velocity")
        values = ballista_values(signal, 22, rng)
        finite = [v for v in values if not math.isnan(v)]
        # repr distinguishes 0.0 from -0.0, which compare equal.
        assert len({repr(v) for v in finite}) == len(finite)

    def test_bool_falls_back_to_valid_values(self, rng, database):
        signal = database.signal("VehicleAhead")
        for value in ballista_values(signal, 8, rng):
            assert value in (True, False)

    def test_enum_falls_back_to_labelled_values(self, rng, database):
        signal = database.signal("SelHeadway")
        for value in ballista_values(signal, 8, rng):
            assert value in (1, 2, 3)

    def test_zero_count_rejected(self, rng, database):
        with pytest.raises(ParameterError, match="count is a count and must be >= 1"):
            ballista_values(database.signal("Velocity"), 0, rng)


class TestRandomValues:
    def test_floats_within_paper_range(self, rng, database):
        signal = database.signal("Velocity")
        values = random_values(signal, 100, rng)
        assert all(FLOAT_RANGE[0] <= v <= FLOAT_RANGE[1] for v in values)
        # The range deliberately exceeds the plausible physical values.
        assert any(abs(v) > 120.0 for v in values)

    def test_bools_binary(self, rng, database):
        values = random_values(database.signal("VehicleAhead"), 20, rng)
        assert set(values) <= {True, False}

    def test_enums_span_the_raw_field(self, rng, database):
        signal = database.signal("SelHeadway")
        values = random_values(signal, 200, rng)
        assert all(0 <= v <= signal.max_raw for v in values)
        # Most of the field is invalid for the labelled enum — the HIL
        # rejections in the campaign come from exactly these draws.
        assert any(v not in (1, 2, 3) for v in values)


class TestBitflips:
    def test_offsets_within_field(self, rng, database):
        signal = database.signal("Velocity")
        for _ in range(50):
            offsets = bitflip_offsets(signal, 4, rng)
            assert len(offsets) == 4
            assert len(set(offsets)) == 4
            assert all(0 <= o < 32 for o in offsets)

    def test_cannot_flip_more_bits_than_field(self, rng, database):
        signal = database.signal("VehicleAhead")
        with pytest.raises(InjectionError):
            bitflip_offsets(signal, 2, rng)

    def test_schedule_has_four_per_size(self, rng, database):
        signal = database.signal("Velocity")
        schedule = bitflip_schedule(signal, rng)
        assert len(schedule) == len(FLIP_SIZES) * FLIPS_PER_SIZE
        sizes = sorted({len(offsets) for offsets in schedule})
        assert sizes == sorted(FLIP_SIZES)

    def test_schedule_skips_oversized_flips_for_narrow_fields(self, rng, database):
        signal = database.signal("SelHeadway")  # 3 bits
        schedule = bitflip_schedule(signal, rng)
        assert all(len(offsets) <= 3 for offsets in schedule)
        assert len(schedule) == 2 * FLIPS_PER_SIZE  # sizes 1 and 2 only

    def test_schedules_are_randomized(self, database):
        signal = database.signal("Velocity")
        a = bitflip_schedule(signal, np.random.default_rng(1))
        b = bitflip_schedule(signal, np.random.default_rng(2))
        assert a != b
