"""Bit-level codec: exact round trips, both byte orders, bit flips."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    decode_signal,
    encode_signal,
    extract_raw,
    flip_bits,
    insert_raw,
    values_equal,
)
from repro.can.codec import physical_to_raw, raw_to_physical
from repro.can.errors import CodecError
from repro.can.signal import ByteOrder, SignalDef, SignalType

FLOAT_SIG = SignalDef("f", 8, 32, SignalType.FLOAT)
BOOL_SIG = SignalDef("b", 0, 1, SignalType.BOOL)
ENUM_SIG = SignalDef("e", 40, 5, SignalType.ENUM)
MOTOROLA = SignalDef(
    "m", 8, 12, SignalType.ENUM, byte_order=ByteOrder.BIG_ENDIAN
)


class TestRawFieldAccess:
    def test_insert_then_extract(self):
        data = insert_raw(bytes(8), ENUM_SIG, 0b10110)
        assert extract_raw(data, ENUM_SIG) == 0b10110

    def test_insert_preserves_other_bits(self):
        data = insert_raw(b"\xFF" * 8, ENUM_SIG, 0)
        restored = insert_raw(data, ENUM_SIG, ENUM_SIG.max_raw)
        assert restored == b"\xFF" * 8

    def test_big_endian_round_trip(self):
        data = insert_raw(bytes(8), MOTOROLA, 0xABC)
        assert extract_raw(data, MOTOROLA) == 0xABC

    def test_raw_too_large_rejected(self):
        with pytest.raises(CodecError):
            insert_raw(bytes(8), ENUM_SIG, 32)

    def test_field_outside_payload_rejected(self):
        with pytest.raises(CodecError):
            extract_raw(bytes(2), FLOAT_SIG)


class TestPhysicalConversion:
    def test_float_round_trip_float32_exact(self):
        for value in (0.0, -0.0, 1.5, -273.15, 3.0e38):
            raw = physical_to_raw(FLOAT_SIG, value)
            back = raw_to_physical(FLOAT_SIG, raw)
            assert back == struct.unpack("<f", struct.pack("<f", value))[0]

    def test_float_nan_survives(self):
        raw = physical_to_raw(FLOAT_SIG, float("nan"))
        assert math.isnan(raw_to_physical(FLOAT_SIG, raw))

    def test_float_infinities_survive(self):
        for value in (float("inf"), float("-inf")):
            raw = physical_to_raw(FLOAT_SIG, value)
            assert raw_to_physical(FLOAT_SIG, raw) == value

    def test_bool_conversion(self):
        assert physical_to_raw(BOOL_SIG, True) == 1
        assert raw_to_physical(BOOL_SIG, 0) is False

    def test_enum_requires_integer(self):
        with pytest.raises(CodecError):
            physical_to_raw(ENUM_SIG, 1.5)
        with pytest.raises(CodecError):
            physical_to_raw(ENUM_SIG, True)

    def test_enum_range_enforced(self):
        with pytest.raises(CodecError):
            physical_to_raw(ENUM_SIG, 32)
        with pytest.raises(CodecError):
            physical_to_raw(ENUM_SIG, -1)


class TestSignalRoundTrip:
    @given(st.floats(width=32, allow_nan=True, allow_infinity=True))
    def test_float_payload_round_trip(self, value):
        data = encode_signal(bytes(8), FLOAT_SIG, value)
        assert values_equal(decode_signal(data, FLOAT_SIG), value)

    @given(st.integers(min_value=0, max_value=31))
    def test_enum_payload_round_trip(self, value):
        data = encode_signal(bytes(8), ENUM_SIG, value)
        assert decode_signal(data, ENUM_SIG) == value

    @given(st.booleans())
    def test_bool_payload_round_trip(self, value):
        data = encode_signal(bytes(8), BOOL_SIG, value)
        assert decode_signal(data, BOOL_SIG) is value

    @given(
        st.integers(min_value=0, max_value=31),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
    def test_signals_do_not_interfere(self, enum_value, float_value):
        data = encode_signal(bytes(8), ENUM_SIG, enum_value)
        data = encode_signal(data, FLOAT_SIG, float_value)
        assert decode_signal(data, ENUM_SIG) == enum_value
        expected = struct.unpack("<f", struct.pack("<f", float_value))[0]
        assert decode_signal(data, FLOAT_SIG) == expected


class TestBitFlips:
    def test_single_flip_changes_exactly_one_bit(self):
        data = encode_signal(bytes(8), ENUM_SIG, 0)
        flipped = flip_bits(data, ENUM_SIG, [2])
        assert extract_raw(flipped, ENUM_SIG) == 0b00100

    def test_double_flip_is_identity(self):
        data = encode_signal(bytes(8), FLOAT_SIG, 123.25)
        there_and_back = flip_bits(flip_bits(data, FLOAT_SIG, [7]), FLOAT_SIG, [7])
        assert there_and_back == data

    def test_flip_outside_field_rejected(self):
        with pytest.raises(CodecError):
            flip_bits(bytes(8), ENUM_SIG, [5])

    def test_sign_bit_flip_negates_float(self):
        data = encode_signal(bytes(8), FLOAT_SIG, 42.0)
        flipped = flip_bits(data, FLOAT_SIG, [31])
        assert decode_signal(flipped, FLOAT_SIG) == -42.0

    def test_flips_do_not_touch_other_signals(self):
        data = encode_signal(bytes(8), BOOL_SIG, True)
        data = encode_signal(data, FLOAT_SIG, 1.0)
        flipped = flip_bits(data, FLOAT_SIG, [0, 13, 31])
        assert decode_signal(flipped, BOOL_SIG) is True

    @given(st.sets(st.integers(min_value=0, max_value=31), min_size=1, max_size=4))
    def test_flip_is_involution(self, offsets):
        data = encode_signal(bytes(8), FLOAT_SIG, 3.14)
        twice = flip_bits(flip_bits(data, FLOAT_SIG, offsets), FLOAT_SIG, offsets)
        assert twice == data


class TestValuesEqual:
    def test_nan_equals_nan(self):
        assert values_equal(float("nan"), float("nan"))

    def test_ordinary_equality(self):
        assert values_equal(1.0, 1.0)
        assert not values_equal(1.0, 2.0)
