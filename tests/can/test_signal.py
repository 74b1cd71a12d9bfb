"""Signal definition validation and value checking."""

import math

import pytest

from repro.can.codec import payload_mask
from repro.can.errors import SignalError
from repro.can.signal import ByteOrder, SignalDef, SignalType


def make_float(name="F", start=0, **kwargs):
    return SignalDef(name, start, 32, SignalType.FLOAT, **kwargs)


def make_bool(name="B", start=0, **kwargs):
    return SignalDef(name, start, 1, SignalType.BOOL, **kwargs)


def make_enum(name="E", start=0, bits=3, **kwargs):
    return SignalDef(name, start, bits, SignalType.ENUM, **kwargs)


class TestDefinitionValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(SignalError):
            SignalDef("", 0, 1, SignalType.BOOL)

    def test_negative_start_bit_rejected(self):
        with pytest.raises(SignalError):
            SignalDef("x", -1, 1, SignalType.BOOL)

    def test_zero_length_rejected(self):
        with pytest.raises(SignalError):
            SignalDef("x", 0, 0, SignalType.ENUM)

    def test_bool_must_be_one_bit(self):
        with pytest.raises(SignalError):
            SignalDef("x", 0, 2, SignalType.BOOL)

    def test_float_must_be_32_bits(self):
        with pytest.raises(SignalError):
            SignalDef("x", 0, 16, SignalType.FLOAT)

    def test_enum_wider_than_32_bits_rejected(self):
        with pytest.raises(SignalError):
            SignalDef("x", 0, 33, SignalType.ENUM)

    def test_min_above_max_rejected(self):
        with pytest.raises(SignalError):
            make_float(minimum=10.0, maximum=1.0)


class TestBitRanges:
    def test_overlap_detection(self):
        a = make_enum("a", start=0, bits=4)
        b = make_enum("b", start=3, bits=4)
        c = make_enum("c", start=4, bits=4)
        assert payload_mask(a, 1) & payload_mask(b, 1)
        assert not payload_mask(a, 1) & payload_mask(c, 1)
        # A big-endian field at the same start bit as c owns a's bits.
        d = make_enum("d", start=4, bits=4, byte_order=ByteOrder.BIG_ENDIAN)
        assert payload_mask(d, 1) == payload_mask(a, 1) == 0b1111

    def test_max_raw(self):
        assert make_enum(bits=3).max_raw == 7
        assert make_bool().max_raw == 1


class TestDefaults:
    def test_defaults_by_type(self):
        assert make_float().default_value() == 0.0
        assert make_bool().default_value() is False
        assert make_enum().default_value() == 0


class TestValueChecking:
    def test_float_range_enforced_for_finite(self):
        signal = make_float(minimum=0.0, maximum=100.0)
        assert signal.is_valid_value(50.0)
        assert not signal.is_valid_value(-1.0)
        assert not signal.is_valid_value(101.0)

    def test_float_exceptional_values_are_representable(self):
        signal = make_float(minimum=0.0, maximum=100.0)
        assert signal.is_valid_value(float("nan"))
        assert signal.is_valid_value(float("inf"))
        assert signal.is_valid_value(float("-inf"))

    def test_float_rejects_non_numbers(self):
        signal = make_float()
        assert not signal.is_valid_value(True)
        assert not signal.is_valid_value("fast")  # type: ignore[arg-type]

    def test_bool_accepts_only_binary(self):
        signal = make_bool()
        assert signal.is_valid_value(True)
        assert signal.is_valid_value(0)
        assert not signal.is_valid_value(2)

    def test_enum_labels_define_validity(self):
        signal = make_enum(enum_labels={1: "A", 2: "B"})
        assert signal.is_valid_value(1)
        assert not signal.is_valid_value(3)
        assert not signal.is_valid_value(-1)
        assert not signal.is_valid_value(1.5)  # type: ignore[arg-type]

    def test_enum_without_labels_uses_field_and_bounds(self):
        signal = make_enum(bits=3, minimum=1, maximum=5)
        assert signal.is_valid_value(5)
        assert not signal.is_valid_value(0)
        assert not signal.is_valid_value(6)

    def test_enum_rejects_bool_values(self):
        assert not make_enum().is_valid_value(True)


class TestLabels:
    def test_label_lookup_falls_back_to_number(self):
        signal = make_enum(enum_labels={1: "SHORT"})
        assert signal.label_for(1) == "SHORT"
        assert signal.label_for(7) == "7"
