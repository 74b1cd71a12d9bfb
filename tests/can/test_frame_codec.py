"""The compiled whole-message codec against the per-signal functions.

Every case encodes and decodes one payload both ways: payloads must
match byte for byte, decoded values bit for bit (floats compared through
their IEEE-754 bytes, so NaN payloads and -0.0 count), and rejected
values must raise the same error with the same message.  The
payload-free :meth:`FrameCodec.deliver` must give the per-signal
decode of the per-signal encode, and reject what it rejects, with the
same message.
"""

import enum
import struct

import numpy as np
import pytest

from helpers import (
    assert_same_values,
    per_signal_decode,
    per_signal_encode,
    synthetic_database,
)
from repro.can.codec import FrameCodec
from repro.can.errors import CodecError, DatabaseError
from repro.can.frame import CanFrame
from repro.can.signal import SignalType

def f64(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def f32(bits):
    return struct.unpack("<f", struct.pack("<I", bits))[0]


#: NaNs with several payloads (quiet and signalling, both signs, in
#: float64 and float32 form), infinities, denormals and signed zeros.
SPECIAL_FLOATS = (
    float("nan"),
    -float("nan"),
    f64(0x7FF8000000000001),
    f64(0x7FF0000000000001),
    f64(0xFFF00000DEADBEEF),
    f64(0x7FFFFFFFFFFFFFFF),
    f32(0x7FC00001),
    f32(0x7F800001),
    f32(0xFFBFFFFF),
    float("inf"),
    -float("inf"),
    5e-324,
    -5e-324,
    1e-45,
    f32(0x00000001),
    f32(0x807FFFFF),
    1.17549435e-38,
    0.0,
    -0.0,
    3.4028234663852886e38,
    -3.4028234663852886e38,
    1.5,
    True,
    7,
)

#: Values outside float32 or not numbers at all: both codecs must reject
#: them with the same CodecError.
BAD_FLOATS = (1e39, -1e39, 3.5e38, 1e308, "fast", None, [1.0], 1 << 200)


def random_values(message, rng):
    """One value per signal: floats from random 32- and 64-bit patterns,
    enums anywhere in their field, booleans and truthy stand-ins."""
    values = {}
    for signal in message.signals:
        if signal.kind is SignalType.FLOAT:
            if rng.random() < 0.5:
                values[signal.name] = f32(int(rng.integers(0, 1 << 32)))
            else:
                value = f64(int(rng.integers(0, 1 << 63)))
                if abs(value) > 3.4e38 and value == value:
                    value = float(rng.normal(0.0, 1e3))
                values[signal.name] = value
        elif signal.kind is SignalType.BOOL:
            values[signal.name] = [True, False, 0, 1, 2.5, 0.0][
                int(rng.integers(0, 6))
            ]
        else:
            values[signal.name] = int(rng.integers(0, signal.max_raw + 1))
        if rng.random() < 0.1:
            del values[signal.name]  # falls back to the default
    return values


def check_message(message, values):
    """Encode and decode ``values`` both ways and compare everything."""
    codec = FrameCodec(message.length, message.signals)
    try:
        want = per_signal_encode(message, values)
    except CodecError as expected:
        for code in (codec.encode, codec.deliver):
            with pytest.raises(CodecError) as raised:
                code(values)
            assert str(raised.value) == str(expected)
        return
    got = codec.encode(values)
    assert got == want
    decoded = per_signal_decode(message, want)
    assert_same_values(codec.deliver(values), decoded)
    assert_same_values(codec.decode(want), decoded)


def all_messages():
    from repro.can.fsracc import fsracc_database

    return list(fsracc_database().messages()) + list(
        synthetic_database().messages()
    )


MESSAGES = all_messages()


class TestEncodeDecode:
    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
    def test_random_values(self, message):
        rng = np.random.default_rng(message.can_id)
        for _ in range(300):
            check_message(message, random_values(message, rng))

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
    def test_random_payloads_decode(self, message):
        rng = np.random.default_rng(message.can_id + 1)
        codec = FrameCodec(message.length, message.signals)
        for _ in range(300):
            data = bytes(rng.integers(0, 256, message.length, dtype=np.uint8))
            assert_same_values(codec.decode(data), per_signal_decode(message, data))

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
    def test_enum_extremes(self, message):
        for pick in (lambda s: 0, lambda s: s.max_raw):
            values = {
                s.name: pick(s)
                for s in message.signals
                if s.kind is SignalType.ENUM
            }
            check_message(message, values)

    def test_int_subclass_enum_is_delivered_as_plain_int(self):
        class Level(enum.IntEnum):
            HIGH = 3

        message = synthetic_database().message_by_name("AllBig")
        check_message(message, {"big_e": Level.HIGH, "big_e3": Level.HIGH})

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
    def test_bad_enums_raise_the_same_error(self, message):
        for signal in message.signals:
            if signal.kind is not SignalType.ENUM:
                continue
            for bad in (-1, signal.max_raw + 1, 1.0, True, "1", None):
                check_message(message, {signal.name: bad})

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
    def test_special_floats(self, message):
        floats = [s for s in message.signals if s.kind is SignalType.FLOAT]
        for value in SPECIAL_FLOATS:
            check_message(message, {s.name: value for s in floats})

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
    def test_bad_floats_raise_the_same_error(self, message):
        floats = [s for s in message.signals if s.kind is SignalType.FLOAT]
        for signal in floats:
            for bad in BAD_FLOATS:
                check_message(message, {signal.name: bad})


class TestLongFrames:
    """A frame may carry more bytes than its message: a big-endian
    field's position then counts from the end of the longer payload."""

    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.name)
    def test_longer_payloads_decode_like_decode_signal(self, message):
        rng = np.random.default_rng(message.can_id + 2)
        codec = FrameCodec(message.length, message.signals)
        for extra in range(0, 9 - message.length):
            for _ in range(50):
                data = bytes(
                    rng.integers(0, 256, message.length + extra, dtype=np.uint8)
                )
                assert_same_values(
                    codec.decode(data), per_signal_decode(message, data)
                )

    def test_database_decode_of_a_long_frame(self):
        database = synthetic_database()
        message = database.message_by_name("Short")
        data = bytes(range(0x81, 0x89))
        name, values = database.decode(CanFrame(message.can_id, data))
        assert name == "Short"
        assert_same_values(values, per_signal_decode(message, data))


class TestDatabaseContract:
    def test_deliver_matches_decode(self, database):
        for message in database.messages():
            data = database.encode(message.name, {})
            _, decoded = database.decode(CanFrame(message.can_id, data))
            assert_same_values(database.codec(message.name).deliver({}), decoded)

    def test_unknown_codec(self, database):
        with pytest.raises(DatabaseError, match="unknown message Nope"):
            database.codec("Nope")

    def test_unknown_message(self, database):
        with pytest.raises(DatabaseError, match="unknown message Nope"):
            database.encode("Nope", {})

    def test_short_frame(self, database):
        message = database.message_by_name("VehicleMotion")
        frame = CanFrame(message.can_id, bytes(message.length - 1))
        with pytest.raises(DatabaseError, match="frame carries"):
            database.decode(frame)
