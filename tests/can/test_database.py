"""Message database: layout validation, lookup, encode/decode."""

import pytest

from helpers import insert_raw
from repro.can.database import CanDatabase, MessageDef
from repro.can.dbcio import loads_database
from repro.can.errors import DatabaseError
from repro.errors import ParameterError
from repro.can.frame import MAX_STANDARD_ID, CanFrame
from repro.can.signal import ByteOrder, SignalDef, SignalType


def float_sig(name, start):
    return SignalDef(name, start, 32, SignalType.FLOAT)


def bool_sig(name, start):
    return SignalDef(name, start, 1, SignalType.BOOL)


def simple_message(name="Msg", can_id=0x10, period=0.02):
    return MessageDef(
        name=name,
        can_id=can_id,
        length=8,
        period=period,
        signals=(float_sig("speed", 0), bool_sig("flag", 32)),
    )


class TestMessageValidation:
    def test_zero_length_rejected(self):
        with pytest.raises(DatabaseError):
            MessageDef("m", 1, 0, 0.02, ())

    def test_over_length_rejected(self):
        with pytest.raises(DatabaseError):
            MessageDef("m", 1, 9, 0.02, ())

    def test_non_positive_period_rejected(self):
        with pytest.raises(ParameterError, match="m: period must be a positive"):
            MessageDef("m", 1, 8, 0.0, ())

    def test_signal_beyond_payload_rejected(self):
        with pytest.raises(DatabaseError):
            MessageDef("m", 1, 4, 0.02, (float_sig("x", 8),))

    def test_overlapping_signals_rejected(self):
        with pytest.raises(DatabaseError, match="signals a and b share"):
            MessageDef(
                "m", 1, 8, 0.02,
                (float_sig("a", 0), bool_sig("b", 31)),
            )

    @pytest.mark.parametrize("can_id", [-1, MAX_STANDARD_ID + 1, 0x1FFFFFFF])
    def test_can_id_outside_the_standard_range_rejected(self, can_id):
        with pytest.raises(DatabaseError, match="^m: CAN id %d outside" % can_id):
            MessageDef("m", can_id, 8, 0.02, ())
        text = "# repro-candb v1\nmessage m %d length 8 period 20ms\n" % can_id
        if can_id >= 0:
            with pytest.raises(DatabaseError, match="^m: CAN id"):
                loads_database(text)

    @pytest.mark.parametrize("can_id", [0, MAX_STANDARD_ID])
    def test_can_id_at_the_ends_of_the_standard_range_accepted(self, can_id):
        assert MessageDef("m", can_id, 8, 0.02, ()).can_id == can_id

    def test_duplicate_signal_names_rejected(self):
        with pytest.raises(DatabaseError):
            MessageDef(
                "m", 1, 8, 0.02,
                (bool_sig("x", 0), bool_sig("x", 1)),
            )

    def test_signal_lookup(self):
        message = simple_message()
        assert message.signal("speed").start_bit == 0
        with pytest.raises(DatabaseError):
            message.signal("nope")

    def test_signal_names_in_payload_order(self):
        assert simple_message().signal_names() == ("speed", "flag")


def enum_field(name, start, length, byte_order):
    return SignalDef(name, start, length, SignalType.ENUM, byte_order=byte_order)


class TestPayloadOverlap:
    """Two signals overlap when they own a common payload bit, whatever
    their nominal start-bit spans: a big-endian field's start bit is not
    its payload bit position."""

    def test_roadmap_example_is_refused_naming_both_signals(self):
        # A owns bit 0; B, big-endian at bit 1, owns bits 0-6.
        a = enum_field("A", 0, 1, ByteOrder.LITTLE_ENDIAN)
        b = enum_field("B", 1, 7, ByteOrder.BIG_ENDIAN)
        with pytest.raises(DatabaseError, match="^m: signals A and B share payload bits$"):
            MessageDef("m", 1, 1, 0.02, (a, b))

    def test_disjoint_bits_with_overlapping_spans_are_accepted(self):
        # Both start at bit 0: lo owns the low nibble, hi the high one.
        lo = enum_field("lo", 0, 4, ByteOrder.LITTLE_ENDIAN)
        hi = enum_field("hi", 0, 4, ByteOrder.BIG_ENDIAN)
        assert MessageDef("m", 1, 1, 0.02, (lo, hi)).signals == (lo, hi)

    def test_exactly_the_layouts_sharing_a_payload_bit_are_refused(self):
        """Every two-signal layout of a 1-3 byte message, one field
        little-endian and one big-endian, against the per-signal
        codec's payload bits."""
        layouts = refused = 0
        for length in (1, 2, 3):
            bits = 8 * length
            fields = {}
            for byte_order in ByteOrder:
                fields[byte_order] = []
                name = "L" if byte_order is ByteOrder.LITTLE_ENDIAN else "B"
                for start in range(bits):
                    for width in range(1, bits - start + 1):
                        field = enum_field(name, start, width, byte_order)
                        data = insert_raw(bytes(length), field, field.max_raw)
                        fields[byte_order].append(
                            (field, int.from_bytes(data, "little"))
                        )
            for little, little_mask in fields[ByteOrder.LITTLE_ENDIAN]:
                for big, big_mask in fields[ByteOrder.BIG_ENDIAN]:
                    layouts += 1
                    try:
                        MessageDef("m", 1, length, 0.02, (little, big))
                    except DatabaseError as error:
                        assert little_mask & big_mask, (little, big)
                        assert str(error) == "m: signals L and B share payload bits"
                        refused += 1
                    else:
                        assert not little_mask & big_mask, (little, big)
        assert layouts == 109_792
        assert refused > 0


class TestDatabaseRegistry:
    def test_duplicate_can_id_rejected(self):
        db = CanDatabase([simple_message()])
        with pytest.raises(DatabaseError):
            db.add_message(simple_message(name="Other", can_id=0x10))

    def test_duplicate_message_name_rejected(self):
        db = CanDatabase([simple_message()])
        with pytest.raises(DatabaseError):
            db.add_message(simple_message(name="Msg", can_id=0x11))

    def test_globally_duplicate_signal_rejected(self):
        db = CanDatabase([simple_message()])
        clashing = MessageDef(
            "Clash", 0x11, 8, 0.02, (float_sig("speed", 0),)
        )
        with pytest.raises(DatabaseError):
            db.add_message(clashing)

    def test_lookups(self):
        db = CanDatabase([simple_message()])
        assert db.message_by_id(0x10).name == "Msg"
        assert db.message_by_name("Msg").can_id == 0x10
        assert db.message_for_signal("flag").name == "Msg"
        assert db.signal("speed").kind is SignalType.FLOAT
        assert "speed" in db
        assert "missing" not in db

    def test_unknown_lookups_raise(self):
        db = CanDatabase()
        with pytest.raises(DatabaseError):
            db.message_by_id(0x99)
        with pytest.raises(DatabaseError):
            db.message_by_name("x")
        with pytest.raises(DatabaseError):
            db.message_for_signal("x")

    def test_messages_iterate_in_id_order(self):
        db = CanDatabase(
            [simple_message("B", 0x20), ]
        )
        db.add_message(
            MessageDef("A", 0x10, 8, 0.02, (bool_sig("a0", 0),))
        )
        assert [m.name for m in db.messages()] == ["A", "B"]


class TestEncodeDecode:
    def test_round_trip(self):
        db = CanDatabase([simple_message()])
        frame = CanFrame(0x10, db.encode("Msg", {"speed": 27.5, "flag": True}))
        name, values = db.decode(frame)
        assert name == "Msg"
        assert values["speed"] == 27.5
        assert values["flag"] is True

    def test_missing_signals_get_defaults(self):
        db = CanDatabase([simple_message()])
        _, values = db.decode(CanFrame(0x10, db.encode("Msg", {})))
        assert values == {"speed": 0.0, "flag": False}

    def test_short_frame_rejected(self):
        db = CanDatabase([simple_message()])
        with pytest.raises(DatabaseError):
            db.decode(CanFrame(0x10, b"\x00\x00"))

    def test_signal_names_across_database(self, database):
        names = database.signal_names()
        assert "Velocity" in names
        assert "RequestedTorque" in names
        assert names == tuple(sorted(names))
