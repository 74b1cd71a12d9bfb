"""Message database: layout validation, lookup, encode/decode."""

import pytest

from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import DatabaseError
from repro.errors import ParameterError
from repro.can.frame import CanFrame
from repro.can.signal import SignalDef, SignalType


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
        with pytest.raises(DatabaseError):
            MessageDef(
                "m", 1, 8, 0.02,
                (float_sig("a", 0), bool_sig("b", 31)),
            )

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
        frame = db.frame_for("Msg", {"speed": 27.5, "flag": True}, timestamp=1.0)
        name, values = db.decode(frame)
        assert name == "Msg"
        assert values["speed"] == 27.5
        assert values["flag"] is True
        assert frame.timestamp == 1.0

    def test_missing_signals_get_defaults(self):
        db = CanDatabase([simple_message()])
        _, values = db.decode(db.frame_for("Msg", {}))
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
