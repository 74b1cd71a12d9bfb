"""Textual database format round trips."""

import dataclasses
import io

import pytest

from repro.can.database import CanDatabase, MessageDef
from repro.can.dbcio import (
    dump_database,
    dumps_database,
    load_database,
    loads_database,
)
from repro.can.errors import DatabaseError
from repro.can.fsracc import fsracc_database
from repro.can.signal import ByteOrder, SignalDef, SignalType


def little_endian_database():
    """Every kind, unaligned fields, bounds and periods that ``%g``
    would round, labels, senders and comments, all little-endian."""
    return CanDatabase(
        [
            MessageDef(
                "Odd", 0x7FF, 6, 0.0123456789,
                (
                    SignalDef("odd_e", 3, 7, SignalType.ENUM, minimum=0.1234567,
                              maximum=99.87654321, enum_labels={0: "OFF", 5: "ON"}),
                    SignalDef("odd_f", 10, 32, SignalType.FLOAT, unit="kg",
                              minimum=-1e-7, maximum=3.4e38),
                    SignalDef("odd_b", 42, 1, SignalType.BOOL, comment="not kept"),
                ),
                sender="ecu",
            ),
            MessageDef(
                "Slow", 0, 1, 2.5,
                (SignalDef("slow_e", 0, 8, SignalType.ENUM, minimum=-3.0, maximum=250.0),),
                comment="not kept",
            ),
        ]
    )


def one_message(signal, length=8):
    return CanDatabase([MessageDef("M", 0x10, length, 0.02, (signal,))])


class TestRoundTrip:
    def test_fsracc_database_round_trips(self, database):
        text = dumps_database(database)
        again = loads_database(text)
        assert [m.name for m in again.messages()] == [
            m.name for m in database.messages()
        ]
        for message in database.messages():
            twin = again.message_by_name(message.name)
            assert twin.can_id == message.can_id
            assert twin.length == message.length
            assert twin.period == pytest.approx(message.period)
            assert twin.sender == message.sender
            assert twin.signal_names() == message.signal_names()

    def test_signal_details_preserved(self, database):
        again = loads_database(dumps_database(database))
        velocity = again.signal("Velocity")
        assert velocity.kind is SignalType.FLOAT
        assert velocity.minimum == -10.0
        assert velocity.maximum == 120.0
        assert velocity.unit == "m/s"
        headway = again.signal("SelHeadway")
        assert headway.kind is SignalType.ENUM
        assert headway.bit_length == 3
        assert headway.enum_labels == {1: "SHORT", 2: "MEDIUM", 3: "LONG"}

    def test_double_round_trip_is_fixed_point(self, database):
        once = dumps_database(database)
        twice = dumps_database(loads_database(once))
        assert once == twice

    def test_file_round_trip(self, tmp_path, database):
        path = tmp_path / "network.candb"
        dump_database(database, str(path))
        again = load_database(str(path))
        assert again.signal_names() == database.signal_names()

    def test_reloaded_database_encodes_identically(self, database):
        again = loads_database(dumps_database(database))
        values = {"Velocity": 27.5}
        assert again.encode("VehicleMotion", values) == database.encode(
            "VehicleMotion", values
        )


@pytest.mark.parametrize("name", ["fsracc", "little_endian"])
def test_every_field_but_the_comments_reloads_equal(name):
    database = {"fsracc": fsracc_database, "little_endian": little_endian_database}[name]()
    again = loads_database(dumps_database(database))
    assert [m.name for m in again.messages()] == [m.name for m in database.messages()]
    for message in database.messages():
        twin = again.message_by_name(message.name)
        assert dataclasses.replace(twin, signals=(), comment="") == dataclasses.replace(
            message, signals=(), comment=""
        )
        ordered = sorted(message.signals, key=lambda s: s.start_bit)
        assert twin.signals == tuple(
            dataclasses.replace(signal, comment="") for signal in ordered
        )


class TestUnwritable:
    def test_big_endian_signal_refused(self):
        signal = SignalDef("a", 0, 3, SignalType.ENUM, byte_order=ByteOrder.BIG_ENDIAN,
                           enum_labels={5: "FIVE"})
        with pytest.raises(DatabaseError, match="^a: a big-endian signal"):
            dumps_database(one_message(signal, length=2))
        buffer = io.StringIO()
        with pytest.raises(DatabaseError):
            dump_database(one_message(signal, length=2), buffer)
        assert buffer.getvalue() == ""

    @pytest.mark.parametrize("bounds", [(1.0, None), (None, 1.0)])
    def test_one_sided_range_refused(self, bounds):
        signal = SignalDef("a", 0, 32, SignalType.FLOAT, minimum=bounds[0], maximum=bounds[1])
        with pytest.raises(DatabaseError, match="^a: a range with one bound"):
            dumps_database(one_message(signal))

    def test_bounds_reload_exactly(self):
        signal = SignalDef("a", 0, 32, SignalType.FLOAT, minimum=1e-300, maximum=0.1234567)
        again = loads_database(dumps_database(one_message(signal))).signal("a")
        assert (again.minimum, again.maximum) == (1e-300, 0.1234567)


class TestParseErrors:
    def test_bad_header_rejected(self):
        with pytest.raises(DatabaseError):
            loads_database("something else\n")

    def test_bad_message_line_rejected(self):
        with pytest.raises(DatabaseError):
            loads_database("# repro-candb v1\nmessage lol\n")

    def test_signal_before_message_rejected(self):
        with pytest.raises(DatabaseError):
            loads_database("# repro-candb v1\nsignal x float @0\n")

    def test_enum_without_width_rejected(self):
        text = (
            "# repro-candb v1\n"
            "message M 0x10 length 8 period 20ms\n"
            "  signal e enum @0\n"
        )
        with pytest.raises(DatabaseError):
            loads_database(text)

    def test_bad_enum_value_rejected(self):
        text = (
            "# repro-candb v1\n"
            "message M 0x10 length 8 period 20ms\n"
            "  signal e enum @0 width 3 values one=A\n"
        )
        with pytest.raises(DatabaseError):
            loads_database(text)

    def test_bad_range_bound_rejected(self):
        text = (
            "# repro-candb v1\n"
            "message M 0x10 length 8 period 20ms\n"
            "  signal v float @0 range 1..x\n"
        )
        with pytest.raises(DatabaseError, match="line 3: bad range bound 'x'"):
            loads_database(text)

    def test_unrecognized_line_rejected(self):
        text = "# repro-candb v1\nwhatever\n"
        with pytest.raises(DatabaseError):
            loads_database(text)

    def test_comments_and_blanks_ignored(self):
        text = (
            "# repro-candb v1\n"
            "\n"
            "# the motion message\n"
            "message M 0x10 length 8 period 20ms\n"
            "  signal v float @0\n"
        )
        database = loads_database(text)
        assert "v" in database
