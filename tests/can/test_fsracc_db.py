"""The FSRACC message set matches the paper's Figure 1 and §V-C1."""

import pytest

from repro.acc.interface import FIG1_ROWS
from repro.can.fsracc import (
    FAST_PERIOD,
    FSRACC_ALL_INPUTS,
    FSRACC_INPUTS,
    FSRACC_OUTPUTS,
    HEADWAY_TIME_GAPS,
    SLOW_PERIOD,
    fsracc_database,
)
from repro.can.frame import CanFrame
from repro.can.signal import SignalType


class TestSignalInventory:
    def test_paper_lists_nine_inputs_and_six_outputs(self):
        assert len(FSRACC_INPUTS) == 9
        assert len(FSRACC_OUTPUTS) == 6

    def test_every_fig1_signal_exists_in_database(self, database):
        for name, _direction, _kind in FIG1_ROWS:
            assert name in database

    def test_fig1_types_match_database(self, database):
        type_map = {
            "float": SignalType.FLOAT,
            "boolean": SignalType.BOOL,
        }
        for name, _direction, kind in FIG1_ROWS:
            if name == "SelHeadway":
                # The paper's Fig. 1 prints SelHeadway as float but the
                # text calls it "an enum SelHeadway"; we follow the text.
                assert database.signal(name).kind is SignalType.ENUM
            else:
                assert database.signal(name).kind is type_map[kind]

    def test_acc_active_is_an_extra_disregarded_input(self, database):
        assert "AccActive" in database
        assert "AccActive" not in FSRACC_INPUTS
        assert FSRACC_ALL_INPUTS[-1] == "AccActive"


class TestPeriods:
    def test_slow_period_is_four_times_fast(self):
        assert SLOW_PERIOD == pytest.approx(4 * FAST_PERIOD)

    def test_requested_torque_is_on_the_slow_period(self, database):
        message = database.message_for_signal("RequestedTorque")
        assert message.period == pytest.approx(SLOW_PERIOD)

    def test_most_messages_are_fast(self, database):
        fast = [m for m in database.messages() if m.period == FAST_PERIOD]
        slow = [m for m in database.messages() if m.period == SLOW_PERIOD]
        assert len(fast) > len(slow)

    def test_outputs_have_fsracc_sender(self, database):
        for name in FSRACC_OUTPUTS:
            assert database.message_for_signal(name).sender == "fsracc"


class TestHeadwayEncoding:
    def test_enum_labels_are_positive_integers(self, database):
        signal = database.signal("SelHeadway")
        assert set(signal.enum_labels) == {1, 2, 3}

    def test_time_gaps_monotone_in_selection(self):
        assert HEADWAY_TIME_GAPS[1] < HEADWAY_TIME_GAPS[2] < HEADWAY_TIME_GAPS[3]

    def test_time_gaps_match_rule_linearization(self):
        # The monitor's rule #2 encodes the gap as 0.6 + 0.6 * SelHeadway.
        for selection, gap in HEADWAY_TIME_GAPS.items():
            assert gap == pytest.approx(0.6 + 0.6 * selection)


class TestRoundTrip:
    def test_full_io_round_trip(self, database):
        values = {
            "Velocity": 27.5,
            "VehicleAhead": True,
            "TargetRange": 48.6,
            "SelHeadway": 3,
            "RequestedTorque": -120.25,
        }
        for name, value in values.items():
            message = database.message_for_signal(name)
            frame = CanFrame(
                message.can_id, database.encode(message.name, {name: value})
            )
            _, decoded = database.decode(frame)
            # Floats travel as IEEE-754 binary32, so compare at that precision.
            assert decoded[name] == pytest.approx(value, rel=1e-6)
