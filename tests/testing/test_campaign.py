"""Robustness campaign mechanics.

Full Table I runs live in the benchmarks; here the campaign machinery is
exercised with shortened hold times so the suite stays fast.
"""

import pytest

from repro.errors import SimulationError
from repro.hil.typecheck import VEHICLE_PROFILE
from repro.rules.safety_rules import RULE_IDS
from repro.testing.campaign import (
    InjectionTest,
    RobustnessCampaign,
    multi_signal_tests,
    single_signal_tests,
    table1_tests,
)
from repro.testing.results import RANGE_PLUS, SINGLE_TARGETS


def quick_campaign(**kwargs):
    """A campaign with short holds — enough to exercise the machinery."""
    defaults = dict(seed=11, hold_time=2.0, gap_time=0.5, settle_time=8.0)
    defaults.update(kwargs)
    return RobustnessCampaign(**defaults)


class TestTestPlan:
    def test_24_single_signal_tests_in_paper_order(self):
        tests = single_signal_tests()
        assert len(tests) == 24
        assert tests[0].label == "Random Velocity"
        assert [t.kind for t in tests[:8]] == ["Random"] * 8
        assert [t.targets[0] for t in tests[:8]] == list(SINGLE_TARGETS)

    def test_8_multi_signal_tests(self):
        tests = multi_signal_tests()
        assert len(tests) == 8
        labels = [t.label for t in tests]
        assert labels[0] == "mBallista Range+"
        assert labels[-1] == "mBitflip4 Range+"

    def test_range_plus_targets(self):
        range_plus = [t for t in multi_signal_tests() if "Range+" in t.label]
        for test in range_plus:
            if "Set" in test.label:
                assert set(test.targets) == set(RANGE_PLUS) | {"ACCSetSpeed"}
            else:
                assert set(test.targets) == set(RANGE_PLUS)

    def test_all_targets_all_nine_inputs(self):
        all_test = next(t for t in multi_signal_tests() if t.label == "mRandom All")
        assert len(all_test.targets) == 9

    def test_table1_has_32_rows(self):
        assert len(table1_tests()) == 32


class TestRunTest:
    def test_outcome_structure(self):
        campaign = quick_campaign()
        outcome = campaign.run_test(InjectionTest("Random Velocity", "Random", ("Velocity",)))
        assert set(outcome.letters) == set(RULE_IDS)
        assert set(outcome.letters.values()) <= {"S", "V"}
        assert outcome.trace is None  # not kept by default

    def test_keep_traces_retains_trace(self):
        campaign = quick_campaign(keep_traces=True)
        outcome = campaign.run_test(InjectionTest("Random ThrotPos", "Random", ("ThrotPos",)))
        assert outcome.trace is not None
        assert not outcome.trace.is_empty()

    def test_determinism_across_runs(self):
        a = quick_campaign().run_test(
            InjectionTest("Random Velocity", "Random", ("Velocity",))
        )
        b = quick_campaign().run_test(
            InjectionTest("Random Velocity", "Random", ("Velocity",))
        )
        assert a.letters == b.letters
        assert a.collisions == b.collisions

    def test_different_seed_may_differ(self):
        a = quick_campaign(seed=1).run_test(
            InjectionTest("Random Velocity", "Random", ("Velocity",))
        )
        # Just ensure a different seed runs cleanly end to end.
        assert set(a.letters) == set(RULE_IDS)

    def test_bitflip_test_runs(self):
        campaign = quick_campaign()
        outcome = campaign.run_test(
            InjectionTest("Bitflips SelHeadway", "Bitflips", ("SelHeadway",))
        )
        # Flips to invalid enums are vetoed by the HIL, flips to valid
        # values are benign: the row stays clean.
        assert outcome.letters["rule0"] == "S"

    def test_multi_bitflip_kind_parsed(self):
        campaign = quick_campaign()
        outcome = campaign.run_test(
            InjectionTest("mBitflip2 Range+", "mBitflip2", RANGE_PLUS)
        )
        assert set(outcome.letters) == set(RULE_IDS)

    def test_unknown_kind_rejected(self):
        campaign = quick_campaign()
        from repro.errors import InjectionError

        with pytest.raises(InjectionError):
            campaign.run_test(InjectionTest("x", "Chaos", ("Velocity",)))

    def test_enum_rejections_counted_on_hil(self):
        campaign = quick_campaign()
        outcome = campaign.run_test(
            InjectionTest("Random SelHeadway", "Random", ("SelHeadway",))
        )
        assert outcome.rejections > 0

    def test_vehicle_profile_admits_enum_injections(self):
        campaign = quick_campaign(checker=VEHICLE_PROFILE)
        outcome = campaign.run_test(
            InjectionTest("Random SelHeadway", "Random", ("SelHeadway",))
        )
        assert outcome.rejections == 0


class TestScenarioDuration:
    @pytest.mark.parametrize(
        "name", ["hold_time", "gap_time", "settle_time"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_timing_rejected(self, name, value):
        # Regression: a NaN or negative hold ran an all-S campaign and
        # an infinite one never finished.
        with pytest.raises(SimulationError, match=name):
            quick_campaign(**{name: value})

    def test_duration_is_settle_plus_injections(self):
        campaign = quick_campaign()
        test = InjectionTest("Random Velocity", "Random", ("Velocity",))
        assert campaign.injection_count(test) == 8
        assert campaign.scenario_duration(test) == pytest.approx(
            8.0 + 8 * (2.0 + 0.5)
        )

    def test_bitflip_count_respects_field_width(self):
        campaign = quick_campaign()
        # Velocity is a wide float field: 4 flips at each of 1/2/4 bits.
        wide = InjectionTest("Bitflips Velocity", "Bitflips", ("Velocity",))
        assert campaign.injection_count(wide) == 12
        # VehicleAhead is a 1-bit boolean: only the 1-bit size fits.
        narrow = InjectionTest(
            "Bitflips VehicleAhead", "Bitflips", ("VehicleAhead",)
        )
        assert campaign.injection_count(narrow) == 4

    def test_multi_signal_counts(self):
        campaign = quick_campaign()
        assert (
            campaign.injection_count(
                InjectionTest("mRandom Range+", "mRandom", RANGE_PLUS)
            )
            == 20
        )
        assert (
            campaign.injection_count(
                InjectionTest("mBitflip2 Range+", "mBitflip2", RANGE_PLUS)
            )
            == 20
        )

    def test_trace_spans_exactly_the_scenario(self):
        campaign = quick_campaign(keep_traces=True)
        test = InjectionTest("Random ThrotPos", "Random", ("ThrotPos",))
        outcome = campaign.run_test(test)
        expected = campaign.scenario_duration(test)
        assert outcome.trace.duration == pytest.approx(expected, abs=0.1)


class TestRunTable:
    def test_partial_table_with_progress(self):
        campaign = quick_campaign()
        seen = []
        tests = single_signal_tests()[:2]
        table = campaign.run_table1(
            tests=tests, progress=lambda t, o: seen.append(t.label)
        )
        assert len(table.rows) == 2
        assert seen == [t.label for t in tests]
        assert table.rows[0].label == "Random Velocity"
