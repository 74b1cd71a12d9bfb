"""Monitor: rule checking, gating, masking, reporting."""

import pytest

from helpers import rule_trace, uniform_trace
from repro.core.intent import DurationFilter
from repro.core.monitor import Monitor, MonitorReport, Rule
from repro.core.online import OnlineMonitor
from repro.core.statemachine import StateMachine
from repro.core.types import Verdict
from repro.core.warmup import WarmupSpec
from repro.errors import ParameterError, SpecError
from repro.testing.campaign import RobustnessCampaign


def simple_rule(formula="x > 0", gate=None, **kwargs):
    return Rule.from_text("r1", "test rule", formula, gate=gate, **kwargs)


class TestRuleConstruction:
    def test_from_text_parses_everything(self):
        rule = simple_rule(gate="g")
        assert rule.gate is not None
        assert set(rule.signals()) == {"x", "g"}

    def test_effective_formula_folds_gate(self):
        rule = simple_rule(gate="g")
        assert "->" in str(rule.effective_formula())

    def test_warmup_signals_included(self):
        rule = Rule.from_text(
            "r", "n", "x > 0", warmup=WarmupSpec.parse("w > 0", 0.1)
        )
        assert "w" in rule.signals()

    def test_relaxed_appends_filters(self):
        rule = simple_rule()
        relaxed = rule.relaxed(DurationFilter(0.1))
        assert len(relaxed.filters) == 1
        assert rule.filters == ()
        assert relaxed.rule_id == rule.rule_id


class TestMonitorBasics:
    def test_satisfied_rule(self):
        monitor = Monitor([simple_rule()])
        report = monitor.check(uniform_trace({"x": [1, 2, 3]}))
        result = report.result("r1")
        assert result.verdict is Verdict.TRUE
        assert result.letter == "S"
        assert not result.violated

    def test_violated_rule(self):
        monitor = Monitor([simple_rule()])
        report = monitor.check(uniform_trace({"x": [1, -1, -1, 1]}))
        result = report.result("r1")
        assert result.verdict is Verdict.FALSE
        assert result.letter == "V"
        assert len(result.violations) == 1
        assert result.violations[0].rows == 2

    def test_unknown_verdict_from_truncated_window(self):
        monitor = Monitor(
            [simple_rule("eventually[0, 1s] x > 0")]
        )
        report = monitor.check(uniform_trace({"x": [0, 0, 0]}))
        assert report.result("r1").verdict is Verdict.UNKNOWN

    def test_duplicate_rule_ids_rejected(self):
        with pytest.raises(SpecError):
            Monitor([simple_rule(), simple_rule()])

    def test_required_signals_union(self):
        monitor = Monitor(
            [simple_rule("x > 0"), Rule.from_text("r2", "n", "y > 0", gate="g")]
        )
        assert set(monitor.required_signals()) == {"x", "y", "g"}

    def test_multiple_rules_checked_independently(self):
        monitor = Monitor(
            [simple_rule("x > 0"), Rule.from_text("r2", "n", "x < 10")]
        )
        report = monitor.check(uniform_trace({"x": [5, -1, 5]}))
        assert report.letter("r1") == "V"
        assert report.letter("r2") == "S"


class TestNearMissThreshold:
    @pytest.mark.parametrize(
        "build",
        [
            lambda rules: Monitor(rules).check(
                uniform_trace({"x": [1, 2]}), near_miss_threshold=-1.0
            ),
            lambda rules: OnlineMonitor(rules, near_miss_threshold=-1.0),
            lambda rules: RobustnessCampaign(
                rules=rules, near_miss_threshold=-1.0
            ),
        ],
        ids=["offline", "online", "campaign"],
    )
    def test_negative_threshold_is_a_spec_error(self, build):
        """Refused up front, as a ParameterError naming the parameter."""
        with pytest.raises(ParameterError, match="near_miss_threshold"):
            build([simple_rule()])


class TestGating:
    def test_rows_outside_gate_vacuously_pass(self):
        rule = simple_rule("x > 0", gate="g")
        monitor = Monitor([rule])
        trace = uniform_trace({"x": [-1, -1, 1], "g": [0, 0, 1]})
        report = monitor.check(trace)
        assert report.letter("r1") == "S"

    def test_gated_violation_detected(self):
        rule = simple_rule("x > 0", gate="g")
        monitor = Monitor([rule])
        trace = uniform_trace({"x": [-1, -1], "g": [0, 1]})
        report = monitor.check(trace)
        result = report.result("r1")
        assert result.violated
        assert result.violations[0].start_row == 1


class TestMasking:
    def test_initial_settle_suppresses_startup_rows(self):
        rule = simple_rule("x > 0", initial_settle=0.04)
        monitor = Monitor([rule])
        trace = uniform_trace({"x": [-1, -1, -1, 1, 1]})
        report = monitor.check(trace)
        result = report.result("r1")
        assert not result.violated
        assert result.rows_masked == 3

    def test_warmup_masks_after_trigger(self):
        rule = Rule.from_text(
            "r", "n", "x > 0", warmup=WarmupSpec.parse("t > 0", 0.04)
        )
        monitor = Monitor([rule])
        trace = uniform_trace({"x": [1, -1, -1, -1, 1], "t": [0, 1, 0, 0, 0]})
        report = monitor.check(trace)
        # Rows 1-3 masked by the 2-row warm-up window after row 1.
        assert not report.result("r").violated

    def test_filtered_violations_report_satisfied_with_dismissals(self):
        rule = simple_rule().relaxed(DurationFilter(1.0))
        monitor = Monitor([rule])
        trace = uniform_trace({"x": [1, -1, 1]})
        report = monitor.check(trace)
        result = report.result("r1")
        assert result.letter == "S"
        assert result.verdict is Verdict.TRUE
        assert len(result.dismissed) == 1


class TestMachines:
    def test_machine_gated_rule(self):
        machine = StateMachine(
            "m", ("idle", "active"), "idle",
            (("idle", "active", "e > 0"), ("active", "idle", "e <= 0")),
        )
        rule = Rule.from_text("r", "n", "in_state(m, active) -> x > 0")
        monitor = Monitor([rule], machines=[machine])
        trace = uniform_trace({"e": [0, 1, 1, 0], "x": [-1, 1, -1, -1]})
        report = monitor.check(trace)
        result = report.result("r")
        assert result.violated
        assert result.violations[0].start_row == 2
        assert len(result.violations) == 1

    def test_undefined_machine_rejected_at_construction(self):
        rule = Rule.from_text("r", "n", "in_state(ghost, s)")
        with pytest.raises(SpecError):
            Monitor([rule])

    def test_machine_guard_signals_in_required(self):
        machine = StateMachine(
            "m", ("a", "b"), "a", (("a", "b", "trigger > 0"),)
        )
        rule = Rule.from_text("r", "n", "in_state(m, b) -> x > 0")
        monitor = Monitor([rule], machines=[machine])
        assert "trigger" in monitor.required_signals()


class TestReport:
    def test_letters_and_violated_rules(self):
        monitor = Monitor(
            [simple_rule("x > 0"), Rule.from_text("r2", "n", "x < 100")]
        )
        report = monitor.check(uniform_trace({"x": [-5, 5]}))
        assert report.letters() == {"r1": "V", "r2": "S"}
        assert report.violated_rules() == ["r1"]
        assert not report.all_satisfied
        assert report.violation_count() == 1

    def test_summary_renders(self):
        monitor = Monitor([simple_rule()])
        report = monitor.check(uniform_trace({"x": [1]}, name="demo"))
        text = report.summary()
        assert "demo" in text
        assert "r1" in text

    def test_unknown_rule_lookup_raises(self):
        monitor = Monitor([simple_rule()])
        report = monitor.check(uniform_trace({"x": [1]}))
        with pytest.raises(SpecError):
            report.result("ghost")

    def test_check_window(self):
        monitor = Monitor([simple_rule()])
        trace = uniform_trace({"x": [-1] * 10 + [1] * 10})
        report = monitor.check(trace, start=0.2, end=0.38)
        assert report.letter("r1") == "S"


class TestReportDigest:
    def test_to_dict_is_json_serializable(self):
        import json

        monitor = Monitor([simple_rule()])
        report = monitor.check(uniform_trace({"x": [1, -1, 1]}, name="d"))
        digest = report.to_dict()
        text = json.dumps(digest)
        assert "d" in text
        assert digest["all_satisfied"] is False
        assert digest["rules"]["r1"]["letter"] == "V"
        assert digest["rules"]["r1"]["violations"][0]["rows"] == 1

    def test_to_dict_counts_dismissals(self):
        rule = simple_rule().relaxed(DurationFilter(1.0))
        report = Monitor([rule]).check(uniform_trace({"x": [1, -1, 1]}))
        assert report.to_dict()["rules"]["r1"]["dismissed"] == 1
