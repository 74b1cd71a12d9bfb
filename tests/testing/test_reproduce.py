"""The one-call reproduction driver (exercised on a tiny subset)."""

import pytest

from repro.testing.campaign import InjectionTest
from repro.testing.reproducer import ReproductionResult, reproduce
from repro.testing.results import Table1, TableRow
from repro.rules.safety_rules import RULE_IDS


class TestReproductionResult:
    def _result(self, checks):
        table = Table1(
            rows=[
                TableRow(
                    label="Random Velocity",
                    kind="Random",
                    targets=("Velocity",),
                    letters={rid: "S" for rid in RULE_IDS},
                )
            ]
        )
        return ReproductionResult(
            table1=table,
            vehicle_rows=[
                {"scenario": "v:x", "strict": "S" * 7, "relaxed": "S" * 7}
            ],
            coverage_text="signal coverage: 70%",
            checks=checks,
        )

    def test_ok_requires_all_checks(self):
        assert self._result({"a": True, "b": True}).ok
        assert not self._result({"a": True, "b": False}).ok

    def test_report_renders_all_sections(self):
        text = self._result({"a": True}).report()
        assert "REPRODUCTION REPORT" in text
        assert "FAULT INJECTION RESULTS" in text
        assert "REAL VEHICLE LOGS" in text
        assert "MONITORING COVERAGE" in text
        assert "PASS" in text

    def test_report_header_is_host_independent(self):
        # Regression: the header stamped the run's wall time, e.g.
        # "REPRODUCTION REPORT (47 s)", so the committed report changed
        # on every regeneration.
        text = self._result({"a": True}).report()
        assert text.splitlines()[0] == "REPRODUCTION REPORT"
        host_words = (" s)", "seconds", "elapsed", "core(s)")
        assert not any(word in text for word in host_words)
        assert self._result({"a": True}).report() == text


class TestDriverSmoke:
    def test_progress_reported_and_structure_complete(self, monkeypatch):
        # Shrink the campaign drastically: one test row, short holds.
        import repro.testing.reproducer as module

        monkeypatch.setattr(
            module,
            "single_signal_tests",
            lambda: [InjectionTest("Random ThrotPos", "Random", ("ThrotPos",))],
        )

        original = module.RobustnessCampaign

        def quick_campaign(seed):
            return original(
                seed=seed, hold_time=1.0, gap_time=0.2, settle_time=5.0
            )

        monkeypatch.setattr(module, "RobustnessCampaign", quick_campaign)

        stages = []
        result = reproduce(
            seed=3,
            quick=True,
            progress=lambda stage, detail: stages.append(stage),
        )
        assert {"table1", "drive", "coverage"} <= set(stages)
        assert len(result.table1.rows) == 1
        assert len(result.vehicle_rows) == 6
        assert "vehicle_triage_dismisses_all" in result.checks
        # The §IV-A checks pass even on this reduced run.
        assert result.checks["vehicle_safety_rules_clean"]
        assert result.checks["vehicle_triage_dismisses_all"]
        assert result.report()
