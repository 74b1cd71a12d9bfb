"""Cross-artifact audit — checks, prover findings, schema, and golden
output."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import rule_trace

from repro.analysis import (
    AUDIT_REPORT,
    audit_rules,
    build_audit_report,
    paper_plan,
)
from repro.analysis.audit import ACC_MODES, CampaignPlan
from repro.analysis.catalog import CATALOG
from repro.core.ast import Eventually
from repro.core.evaluator import EvalContext, evaluate_formula
from repro.core.monitor import DEFAULT_PERIOD, Rule
from repro.core.parser import parse_formula
from repro.core.statemachine import StateMachine
from repro.core.types import TRUE_CODE
from repro.rules.safety_rules import paper_rules
from repro.schema import require_valid, validate
from repro.testing.campaign import InjectionTest

GOLDEN_DIR = Path(__file__).parent


def fixture_rules():
    """A deliberately inconsistent rule set (see test_all_codes_fire)."""
    return [
        Rule.from_text("rA", "a", "Velocity >= 0"),
        Rule.from_text("rB", "b", "Velocity < 0"),
        Rule.from_text("rC", "c", "Velocity < 50"),
        Rule.from_text("rD", "d", "Velocity < 100"),
        Rule.from_text("rE", "e", "Velocity < 500"),
        Rule.from_text("rF", "f", "ACCSetSpeed < 30"),
        Rule.from_text("rG", "g", "in_state(acc, engaged) -> Velocity >= 0"),
        # rH is statically doomed (AU502): ACCSetSpeed is exogenous, so
        # no injection widens it past [0, 60] and the margin upper bound
        # stays at -5.  rI is a tight proof (AU503): margin >= 0.5 only.
        Rule.from_text("rH", "h", "ACCSetSpeed < -5"),
        Rule.from_text("rI", "i", "Velocity < 120.5"),
        # The AU6xx trio.  rJ's unbounded eventually has no finite
        # decision horizon (AU601); rK uses a past operator the automata
        # pass does not model (AU603); rL's first disjunct is NEVER
        # under the DBC ranges, so the automaton decides in one row
        # while future_reach makes the monitor buffer five (AU602).
        Rule("rJ", "j", Eventually(0.0, math.inf, parse_formula("TargetRange > 100"))),
        Rule.from_text("rK", "k", "once[0, 0.2] ServiceACC"),
        Rule.from_text(
            "rL",
            "l",
            "(always[0, 0.4] TargetRelVel > 500) or (TargetRelVel > 0)",
        ),
    ]


def fixture_machine():
    return StateMachine(
        "acc",
        states=("off", "standby", "engaged", "degraded"),
        initial="off",
        transitions=[
            ("off", "standby", "AccActive"),
            ("standby", "engaged", "ACCEnabled"),
        ],
    )


def fixture_plan():
    return CampaignPlan(
        tests=(
            InjectionTest("Random Bogus", "Random", ("Bogus",)),
            InjectionTest("Ballista SelHeadway", "Ballista", ("SelHeadway",)),
            InjectionTest(
                "Bitflips VehicleAhead", "Bitflips", ("VehicleAhead",)
            ),
            InjectionTest("Random ThrotPos", "Random", ("ThrotPos",)),
        ),
        profile="dspace",
        period=0.1,
    )


def fixture_report():
    return audit_rules(
        fixture_rules(),
        machines=[fixture_machine()],
        plan=fixture_plan(),
        target="inconsistent fixture",
    )


class TestPaperAudit:
    @pytest.fixture(scope="class")
    def report(self):
        return audit_rules(
            paper_rules(), plan=paper_plan(), target="paper rules (strict)"
        )

    def test_strict_clean(self, report):
        assert not report.failed
        assert report.counts()["error"] == 0

    def test_no_pruning_on_paper_plan(self, report):
        assert report.summary["prunable_cells"] == 0
        assert report.summary["dead_tests"] == 0
        assert report.summary["tests"] == 32

    def test_known_advisories(self, report):
        # The paper artifacts themselves are imperfect in documented
        # ways: overlapping rule3/rule4 coverage, unmonitored pedals,
        # no modal machine, degenerate Ballista rows, clipped flips.
        assert report.codes() == (
            "AU104",
            "AU201",
            "AU203",
            "AU301",
            "AU302",
        )

    def test_golden_text(self, report):
        golden = (GOLDEN_DIR / "golden_audit_paper.txt").read_text()
        assert report.format_text() + "\n" == golden


class TestFixtureAudit:
    @pytest.fixture(scope="class")
    def report(self):
        return fixture_report()

    def test_all_codes_fire(self, report):
        au_codes = tuple(
            sorted(code for code in CATALOG if code.startswith("AU"))
        )
        assert report.codes() == au_codes

    def test_strict_fails(self, report):
        assert report.failed

    def test_sections_route_by_family(self, report):
        # Margin findings (AU5xx) split by scope: rule-level AU501/AU503
        # join the rules section, per-cell AU502 joins the plan section.
        # Monitorability certificates (AU6xx) are rule-level by nature.
        rules_codes = {d.code for d in report.sections["rules"]}
        assert rules_codes
        assert all(
            code[:3] in ("AU1", "AU5", "AU6") for code in rules_codes
        )
        coverage_codes = {d.code for d in report.sections["coverage"]}
        assert coverage_codes
        assert all(code.startswith("AU2") for code in coverage_codes)
        plan_codes = {d.code for d in report.sections["plan"]}
        assert all(code[:3] in ("AU3", "AU4", "AU5") for code in plan_codes)

    def test_margin_findings(self, report):
        by_code = {}
        for diagnostic in report.diagnostics():
            by_code.setdefault(diagnostic.code, []).append(diagnostic)
        # rE (Velocity < 500) is comfortably unfalsifiable; rI is the
        # tight one (margin 0.5 <= epsilon), never both codes at once.
        assert [d.subject for d in by_code["AU501"]] == ["rule rE"]
        assert [d.subject for d in by_code["AU503"]] == ["rule rI"]
        # rH is doomed in every cell of every known-target test (the
        # unknown-target "Random Bogus" row is skipped).
        doomed = by_code["AU502"]
        assert len(doomed) == 3
        assert all("rH" in d.message for d in doomed)
        assert report.summary["doomed_cells"] == 3
        assert report.summary["provably_safe_rules"] == 2

    def test_golden_text(self, report):
        golden = (GOLDEN_DIR / "golden_audit_fixture.txt").read_text()
        assert report.format_text() + "\n" == golden

    def test_contradiction_names_both_rules(self, report):
        au101 = [d for d in report.diagnostics() if d.code == "AU101"]
        assert len(au101) == 1
        assert "rB" in au101[0].message
        assert au101[0].subject == "rule rA"

    def test_subsumption_direction(self, report):
        # The *weaker* rule is the finding's subject.
        subjects = {
            d.subject for d in report.diagnostics() if d.code == "AU102"
        }
        assert "rule rD" in subjects
        assert "rule rC" in subjects  # rB (< 0) is stronger than rC (< 50)


class TestSummary:
    def test_dead_test_counted(self, database):
        # Single exogenous-signal rule + a plan that never touches it:
        # every cell of the test is dead.
        plan = CampaignPlan(
            tests=(InjectionTest("Random Velocity", "Random", ("Velocity",)),)
        )
        report = audit_rules(
            [Rule.from_text("r", "r", "ACCSetSpeed < 30")],
            database=database,
            plan=plan,
        )
        assert report.summary["dead_tests"] == 1
        assert report.summary["prunable_cells"] == 1
        assert "AU304" in report.codes()
        assert "AU403" in report.codes()

    def test_acc_modes_constant(self):
        assert ACC_MODES == ("off", "standby", "engaged", "fault")


class TestAuditSchema:
    def test_round_trip(self):
        report = fixture_report()
        dump = build_audit_report([report])
        # Through JSON and back, then validated.
        parsed = json.loads(json.dumps(dump))
        assert require_valid(AUDIT_REPORT, parsed) is parsed
        assert parsed["schema"] == "repro.audit/v1"
        assert parsed["counts"] == report.counts()

    def test_validator_rejects_wrong_schema(self):
        dump = build_audit_report([fixture_report()])
        dump["schema"] = "repro.lint/v1"
        assert any("schema" in p for p in validate(AUDIT_REPORT, dump))

    def test_validator_rejects_sl_codes_in_sections(self):
        dump = build_audit_report([fixture_report()])
        dump["targets"][0]["sections"]["rules"][0]["code"] = "SL101"
        assert validate(AUDIT_REPORT, dump)

    def test_validator_rejects_bad_counts(self):
        dump = build_audit_report([fixture_report()])
        dump["targets"][0]["counts"]["error"] += 1
        assert validate(AUDIT_REPORT, dump)

    def test_validator_rejects_unknown_section(self):
        dump = build_audit_report([fixture_report()])
        dump["targets"][0]["sections"]["extras"] = []
        assert any("unknown key" in p for p in validate(AUDIT_REPORT, dump))

    def test_validator_rejects_negative_summary(self):
        dump = build_audit_report([fixture_report()])
        dump["targets"][0]["summary"]["rules"] = -1
        assert any("summary" in p for p in validate(AUDIT_REPORT, dump))


class TestDecisionProcedureFindings:
    """AU101/102 pair questions and the AU103 questions interval
    folding leaves open are answered by the automata decision
    procedure — the finding text names it so triage knows the proof's
    provenance."""

    def _env_ctx(self, database):
        from repro.analysis.analyzer import database_env
        from repro.analysis.audit import _ProverContext
        from repro.analysis.predicates import dbc_environment

        _, bools = dbc_environment(database)
        return database_env(database), _ProverContext(bool_signals=bools)

    def test_au101_contradiction_by_decision_procedure(self, database):
        from repro.analysis.audit import _rule_pair_checks

        env, ctx = self._env_ctx(database)
        rules = [
            Rule.from_text("rA", "a", "abs(RequestedDecel) <= 0.5"),
            Rule.from_text("rB", "b", "RequestedDecel > 0.75"),
        ]
        findings = _rule_pair_checks(rules, env, ctx)
        au101 = [f for f in findings if f.code == "AU101"]
        assert len(au101) == 1
        assert "by decision procedure" in au101[0].message

    def test_au102_subsumption_by_decision_procedure(self, database):
        from repro.analysis.audit import _rule_pair_checks

        env, ctx = self._env_ctx(database)
        rules = [
            Rule.from_text(
                "strong",
                "s",
                "(always[0, 0.1] Velocity > 5) "
                "and (always[0.12, 0.2] Velocity > 5)",
            ),
            Rule.from_text("weak", "w", "always[0, 0.2] Velocity > 5"),
        ]
        findings = _rule_pair_checks(rules, env, ctx)
        au102 = [f for f in findings if f.code == "AU102"]
        assert len(au102) == 1
        assert au102[0].subject == "rule weak"
        assert "by decision procedure" in au102[0].message

    def test_au103_validity_by_decision_procedure(self, database):
        from repro.analysis.audit import _vacuity_checks
        from repro.analysis.automata import compile_rule
        from repro.analysis.checks import formula_status

        env, ctx = self._env_ctx(database)
        rule = Rule.from_text("taut", "t", "Velocity > 5 or Velocity <= 5")
        assert formula_status(rule.effective_formula(), env) != "always"
        compiled = compile_rule(rule, env=env, bool_signals=ctx.bool_signals)
        findings = _vacuity_checks([rule], [compiled], env, ctx)
        au103 = [f for f in findings if f.code == "AU103"]
        assert len(au103) == 1
        assert "by decision procedure" in au103[0].message

    def test_consistent_pair_is_not_a_contradiction(self, database):
        # rA bounds Velocity on the current row only; rB constrains
        # later rows.  A prover that applies rA's range to rB's window
        # reports this satisfiable pair as an error-level AU101.
        rules = [
            Rule.from_text("rA", "a", "Velocity <= 0 and BrakeRequested"),
            Rule.from_text("rB", "b", "always[0.04, 0.08] (Velocity > 30)"),
        ]
        report = audit_rules(rules, database=database)
        assert "AU101" not in report.codes()
        assert not report.failed
        # The witness: both rules hold at rows 0 and 1 of this trace.
        trace = rule_trace(
            8,
            {
                "Velocity": [0, 0, 40, 40, 40, 40, 40, 40],
                "BrakeRequested": [1] * 8,
            },
            period=DEFAULT_PERIOD,
        )
        eval_ctx = EvalContext(trace.to_view(DEFAULT_PERIOD))
        for rule in rules:
            codes = evaluate_formula(rule.formula, eval_ctx)
            assert np.all(codes[:2] == TRUE_CODE), rule.rule_id

    def test_past_operator_pair_is_undecided(self, database):
        # Past operators are outside the automata fragment: the pair
        # stays "unknown" (no AU102) and the give-up is counted.
        from repro.analysis.audit import _rule_pair_checks
        from repro.obs import MetricsRegistry, use_registry

        env, ctx = self._env_ctx(database)
        rules = [
            Rule.from_text(
                "strong", "s", "historically[0, 0.2] (Velocity < 50)"
            ),
            Rule.from_text(
                "weak", "w", "historically[0, 0.1] (Velocity < 100)"
            ),
        ]
        registry = MetricsRegistry()
        with use_registry(registry):
            findings = _rule_pair_checks(rules, env, ctx)
        assert not [f for f in findings if f.code == "AU102"]
        counters = registry.snapshot()["counters"]
        assert counters["audit.prover.undecided.unsupported_formula"] > 0


class TestProverGiveUps:
    """A typed prover give-up reads as "unknown", is counted, and is
    surfaced as one AU105 finding; any other exception out of a prover
    is a bug and fails the audit."""

    def test_state_budget_give_up_is_counted(self, monkeypatch):
        import functools

        from repro.analysis import audit, automata
        from repro.obs import MetricsRegistry, use_registry

        def paper_audit():
            return audit_rules(
                paper_rules(), plan=paper_plan(), target="paper rules"
            )

        baseline = paper_audit()
        # Starve the pair questions and the rule automata, which answer
        # the vacuity questions as well as the certificates.
        for name in ("FormulaPair", "compile_rule"):
            starved = functools.partial(getattr(automata, name), max_states=1)
            monkeypatch.setattr(audit, name, starved)
        registry = MetricsRegistry()
        with use_registry(registry):
            report = paper_audit()
        counters = registry.snapshot()["counters"]
        given_up = counters["audit.prover.undecided.state_budget"]
        assert given_up > len(paper_rules())
        # Starving proves nothing new: every baseline finding stays, and
        # the only additions are the uncertified rules and the one
        # give-up finding, which names every rule's vacuity question.
        before = set(baseline.diagnostics())
        after = set(report.diagnostics())
        assert before <= after
        assert {d.code for d in after - before} == {"AU105", "AU603"}
        [undecided] = [d for d in after if d.code == "AU105"]
        assert "gave up on %d question(s)" % given_up in undecided.message
        head = "state_budget on %d (" % given_up
        listed = undecided.message.split(head, 1)[1].rstrip(")").split(", ")
        assert {rule.rule_id for rule in paper_rules()} <= set(listed)
        assert report.summary["certified_rules"] == 0

    def test_give_up_finding_matches_counters(self):
        from repro.obs import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            report = fixture_report()
        counters = registry.snapshot()["counters"]
        assert counters == {"audit.prover.undecided.unsupported_formula": 25}
        [undecided] = [d for d in report.diagnostics() if d.code == "AU105"]
        assert undecided.subject == "rule set"
        assert "unsupported_formula on 25 (" in undecided.message
        # Eight pairs with the past-operator rule rK, then its own
        # vacuity question.
        assert undecided.message.endswith("rK/rL, rK)")

    def test_clean_audit_has_no_give_up_finding(self):
        report = audit_rules(paper_rules(), plan=paper_plan())
        assert "AU105" not in report.codes()

    def test_unexpected_prover_error_fails_loudly(self, monkeypatch, capsys):
        from repro.analysis import audit
        from repro.cli import main

        def broken(*args, **kwargs):
            raise RuntimeError("prover bug")

        monkeypatch.setattr(audit, "FormulaPair", broken)
        with pytest.raises(RuntimeError, match="prover bug"):
            main(["audit"])
