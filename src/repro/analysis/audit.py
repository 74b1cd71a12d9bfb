"""Cross-artifact campaign audit — the engine behind ``repro audit``.

Where :mod:`repro.analysis.analyzer` (speclint) analyzes one spec set in
isolation, the auditor checks that the *artifacts of a whole campaign*
agree with each other: the CAN database, the rule set, the injection
plan, and the checker-profile registry.  Three analysis families, one
per report section:

* **rule-set verification** (``AU1xx``) — pairwise contradiction and
  subsumption between rules, decided on the product automaton of both
  formulas under the DBC physical ranges, plus set-level vacuity and
  duplicate signal-coverage reports;
* **monitoring coverage** (``AU2xx``) — DBC signals, machine states and
  ACC operating modes referenced by no rule, computed over the
  :class:`~repro.analysis.depgraph.DependencyGraph`;
* **injection-plan checks** (``AU3xx``/``AU4xx``) — Ballista values a
  range-checking testbed degrades to no-ops, flip masks wider than the
  target field, targets absent from the DBC, statically dead
  (injection x rule) cells, unknown checker profiles, and monitor
  periods that undersample rule-referenced signals.

The symbolic automata pass (:mod:`repro.analysis.automata`) is the one
static prover behind two layers: it answers every AU101/AU102 pair
question and the AU103 vacuity questions that interval folding leaves
open (read off the same per-rule automaton as the certificate; the
questions it gives up on are listed in one AU105 finding), and every
rule gets a monitorability certificate cross-checked
against the online monitor's conservative horizon (``AU6xx``: no
finite decision horizon, over-provisioned buffering, or an
uncertifiable rule).

The static margin prover (:mod:`repro.analysis.margins`) adds the
quantitative ``AU5xx`` findings on top: provably unfalsifiable rules
(positive static lower margin) and tight-margin hotspots in the rules
section, statically doomed (injection x rule) cells — negative static
upper margin under the cell's injection-widened ranges — in the plan
section, plus the ``provably_safe_rules`` / ``margin_prunable_cells`` /
``doomed_cells`` summary counters.

Like the rest of the package the auditor is pure static analysis: it
reads parsed ASTs, the database, and a :class:`CampaignPlan` — no trace
data, no simulation.  The decision procedure is *conservative*: it only
answers "proved" or "unknown", so every AU101/AU102 finding is a real
entailment under the stated model.  As with
:mod:`repro.analysis.intervals`, the model is in-range, non-NaN data —
negation is classical (``not (x < 5)`` means ``x >= 5``), which NaN
rows would falsify.  Past operators (``once`` / ``historically``) are
outside the compiled fragment: a pair question over them answers
"unknown" and is counted as
``audit.prover.undecided.unsupported_formula``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.analyzer import database_env
from repro.analysis.automata import (
    NO,
    PROVED,
    FormulaPair,
    RuleAutomaton,
    compile_rule,
    count_give_up,
)
from repro.analysis.catalog import make_diagnostic
from repro.analysis.checks import formula_status
from repro.analysis.depgraph import DependencyGraph
from repro.analysis.diagnostics import (
    Diagnostic,
    count_by_severity,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.intervals import ALWAYS, Interval, MAYBE
from repro.analysis.predicates import dbc_environment
from repro.core.ast import Formula
from repro.core.monitor import DEFAULT_PERIOD
from repro.core.statemachine import StateMachine
from repro.errors import positive_seconds

#: The ACC operating modes of the paper's §II system description; a spec
#: set with no machine state for a mode cannot express mode-specific
#: properties (modal blindness, §V-B).
ACC_MODES: Tuple[str, ...] = ("off", "standby", "engaged", "fault")

#: Report sections, in presentation order.
SECTIONS: Tuple[str, ...] = ("rules", "coverage", "plan")

_SECTION_TITLES = {
    "rules": "rule-set verification",
    "coverage": "monitoring coverage",
    "plan": "injection plan",
}


# ----------------------------------------------------------------------
# The campaign plan artifact
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignPlan:
    """The injection-plan artifact the auditor checks.

    Attributes:
        tests: the planned :class:`~repro.testing.campaign.InjectionTest`
            rows, in table order.
        profile: name of the injection type-checker profile the campaign
            will be constructed with.
        period: the monitor sampling period the captured traces will be
            checked at.
    """

    tests: Tuple["InjectionTest", ...]  # noqa: F821 - structural, see campaign
    profile: str = "hil"
    period: float = DEFAULT_PERIOD


def paper_plan() -> CampaignPlan:
    """The paper's full Table I plan on the default HIL profile."""
    from repro.testing.campaign import table1_tests

    return CampaignPlan(tests=tuple(table1_tests()))


# ----------------------------------------------------------------------
# The report
# ----------------------------------------------------------------------


@dataclass
class AuditReport:
    """Everything ``repro audit`` found for one artifact bundle.

    Attributes:
        target: what was audited (e.g. ``"paper rules (strict)"``).
        sections: diagnostics per analysis family, each sorted
            most-severe-first (keys: ``rules``/``coverage``/``plan``).
        summary: cross-artifact size and pruning statistics.
    """

    target: str
    sections: Dict[str, List[Diagnostic]] = field(default_factory=dict)
    summary: Dict[str, int] = field(default_factory=dict)

    def diagnostics(self) -> List[Diagnostic]:
        """All findings across sections, sorted most-severe-first."""
        merged: List[Diagnostic] = []
        for section in SECTIONS:
            merged.extend(self.sections.get(section, []))
        return sort_diagnostics(merged)

    def counts(self) -> Dict[str, int]:
        """Finding counts by severity name."""
        return count_by_severity(self.diagnostics())

    @property
    def failed(self) -> bool:
        """Whether any error-level finding is present (strict gate)."""
        return has_errors(self.diagnostics())

    def codes(self) -> Tuple[str, ...]:
        """The distinct diagnostic codes present, sorted."""
        return tuple(sorted({d.code for d in self.diagnostics()}))

    def to_dict(self) -> Dict[str, object]:
        """The target object of the ``repro.audit/v1`` report format."""
        return {
            "name": self.target,
            "sections": {
                section: [
                    d.to_dict() for d in self.sections.get(section, [])
                ]
                for section in SECTIONS
            },
            "summary": dict(self.summary),
            "counts": self.counts(),
        }

    def format_text(self) -> str:
        """Human-readable report, one block per analysis family."""
        counts = self.counts()
        lines = [
            "audit %s: %d error(s), %d warning(s), %d info"
            % (
                self.target,
                counts["error"],
                counts["warning"],
                counts["info"],
            )
        ]
        for section in SECTIONS:
            lines.append("%s:" % _SECTION_TITLES[section])
            findings = self.sections.get(section, [])
            if not findings:
                lines.append("  (clean)")
            for diagnostic in findings:
                lines.append("  %s" % diagnostic.format())
        summary = self.summary
        lines.append(
            "summary: %d rule(s) (%d certified), %d signal(s) "
            "(%d monitored), %d planned test(s), %d statically dead, "
            "%d prunable cell(s)"
            % (
                summary.get("rules", 0),
                summary.get("certified_rules", 0),
                summary.get("signals", 0),
                summary.get("monitored_signals", 0),
                summary.get("tests", 0),
                summary.get("dead_tests", 0),
                summary.get("prunable_cells", 0),
            )
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Family 1 — rule-set verification (AU1xx)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ProverContext:
    """Everything the automata decision procedure needs beyond ``env``:
    the spec machines ``in_state`` atoms run against, the DBC boolean
    signals, and the sampling period that fixes the window row counts.

    ``undecided`` records, per typed give-up reason, the rule pair or
    rule of every question the prover gave up on (AU105).
    """

    machines: Tuple[StateMachine, ...] = ()
    bool_signals: FrozenSet[str] = frozenset()
    period: float = DEFAULT_PERIOD
    undecided: Dict[str, List[str]] = field(default_factory=dict)

    def gave_up(self, reasons: Sequence[str], subject: str) -> None:
        for reason in reasons:
            self.undecided.setdefault(reason, []).append(subject)


def _rule_pair_checks(
    rules: Sequence,
    env: Mapping[str, Interval],
    ctx: _ProverContext,
) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    # Contradiction and subsumption are only meaningful between rules
    # checked on the same rows, i.e. under structurally equal gates
    # (both ungated included); across different gates a conflict is
    # simply two modes with different requirements.
    by_gate: Dict[Optional[Formula], List] = {}
    for rule in rules:
        by_gate.setdefault(rule.gate, []).append(rule)
    for group in by_gate.values():
        for i, rule_a in enumerate(group):
            for rule_b in group[i + 1 :]:
                status_a = formula_status(rule_a.formula, env)
                status_b = formula_status(rule_b.formula, env)
                if status_a != MAYBE or status_b != MAYBE:
                    # Statically constant formulas are vacuity findings
                    # (AU103 / speclint), not pair conflicts.
                    continue
                # The prover answers its typed give-ups (state budget,
                # unsupported formula, alphabet, evaluation) with
                # "unknown" and counts them; any other exception is a
                # bug and propagates.
                pair = FormulaPair(
                    rule_a.formula,
                    rule_b.formula,
                    machines=ctx.machines,
                    env=env,
                    bool_signals=ctx.bool_signals,
                    period=ctx.period,
                )
                if pair.contradicts() == PROVED:
                    findings.append(
                        make_diagnostic(
                            "AU101",
                            "rule %s" % rule_a.rule_id,
                            "contradicts rule %s by decision procedure: "
                            "the product automaton of both formulas "
                            "accepts no in-range trace" % rule_b.rule_id,
                            suggestion=(
                                "every gated row will violate one of the "
                                "two; reconcile the bounds or split the "
                                "gates"
                            ),
                        )
                    )
                else:
                    findings.extend(_subsumption_pair(rule_a, rule_b, pair))
                ctx.gave_up(
                    pair.give_ups, "%s/%s" % (rule_a.rule_id, rule_b.rule_id)
                )
    return findings


def _subsumption_pair(rule_a, rule_b, pair: FormulaPair) -> List[Diagnostic]:
    if rule_a.formula == rule_b.formula:
        # Identical bodies are SL702's finding, not subsumption.
        return []
    for strong, weak, forward in (
        (rule_a, rule_b, True),
        (rule_b, rule_a, False),
    ):
        # A filtered rule may dismiss violations the weak rule would
        # report, so only an unfiltered strong rule truly covers it.
        if strong.filters:
            continue
        if pair.implies(forward) == PROVED:
            return [
                make_diagnostic(
                    "AU102",
                    "rule %s" % weak.rule_id,
                    "subsumed by rule %s by decision procedure: the "
                    "automaton for (%s and not %s) accepts no in-range "
                    "trace, so this rule adds no detection power"
                    % (strong.rule_id, strong.rule_id, weak.rule_id),
                    suggestion=(
                        "tighten this rule's bound or drop it from the set"
                    ),
                )
            ]
    return []


def _vacuity_checks(
    rules: Sequence,
    automata: Sequence[RuleAutomaton],
    env: Mapping[str, Interval],
    ctx: _ProverContext,
) -> List[Diagnostic]:
    """AU103 — by interval folding, else read off each rule's own
    automaton (``automata``, one per rule): a deterministic automaton
    that reaches no rejecting verdict is valid."""
    findings = []
    for rule, compiled in zip(rules, automata):
        if formula_status(rule.effective_formula(), env) == ALWAYS:
            findings.append(
                make_diagnostic(
                    "AU103",
                    "rule %s" % rule.rule_id,
                    "effective formula holds for every in-range value: "
                    "only out-of-range data could falsify it, so the "
                    "rule cannot detect in-specification misbehaviour",
                    suggestion="tighten the bound below the DBC range",
                )
            )
        elif compiled.give_up is not None:
            count_give_up(compiled.give_up)
            ctx.gave_up((compiled.give_up,), rule.rule_id)
        elif compiled.falsifiable == NO:
            findings.append(
                make_diagnostic(
                    "AU103",
                    "rule %s" % rule.rule_id,
                    "effective formula is valid by decision procedure: "
                    "its automaton rejects no in-range trace, so the "
                    "rule cannot detect in-specification misbehaviour",
                    suggestion="tighten the bound below the DBC range",
                )
            )
    return findings


def _undecided_findings(ctx: _ProverContext) -> List[Diagnostic]:
    """AU105 — one finding naming every question the prover gave up
    on, per typed reason (its count equals the audit's
    ``audit.prover.undecided.<reason>`` counter)."""
    if not ctx.undecided:
        return []
    total = sum(len(subjects) for subjects in ctx.undecided.values())
    return [
        make_diagnostic(
            "AU105",
            "rule set",
            "the decision procedure gave up on %d question(s), which "
            "stay unknown: %s"
            % (
                total,
                "; ".join(
                    "%s on %d (%s)"
                    % (
                        reason,
                        len(subjects),
                        ", ".join(dict.fromkeys(subjects)),
                    )
                    for reason, subjects in sorted(ctx.undecided.items())
                ),
            ),
            suggestion=(
                "a contradiction, subsumption or vacuity finding may be "
                "missing for these rules; rewrite them in the supported "
                "fragment or raise the automata budgets"
            ),
        )
    ]


def _monitorability_checks(
    rules: Sequence,
    automata: Sequence[RuleAutomaton],
    summary: Dict[str, int],
) -> List[Diagnostic]:
    """AU6xx — certificates from the symbolic automata pass, each
    cross-checked against the online monitor's conservative horizon."""
    findings: List[Diagnostic] = []
    certified = 0
    for rule, compiled in zip(rules, automata):
        if compiled.status != "ok":
            findings.append(
                make_diagnostic(
                    "AU603",
                    "rule %s" % rule.rule_id,
                    "no monitorability certificate: automata compilation "
                    "%s (%s), so the online monitor's bounded-horizon "
                    "adequacy is assumed, not proved"
                    % (
                        "exceeded its budget"
                        if compiled.status == "budget"
                        else "is unsupported",
                        compiled.reason,
                    ),
                    suggestion=(
                        "rewrite the rule in the supported fragment or "
                        "raise the automata budgets"
                    ),
                )
            )
            continue
        certified += 1
        certificate = compiled.certificate
        assert certificate is not None
        if certificate.horizon_rows is None:
            findings.append(
                make_diagnostic(
                    "AU601",
                    "rule %s" % rule.rule_id,
                    "no finite decision horizon (class %s): some traces "
                    "keep the verdict UNKNOWN forever, so the online "
                    "monitor's bounded lookahead cannot decide the rule"
                    % certificate.classification,
                    suggestion=(
                        "bound the temporal windows, or accept that the "
                        "monitor only ever reports partial verdicts"
                    ),
                )
            )
        elif (
            compiled.monitor_horizon_rows is not None
            and certificate.horizon_rows < compiled.monitor_horizon_rows
        ):
            findings.append(
                make_diagnostic(
                    "AU602",
                    "rule %s" % rule.rule_id,
                    "monitor horizon over-provisioned: the automaton "
                    "decides every trace within %d row(s) but the online "
                    "monitor buffers %d"
                    % (
                        certificate.horizon_rows,
                        compiled.monitor_horizon_rows,
                    ),
                    suggestion=(
                        "verdict latency and memory can shrink to the "
                        "certified horizon"
                    ),
                )
            )
    summary["certified_rules"] = certified
    return findings


def _coverage_overlap_checks(graph: DependencyGraph) -> List[Diagnostic]:
    by_footprint: Dict[FrozenSet[str], List[str]] = {}
    for rule in graph.rules:
        footprint = graph.rule_signals(rule.rule_id)
        if footprint:
            by_footprint.setdefault(footprint, []).append(rule.rule_id)
    findings = []
    for footprint, rule_ids in sorted(
        by_footprint.items(), key=lambda item: item[1]
    ):
        if len(rule_ids) < 2:
            continue
        findings.append(
            make_diagnostic(
                "AU104",
                "rules %s" % ", ".join(rule_ids),
                "monitor the identical signal set {%s}"
                % ", ".join(sorted(footprint)),
                suggestion=(
                    "verify they test genuinely different properties "
                    "of these signals"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# Family 2 — monitoring coverage (AU2xx)
# ----------------------------------------------------------------------


def _coverage_checks(
    graph: DependencyGraph, machines: Sequence[StateMachine]
) -> List[Diagnostic]:
    findings = []
    for name in graph.unreferenced_signals():
        findings.append(
            make_diagnostic(
                "AU201",
                "signal %s" % name,
                "referenced by no rule and no machine guard: campaign "
                "rows targeting it are statically blind",
                suggestion=(
                    "add a rule over it, or document why it needs none"
                ),
            )
        )
    for machine in machines:
        for state in graph.unreferenced_states(machine.name):
            findings.append(
                make_diagnostic(
                    "AU202",
                    "machine %s" % machine.name,
                    "state %r is computed but referenced by no rule's "
                    "in_state()" % state,
                    suggestion=(
                        "bind a property to the state or drop it from "
                        "the machine"
                    ),
                )
            )
    modelled = {
        state.lower() for machine in machines for state in machine.states
    }
    missing = tuple(mode for mode in ACC_MODES if mode not in modelled)
    if missing:
        findings.append(
            make_diagnostic(
                "AU203",
                "spec set",
                "ACC operating mode(s) %s have no corresponding machine "
                "state: mode-specific properties cannot be expressed"
                % ", ".join(missing),
                suggestion=(
                    "model the operating modes as a state machine (§V-B)"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# Family 3 — injection-plan checks (AU3xx / AU4xx)
# ----------------------------------------------------------------------


def _ballista_checks(test, database, profile: str) -> List[Diagnostic]:
    from repro.testing.ballista import BALLISTA_FLOATS

    if test.kind not in ("Ballista", "mBallista"):
        return []
    degenerate: List[str] = []
    for target in test.targets:
        if target not in database:
            continue
        signal = database.signal(target)
        if signal.kind.value in ("bool", "enum"):
            degenerate.append(
                "%s falls back to random valid values (%s)"
                % (target, signal.kind.value)
            )
        elif profile == "hil":
            rejected = sum(
                1
                for value in BALLISTA_FLOATS
                if not signal.is_valid_value(value)
            )
            if rejected:
                degenerate.append(
                    "%s loses %d of %d dictionary values to its DBC "
                    "range" % (target, rejected, len(BALLISTA_FLOATS))
                )
    if not degenerate:
        return []
    return [
        make_diagnostic(
            "AU301",
            "test %s" % test.label,
            "; ".join(degenerate),
            suggestion=(
                "the row exercises fewer exceptional values than its "
                "label suggests"
            ),
        )
    ]


def _bitflip_checks(test, database) -> List[Diagnostic]:
    from repro.testing.bitflip import FLIP_SIZES

    if test.kind == "Bitflips":
        sizes: Tuple[int, ...] = FLIP_SIZES
    elif test.kind.startswith("mBitflip"):
        sizes = (int(test.kind[len("mBitflip") :]),)
    else:
        return []
    clipped: List[str] = []
    for target in test.targets:
        if target not in database:
            continue
        signal = database.signal(target)
        oversized = signal.clipped_flip_sizes(sizes)
        if oversized:
            clipped.append(
                "%s (%d bit%s) cannot take %s-bit flips"
                % (
                    target,
                    signal.bit_length,
                    "" if signal.bit_length == 1 else "s",
                    "/".join(str(s) for s in oversized),
                )
            )
    if not clipped:
        return []
    return [
        make_diagnostic(
            "AU302",
            "test %s" % test.label,
            "; ".join(clipped),
            suggestion=(
                "the schedule skips or clamps these sizes, so the row "
                "injects fewer faults than planned"
            ),
        )
    ]


def _plan_checks(
    plan: CampaignPlan,
    database,
    graph: DependencyGraph,
    summary: Dict[str, int],
) -> List[Diagnostic]:
    from repro.hil.typecheck import CHECKER_PROFILES

    findings: List[Diagnostic] = []
    if plan.profile not in CHECKER_PROFILES:
        findings.append(
            make_diagnostic(
                "AU401",
                "plan profile %s" % plan.profile,
                "not a registered checker profile (known: %s); the "
                "campaign would fail at construction"
                % ", ".join(sorted(CHECKER_PROFILES)),
                suggestion="pick a registered profile",
            )
        )
    rules_reached: set = set()
    all_rule_ids = [rule.rule_id for rule in graph.rules]
    for test in plan.tests:
        known: List[str] = []
        for target in test.targets:
            if target in database:
                known.append(target)
                continue
            findings.append(
                make_diagnostic(
                    "AU303",
                    "test %s" % test.label,
                    "target %r is not defined in the CAN database; the "
                    "harness would raise mid-campaign" % target,
                    suggestion="fix the target name in the plan",
                )
            )
        findings.extend(_ballista_checks(test, database, plan.profile))
        findings.extend(_bitflip_checks(test, database))
        if not known:
            continue
        dead = graph.dead_rules(known)
        rules_reached.update(graph.rules_reached(known))
        summary["prunable_cells"] += len(dead)
        if dead:
            if len(dead) == len(all_rule_ids):
                summary["dead_tests"] += 1
            findings.append(
                make_diagnostic(
                    "AU304",
                    "test %s" % test.label,
                    "cannot reach rule(s) %s through the dependency "
                    "graph: those cells cannot differ from an "
                    "uninjected run" % ", ".join(dead),
                    suggestion=(
                        "drop the test from the plan or add a rule over "
                        "the injected signals"
                    ),
                )
            )
    if plan.tests:
        for rule_id in all_rule_ids:
            if rule_id not in rules_reached:
                findings.append(
                    make_diagnostic(
                        "AU403",
                        "rule %s" % rule_id,
                        "no planned test injects any signal that reaches "
                        "this rule: the campaign cannot falsify it",
                        suggestion=(
                            "add a test over the rule's input signals"
                        ),
                    )
                )
    return findings


def _margin_rule_checks(
    rule_margins: Mapping[str, Interval]
) -> List[Diagnostic]:
    """AU501/AU503 — quantitative unfalsifiability under DBC ranges."""
    from repro.analysis.margins import TIGHT_MARGIN

    findings = []
    for rule_id, interval in rule_margins.items():
        if interval.lo > TIGHT_MARGIN:
            findings.append(
                make_diagnostic(
                    "AU501",
                    "rule %s" % rule_id,
                    "static robustness margin stays at or above %g for "
                    "every in-range trace: the rule is quantitatively "
                    "unfalsifiable by in-specification data" % interval.lo,
                    suggestion=(
                        "tighten the bound by at least the reported "
                        "margin, or rely on injections to exercise it"
                    ),
                )
            )
        elif interval.lo > 0:
            findings.append(
                make_diagnostic(
                    "AU503",
                    "rule %s" % rule_id,
                    "static robustness lower bound %g is positive but "
                    "within the tightness epsilon %g: unfalsifiable "
                    "only by a sliver of margin"
                    % (interval.lo, TIGHT_MARGIN),
                    suggestion=(
                        "check whether modelling slack (ranges, held "
                        "samples, rounding) hides a falsifiable rule"
                    ),
                )
            )
    return findings


def _margin_plan_checks(
    plan: CampaignPlan,
    database,
    rules: Sequence,
    machines: Sequence[StateMachine],
    graph: DependencyGraph,
    period: float,
    summary: Dict[str, int],
) -> List[Diagnostic]:
    """AU502 — per-cell margin intervals under injection-widened ranges.

    Also feeds the ``doomed_cells`` / ``margin_prunable_cells`` summary
    counters.  Tests with unknown targets are skipped (AU303 already
    flags them, and the harness could never run the cell).
    """
    from repro.analysis.margins import MarginEnv, cell_env, rule_margin

    findings: List[Diagnostic] = []
    env_cache: Dict[Tuple[str, ...], Optional[MarginEnv]] = {}
    for test in plan.tests:
        targets = tuple(test.targets)
        if targets not in env_cache:
            env_cache[targets] = cell_env(database, targets, graph)
        env = env_cache[targets]
        if env is None:
            continue
        doomed: List[str] = []
        for rule in rules:
            interval = rule_margin(
                rule, env, period=period, machines=machines
            )
            if interval.hi < 0:
                doomed.append(rule.rule_id)
            if interval.lo > 0:
                summary["margin_prunable_cells"] += 1
        summary["doomed_cells"] += len(doomed)
        if doomed:
            findings.append(
                make_diagnostic(
                    "AU502",
                    "test %s" % test.label,
                    "static margins prove rule(s) %s violate on every "
                    "monitored row under this test's injection-widened "
                    "ranges: the raw cell result is predetermined by "
                    "the spec, not the system" % ", ".join(doomed),
                    suggestion=(
                        "fix the rule bound, or drop the cell — it "
                        "cannot measure injected behaviour"
                    ),
                )
            )
    return findings


def _sampling_checks(
    graph: DependencyGraph, database, period: float
) -> List[Diagnostic]:
    findings = []
    for name in sorted(graph.referenced_signals()):
        if name not in database:
            continue
        broadcast = database.message_for_signal(name).period
        if period > broadcast:
            findings.append(
                make_diagnostic(
                    "AU402",
                    "signal %s" % name,
                    "broadcast every %gs but the monitor samples every "
                    "%gs: transient violations can fall between rows"
                    % (broadcast, period),
                    suggestion=(
                        "monitor at the fast message period or justify "
                        "the undersampling"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def audit_rules(
    rules: Sequence,
    machines: Sequence[StateMachine] = (),
    database=None,
    plan: Optional[CampaignPlan] = None,
    period: Optional[float] = None,
    target: str = "rule set",
) -> AuditReport:
    """Audit in-memory rules, machines, database and plan together.

    ``database=None`` loads the bundled FSRACC database — the audit is
    cross-artifact by definition, so there is always a signal universe.
    ``period`` defaults to the plan's period (or the monitor default).
    """
    if period is None:
        period = plan.period if plan is not None else DEFAULT_PERIOD
    positive_seconds("period", period)
    if database is None:
        from repro.can.fsracc import fsracc_database

        database = fsracc_database()
    rules = list(rules)
    machines = list(machines)
    env = database_env(database)
    _, bool_signals = dbc_environment(database)
    ctx = _ProverContext(
        machines=tuple(machines),
        bool_signals=bool_signals,
        period=period,
    )
    graph = DependencyGraph(database, rules, machines)

    summary: Dict[str, int] = {
        "rules": len(rules),
        "machines": len(machines),
        "signals": len(database.signal_names()),
        "monitored_signals": sum(
            1 for name in database.signal_names()
            if name in graph.referenced_signals()
        ),
        "tests": len(plan.tests) if plan is not None else 0,
        "dead_tests": 0,
        "prunable_cells": 0,
        "provably_safe_rules": 0,
        "margin_prunable_cells": 0,
        "doomed_cells": 0,
        "certified_rules": 0,
    }

    from repro.analysis.margins import margin_env, rule_margin

    menv = margin_env(database)
    rule_margins = {
        rule.rule_id: rule_margin(
            rule, menv, period=period, machines=machines
        )
        for rule in rules
    }
    summary["provably_safe_rules"] = sum(
        1 for interval in rule_margins.values() if interval.lo > 0
    )

    # One automaton per rule answers both its vacuity question and its
    # monitorability certificate.
    automata = [
        compile_rule(
            rule,
            machines=ctx.machines,
            env=env,
            bool_signals=ctx.bool_signals,
            period=period,
        )
        for rule in rules
    ]
    rule_findings = _rule_pair_checks(rules, env, ctx)
    rule_findings.extend(_vacuity_checks(rules, automata, env, ctx))
    rule_findings.extend(_undecided_findings(ctx))
    rule_findings.extend(_monitorability_checks(rules, automata, summary))
    rule_findings.extend(_coverage_overlap_checks(graph))
    rule_findings.extend(_margin_rule_checks(rule_margins))

    coverage_findings = _coverage_checks(graph, machines)

    plan_findings = _sampling_checks(graph, database, period)
    if plan is not None:
        plan_findings.extend(_plan_checks(plan, database, graph, summary))
        plan_findings.extend(
            _margin_plan_checks(
                plan, database, rules, machines, graph, period, summary
            )
        )

    return AuditReport(
        target=target,
        sections={
            "rules": sort_diagnostics(rule_findings),
            "coverage": sort_diagnostics(coverage_findings),
            "plan": sort_diagnostics(plan_findings),
        },
        summary=summary,
    )


def audit_specs(
    specs,
    database=None,
    plan: Optional[CampaignPlan] = None,
    period: Optional[float] = None,
    target: str = "spec set",
) -> AuditReport:
    """Audit a loaded :class:`~repro.core.specfile.SpecSet`."""
    return audit_rules(
        specs.rules,
        machines=specs.machines,
        database=database,
        plan=plan,
        period=period,
        target=target,
    )
