"""The diagnostic-code catalog — every check the analyzer can report.

One :class:`CatalogEntry` per stable code.  Checks build diagnostics
through :func:`make_diagnostic`, which looks the severity up here, so a
code's severity cannot drift between the implementation, the docs, and
the CLI.  The DESIGN.md catalog table is kept in sync by a test that
asserts every code below appears there.

Code blocks:

* ``SL1xx`` — name resolution and typing (signals, machines, states);
* ``SL2xx`` — temporal bounds;
* ``SL3xx`` — constant folding / interval analysis (static vacuity);
* ``SL4xx`` — multi-rate sampling hazards (§V-C1);
* ``SL5xx`` — warm-up hazards (§V-C2);
* ``SL6xx`` — state-machine structure;
* ``SL7xx`` — spec-set level (duplicates, shadowing).

The cross-artifact auditor (``repro audit``, :mod:`repro.analysis.audit`)
owns the ``AU`` range:

* ``AU1xx`` — rule-set verification (contradiction, subsumption,
  set-level vacuity, duplicate coverage, prover give-ups);
* ``AU2xx`` — monitoring coverage (unreferenced signals, states, modes);
* ``AU3xx`` — injection-plan static checks (degenerate values, oversized
  flip masks, unknown targets, statically dead injections);
* ``AU4xx`` — cross-artifact consistency (checker registry, sampling
  rates, unexercised rules);
* ``AU5xx`` — quantitative margin findings from the static robustness
  prover (:mod:`repro.analysis.margins`): provably unfalsifiable rules,
  statically doomed campaign cells, tight-margin hotspots;
* ``AU6xx`` — monitorability certificates from the symbolic automata
  pass (:mod:`repro.analysis.automata`): rules no finite horizon can
  decide, over-provisioned online buffers, uncertifiable rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.diagnostics import Diagnostic, Severity


@dataclass(frozen=True)
class CatalogEntry:
    """Reference data for one diagnostic code."""

    code: str
    severity: Severity
    title: str
    meaning: str
    example: str


def _entry(
    code: str, severity: Severity, title: str, meaning: str, example: str
) -> CatalogEntry:
    return CatalogEntry(code, severity, title, meaning, example)


#: Every diagnostic code the analyzer can emit, keyed by code.
CATALOG: Dict[str, CatalogEntry] = {
    entry.code: entry
    for entry in (
        _entry(
            "SL101",
            Severity.ERROR,
            "undefined signal",
            "A formula, gate, warm-up trigger, filter expression, or "
            "machine guard references a signal the CAN database does not "
            "define; the monitor would raise at evaluation time, after "
            "the campaign already ran.",
            "formula = Velocty > 10 (misspelling Velocity)",
        ),
        _entry(
            "SL102",
            Severity.ERROR,
            "unknown state machine",
            "in_state() names a machine the specification does not "
            "define.",
            "in_state(cruise, engaged) with only [machine acc] defined",
        ),
        _entry(
            "SL103",
            Severity.ERROR,
            "unknown machine state",
            "in_state() names a state its machine does not declare.",
            "in_state(acc, enganged) (misspelling engaged)",
        ),
        _entry(
            "SL110",
            Severity.WARNING,
            "numeric signal as boolean atom",
            "A float or enum signal is used as a bare boolean atom; it "
            "reads as 'nonzero', which is rarely the intended predicate "
            "for a continuous quantity.",
            "TargetRange -> BrakeRequested (meant TargetRange > 0)",
        ),
        _entry(
            "SL111",
            Severity.WARNING,
            "boolean signal in arithmetic",
            "A boolean signal is used in arithmetic, ordered with "
            "</<=/>/>=, or compared against a constant outside {0, 1}; "
            "boolean atoms or ==/!= 0/1 comparisons are what the "
            "three-valued semantics expect.",
            "BrakeRequested > 2, or Velocity + ACCEnabled",
        ),
        _entry(
            "SL201",
            Severity.ERROR,
            "malformed temporal bound",
            "A temporal operator's [lo, hi] bound is inverted, negative, "
            "or not finite; the window selects no meaningful rows.  (The "
            "parser rejects these in text; the check also covers "
            "programmatically built ASTs.)",
            "always[5, 1] x > 0",
        ),
        _entry(
            "SL202",
            Severity.WARNING,
            "zero-width temporal bound",
            "A temporal operator's bound has lo == hi, so the window is "
            "a single row — always[t, t] and eventually[t, t] coincide, "
            "and [0, 0] makes the operator a no-op.",
            "eventually[0, 0] x > 0",
        ),
        _entry(
            "SL301",
            Severity.WARNING,
            "comparison always true",
            "Interval analysis against the CAN database's physical "
            "ranges shows a comparison holds for every in-range value; "
            "it contributes nothing (only out-of-range injected values "
            "could falsify it).",
            "Velocity < 500 with Velocity in [-10, 120]",
        ),
        _entry(
            "SL302",
            Severity.WARNING,
            "comparison always false",
            "Interval analysis shows a comparison can never hold for "
            "in-range values.",
            "SelHeadway > 5 with SelHeadway in [1, 3]",
        ),
        _entry(
            "SL303",
            Severity.ERROR,
            "unsatisfiable gate",
            "A rule's gate can never be true for in-range values: the "
            "rule is statically vacuous and would silently pass every "
            "campaign — the costliest spec bug the paper's workflow can "
            "hit.",
            "gate = ACCEnabled and Velocity > 200",
        ),
        _entry(
            "SL304",
            Severity.WARNING,
            "vacuous implication",
            "The antecedent of an implication can never hold for "
            "in-range values, so the formula is vacuously satisfied "
            "everywhere.",
            "formula = Velocity > 200 -> BrakeRequested",
        ),
        _entry(
            "SL305",
            Severity.INFO,
            "gate always true",
            "A rule's gate holds for every in-range value — it gates "
            "nothing and can be dropped.",
            "gate = Velocity < 500",
        ),
        _entry(
            "SL401",
            Severity.WARNING,
            "window narrower than broadcast period",
            "A temporal bound spans less time than the broadcast period "
            "of a signal inside it: the window can close before a single "
            "fresh sample arrives, the §V-C1 multi-rate trap.",
            "eventually[0, 50ms] rising(RequestedTorque) with an 80 ms "
            "broadcast period",
        ),
        _entry(
            "SL402",
            Severity.WARNING,
            "naive difference on a slow signal",
            "delta_naive() differences consecutive held rows of a signal "
            "broadcast slower than the monitor period; between updates "
            "the difference is always zero and at updates it collapses "
            "several cycles of change into one row (§V-C1).",
            "delta_naive(RequestedTorque) at a 20 ms monitor period",
        ),
        _entry(
            "SL403",
            Severity.INFO,
            "slow-signal difference without fresh() guard",
            "delta()/prev() on a signal broadcast slower than the "
            "monitor period, with no fresh() guard in the rule: values "
            "are held between updates, so the difference repeats on "
            "every held row and a violation can be counted for several "
            "rows per actual sample.",
            "not rising(RequestedTorque) without fresh(RequestedTorque)",
        ),
        _entry(
            "SL501",
            Severity.WARNING,
            "history before any settle/warmup",
            "The rule differences or looks back at a signal (prev, "
            "delta, rate) but declares neither an initial settle window "
            "nor a warm-up trigger, so the check runs on power-on "
            "transients and discrete activation jumps (§V-C2).",
            "formula = rate(TargetRange) < 10 with no settle/warmup key",
        ),
        _entry(
            "SL601",
            Severity.WARNING,
            "unreachable state",
            "A declared machine state cannot be reached from the initial "
            "state by any chain of transitions; in_state() atoms naming "
            "it are statically false.",
            "states = idle, engaged, lost with no transition into lost",
        ),
        _entry(
            "SL602",
            Severity.WARNING,
            "duplicate transition guard",
            "Two transitions out of the same state carry identical "
            "guards; transitions are tried in declaration order, so the "
            "second can never fire.",
            "two 'idle -> x : ACCEnabled' transitions",
        ),
        _entry(
            "SL603",
            Severity.WARNING,
            "statically constant transition guard",
            "A transition guard is statically always true (shadowing "
            "every later transition out of that state) or never true "
            "(the transition is dead).",
            "transition = idle -> engaged : Velocity < 500",
        ),
        _entry(
            "SL701",
            Severity.ERROR,
            "duplicate rule id / machine name",
            "Two rules share an id, or two machines share a name, in one "
            "spec set; the monitor would reject the set at construction.",
            "two [rule rule5] sections merged from different files",
        ),
        _entry(
            "SL702",
            Severity.WARNING,
            "duplicate rule body",
            "Two rules evaluate the same effective formula (gate folded "
            "in): one shadows the other in reports and doubles its cost.",
            "a gated rule repeated with the same gate and formula",
        ),
        # ------------------------------------------------------------------
        # AU codes — the cross-artifact auditor (repro audit).
        # ------------------------------------------------------------------
        _entry(
            "AU101",
            Severity.ERROR,
            "contradictory rules",
            "Two rules sharing a gate have formulas that statically "
            "conflict under the DBC ranges: any in-range row satisfying "
            "one violates the other, so every gated row of every "
            "campaign reports at least one violation regardless of the "
            "system's behaviour.",
            "Velocity >= 0 in one rule, Velocity < 0 in another",
        ),
        _entry(
            "AU102",
            Severity.WARNING,
            "rule subsumed by another",
            "One rule's formula statically implies another's (same "
            "gate): every trace violating the weaker rule also violates "
            "the stronger one, so the weaker rule adds no detection "
            "power to the set.",
            "Velocity < 100 alongside Velocity < 50",
        ),
        _entry(
            "AU103",
            Severity.WARNING,
            "statically unfalsifiable rule",
            "A rule's effective formula (gate folded in) holds for every "
            "in-range value: only out-of-range injections could ever "
            "falsify it, so as specified intent the rule is set-level "
            "dead weight.",
            "formula = Velocity < 500 with Velocity in [-10, 120]",
        ),
        _entry(
            "AU104",
            Severity.INFO,
            "overlapping signal coverage",
            "Two or more rules monitor the identical signal set; not "
            "wrong, but worth checking they genuinely test different "
            "properties of the same signals.",
            "rule3 and rule4 both over {Velocity, ACCSetSpeed, "
            "RequestedTorque, ACCEnabled}",
        ),
        _entry(
            "AU105",
            Severity.INFO,
            "prover gave up",
            "The automata decision procedure gave up on some "
            "contradiction, subsumption or vacuity questions (past "
            "operator, predicate-alphabet budget, state budget, or a "
            "window with no sample row): they stay unknown, so an "
            "AU101-AU103 finding may be missing for the rules named.  "
            "One finding per audit lists each typed reason with its "
            "question count and the rule pairs or rules asked about.",
            "once[0, 0.2] ServiceACC paired with every other rule",
        ),
        _entry(
            "AU201",
            Severity.WARNING,
            "unmonitored signal",
            "A DBC signal is referenced by no rule and no machine guard: "
            "every Table I cell targeting it is blind unless the fault "
            "propagates into a monitored signal.",
            "AccelPedPos with no rule mentioning it",
        ),
        _entry(
            "AU202",
            Severity.WARNING,
            "unmonitored machine state",
            "A declared state-machine state is referenced by no rule's "
            "in_state() atom: the machine computes it, but no property "
            "binds while the system is in it.",
            "state 'fault' declared but never used by a rule",
        ),
        _entry(
            "AU203",
            Severity.INFO,
            "ACC operating mode not modelled",
            "An ACC operating mode (off / standby / engaged / fault) "
            "has no corresponding state in any spec state machine, so "
            "the rule set cannot express mode-specific properties for "
            "it (modal blindness, paper §V-B).",
            "no [machine] section at all, or one missing a 'fault' state",
        ),
        _entry(
            "AU301",
            Severity.INFO,
            "exceptional values degenerate",
            "A Ballista test cannot deliver its exceptional values: "
            "bool/enum targets fall back to random valid values (the "
            "paper's own concession to HIL type checking), and float "
            "targets lose the dictionary entries the profile's DBC "
            "range check rejects as out-of-range no-ops.",
            "Ballista SelHeadway (enum), or Ballista Velocity losing "
            "the 2^32 boundary values to [-10, 120]",
        ),
        _entry(
            "AU302",
            Severity.WARNING,
            "flip mask wider than field",
            "A bit-flip test requests more distinct flip bits than the "
            "target signal's field holds: the scheduled sizes are "
            "clamped or skipped, so the row label overstates the faults "
            "actually injected.",
            "mBitflip4 on the 1-bit VehicleAhead",
        ),
        _entry(
            "AU303",
            Severity.ERROR,
            "unknown injection target",
            "An injection test targets a signal the CAN database does "
            "not define; the harness would raise mid-campaign, after "
            "earlier rows already ran.",
            "Random Velocty (misspelling Velocity)",
        ),
        _entry(
            "AU304",
            Severity.WARNING,
            "statically dead injection",
            "No signal influenced by a test's injections (through the "
            "controller/plant dependency graph) is referenced by one or "
            "more rules: those (injection x rule) cells cannot differ "
            "from an uninjected run.",
            "injecting ThrotPos against a rule set that never reads it",
        ),
        _entry(
            "AU401",
            Severity.ERROR,
            "unknown checker profile",
            "The campaign plan names an injection type-checker profile "
            "the registry does not define; the campaign would fail at "
            "construction.",
            "profile = dspace with only hil/vehicle registered",
        ),
        _entry(
            "AU402",
            Severity.WARNING,
            "monitor undersamples signal",
            "The campaign's monitor period is longer than the broadcast "
            "period of a rule-referenced signal: updates arrive faster "
            "than the monitor samples, so transient violations can fall "
            "between rows (the inverse of the §V-C1 trap).",
            "a 100 ms monitor period over 20 ms broadcast messages",
        ),
        _entry(
            "AU403",
            Severity.WARNING,
            "rule unexercised by campaign plan",
            "No test in the campaign plan injects any signal that "
            "reaches the rule in the dependency graph: the whole "
            "campaign cannot falsify it, only nominal behaviour can.",
            "a rule over AccelPedPos in a plan that never injects it",
        ),
        _entry(
            "AU501",
            Severity.WARNING,
            "provable positive robustness margin",
            "The static margin prover shows the rule's robustness lower "
            "bound stays strictly positive (by more than the tightness "
            "epsilon) for every in-range trace: the rule is quantitatively "
            "unfalsifiable, a stronger form of AU103 that also reports "
            "*how far* from violation the spec sits.",
            "formula = Velocity < 500 proves margin >= 380",
        ),
        _entry(
            "AU502",
            Severity.WARNING,
            "statically doomed campaign cell",
            "Under a test's injection-widened signal ranges, a rule's "
            "static robustness upper bound is strictly negative: every "
            "monitored row of that (injection x rule) cell is provably a "
            "raw violation before filtering, so the cell measures the "
            "spec, not the system.",
            "ACCSetSpeed < -5 with ACCSetSpeed in [0, 60] and no "
            "injection reaching it",
        ),
        _entry(
            "AU503",
            Severity.INFO,
            "tight positive margin",
            "The static lower bound is positive but within the tightness "
            "epsilon: the rule is unfalsifiable only by a sliver of "
            "margin, so modelling slack (DBC ranges, held samples, "
            "float rounding) may be hiding a falsifiable rule.",
            "formula = Velocity < 120.5 with Velocity in [-10, 120] "
            "(margin 0.5)",
        ),
        _entry(
            "AU601",
            Severity.ERROR,
            "rule has no finite decision horizon",
            "The compiled automaton contains a cycle that never resolves "
            "to a verdict, so no bounded online horizon — including the "
            "one the monitor derives from future_reach — can decide the "
            "rule on every trace.  The online monitor will emit UNKNOWN "
            "forever on some inputs.",
            "formula = always (BrakeRequested -> eventually "
            "RequestedDecel < 0) with an unbounded eventually",
        ),
        _entry(
            "AU602",
            Severity.INFO,
            "monitor horizon over-provisioned",
            "The exact decision horizon from the symbolic automaton is "
            "strictly smaller than the conservative horizon the online "
            "monitor configures from future_reach, so the monitor buffers "
            "more rows (and delays verdicts longer) than the rule "
            "requires.",
            "formula = always[0, 0.1] (p -> q) decided in 1 row while "
            "the monitor buffers 6",
        ),
        _entry(
            "AU603",
            Severity.WARNING,
            "monitorability not certified",
            "The symbolic automata pass could not compile the rule "
            "(unsupported operator, predicate-alphabet budget, or state "
            "budget), so no monitorability certificate exists and the "
            "bounded-horizon adequacy of the online monitor is only "
            "assumed, not proved.",
            "formula mixing once/historically with 14 distinct "
            "comparison atoms",
        ),
    )
}


def make_diagnostic(
    code: str,
    subject: str,
    message: str,
    suggestion: str = "",
    file: Optional[str] = None,
    line: Optional[int] = None,
    column: Optional[int] = None,
) -> Diagnostic:
    """Build a diagnostic for a cataloged code (severity comes from the
    catalog — checks cannot disagree with the reference table)."""
    entry = CATALOG[code]
    return Diagnostic(
        code=code,
        severity=entry.severity,
        subject=subject,
        message=message,
        suggestion=suggestion,
        file=file,
        line=line,
        column=column,
    )
