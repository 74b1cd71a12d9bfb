"""Campaign result tables — Table I and its comparison to the paper.

The campaign produces an S/V matrix in the exact shape of the paper's
Table I ("Fault Injection Results"): one row per (injection type, target
signal) test, one column per safety rule.  :data:`PAPER_TABLE1` is the
published matrix, transcribed for shape comparison.  Absolute agreement
of every cell is *not* expected (our substrate is a synthetic simulator,
not the authors' HIL); what must hold is the shape — see
:meth:`Table1.shape_checks`.

Naming note: the paper's Table I labels one row "BrakePedPos" while its
Figure 1 names the signal "BrakePedPres"; we use the Figure 1 name
throughout and align rows positionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.rules.safety_rules import RULE_IDS

#: Single-signal injection targets, in the paper's Table I row order.
SINGLE_TARGETS: Tuple[str, ...] = (
    "Velocity",
    "TargetRange",
    "TargetRelVel",
    "ACCSetSpeed",
    "ThrotPos",
    "AccelPedPos",
    "BrakePedPres",
    "SelHeadway",
)

#: The four signals with "direct and strong effects on the control output".
CRITICAL_SIGNALS: Tuple[str, ...] = (
    "Velocity",
    "TargetRange",
    "TargetRelVel",
    "ACCSetSpeed",
)

#: The four signals whose injections left every rule satisfied.
QUIET_SIGNALS: Tuple[str, ...] = (
    "ThrotPos",
    "AccelPedPos",
    "BrakePedPres",
    "SelHeadway",
)

#: "Range+" multi-signal target set from Table I.
RANGE_PLUS: Tuple[str, ...] = ("TargetRange", "TargetRelVel", "VehicleAhead")

#: The paper's Table I, transcribed row-by-row (rules 0..6).
PAPER_TABLE1: Dict[str, str] = {
    "Random Velocity": "SVSVSSV",
    "Random TargetRange": "SSVSVSV",
    "Random TargetRelVel": "SVSSSSV",
    "Random ACCSetSpeed": "SVSVSSV",
    "Random ThrotPos": "SSSSSSS",
    "Random AccelPedPos": "SSSSSSS",
    "Random BrakePedPres": "SSSSSSS",
    "Random SelHeadway": "SSSSSSS",
    "Ballista Velocity": "SSVSSVV",
    "Ballista TargetRange": "SVSSSVV",
    "Ballista TargetRelVel": "SVSSSSV",
    "Ballista ACCSetSpeed": "SSVVVSS",
    "Ballista ThrotPos": "SSSSSSS",
    "Ballista AccelPedPos": "SSSSSSS",
    "Ballista BrakePedPres": "SSSSSSS",
    "Ballista SelHeadway": "SSSSSSS",
    "Bitflips Velocity": "SVVSVVV",
    "Bitflips TargetRange": "SVSSSVV",
    "Bitflips TargetRelVel": "SVSSSVV",
    "Bitflips ACCSetSpeed": "SVSSSVV",
    "Bitflips ThrotPos": "SSSSSSS",
    "Bitflips AccelPedPos": "SSSSSSS",
    "Bitflips BrakePedPres": "SSSSSSS",
    "Bitflips SelHeadway": "SSSSSSS",
    "mBallista Range+": "SVSSVVV",
    "mBallista All": "SVSSSSS",
    "mRandom Range+": "SVVSVVS",
    "mRandom All": "SVSSSVS",
    "mRandom Range+Set": "SVSSSVS",
    "mBitflip1 Range+": "SVSSSVV",
    "mBitflip2 Range+": "SVVVVVV",
    "mBitflip4 Range+": "SVSSSVS",
}


@dataclass
class TableRow:
    """One Table I row: a test and its per-rule letters."""

    label: str
    kind: str
    targets: Tuple[str, ...]
    letters: Dict[str, str]
    collisions: int = 0
    rejections: int = 0
    #: Per-rule robustness digests (``lower``/``upper``/``worst_row``/
    #: ``worst_time``/``near_miss``, infinities JSON-encoded), present
    #: only for campaigns run with ``robustness=True``.
    margins: Optional[Dict[str, Dict[str, object]]] = None

    def letter_string(self) -> str:
        """The row's letters as a compact ``SVSV...`` string."""
        return "".join(self.letters[rule_id] for rule_id in RULE_IDS)

    @property
    def any_violation(self) -> bool:
        """Whether any rule was violated in this test."""
        return "V" in self.letter_string()


@dataclass
class Table1:
    """The reproduced fault-injection results table."""

    rows: List[TableRow] = field(default_factory=list)

    def row(self, label: str) -> TableRow:
        """Look up one row by its label."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError("no table row labelled %r" % label)

    def labels(self) -> List[str]:
        """All row labels, in order."""
        return [row.label for row in self.rows]

    def format(self, title: str = "FAULT INJECTION RESULTS") -> str:
        """Render the table in the paper's layout."""
        header = "%-28s %s" % (
            "Injection Target Signal",
            " ".join(str(i) for i in range(len(RULE_IDS))),
        )
        lines = [title, header, "-" * len(header)]
        for row in self.rows:
            letters = " ".join(row.letters[rule_id] for rule_id in RULE_IDS)
            lines.append("%-28s %s" % (row.label, letters))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Margin heatmap (robustness campaigns)
    # ------------------------------------------------------------------

    def has_margins(self) -> bool:
        """Whether every row carries robustness margins."""
        return bool(self.rows) and all(
            row.margins is not None for row in self.rows
        )

    def margin_heatmap(
        self, title: str = "FAULT INJECTION MARGINS"
    ) -> str:
        """Render the margin variant of Table I.

        Each cell shows the rule's certain margin bound for that test —
        negative numbers are violation depth, positive numbers distance
        from violation, ``inf`` a rule with nothing metric at stake.  A
        trailing ``*`` marks a near-miss cell.  Requires a robustness
        campaign (:meth:`has_margins`).
        """
        if not self.has_margins():
            raise ValueError(
                "margin heatmap requires a campaign run with robustness=True"
            )
        width = 9
        header = "%-28s %s" % (
            "Injection Target Signal",
            " ".join("%*s" % (width, "rule%d" % i) for i in range(len(RULE_IDS))),
        )
        lines = [title, header, "-" * len(header)]
        for row in self.rows:
            cells = []
            for rule_id in RULE_IDS:
                cells.append("%*s" % (width, _margin_cell(row.margins[rule_id])))
            lines.append("%-28s %s" % (row.label, " ".join(cells)))
        return "\n".join(lines)

    def margins_json(self) -> Dict[str, object]:
        """The canonical JSON document for the margin heatmap.

        Deterministic by construction (rows in campaign order, per-rule
        digests keyed by rule id, infinities string-encoded), so two
        identical campaigns serialize byte-identically — the golden
        fixture ``results/robustness_table1.json`` and its CI
        regeneration check rely on that.
        """
        if not self.has_margins():
            raise ValueError(
                "margins_json requires a campaign run with robustness=True"
            )
        return {
            "schema": "repro.robustness.table1/v1",
            "rules": list(RULE_IDS),
            "rows": [
                {
                    "label": row.label,
                    "kind": row.kind,
                    "targets": list(row.targets),
                    "letters": row.letter_string(),
                    "margins": {
                        rule_id: row.margins[rule_id]
                        for rule_id in RULE_IDS
                    },
                }
                for row in self.rows
            ],
        }

    # ------------------------------------------------------------------
    # Comparison with the published table
    # ------------------------------------------------------------------

    def cell_agreement(
        self, paper: Mapping[str, str] = PAPER_TABLE1
    ) -> float:
        """Fraction of cells matching the published table (rows in common)."""
        matches = 0
        total = 0
        for row in self.rows:
            published = paper.get(row.label)
            if published is None:
                continue
            ours = row.letter_string()
            for a, b in zip(ours, published):
                total += 1
                matches += a == b
        return matches / total if total else 0.0

    def rules_violated_anywhere(self) -> Tuple[str, ...]:
        """Rule ids with at least one V across all rows."""
        violated = []
        for index, rule_id in enumerate(RULE_IDS):
            if any(row.letter_string()[index] == "V" for row in self.rows):
                violated.append(rule_id)
        return tuple(violated)

    def shape_checks(self) -> Dict[str, bool]:
        """The qualitative findings of §IV, as named pass/fail checks.

        * ``rule0_never_violated`` — Rule #0's column is all S.
        * ``quiet_signals_clean`` — pedal/throttle/headway rows are all S.
        * ``critical_signals_violated`` — each of the four control-
          critical signals produced at least one violation.
        * ``most_rules_detected`` — at least five of the other six rules
          were detected as violated somewhere (the paper saw six).
        """
        rule0_clean = all(
            row.letters["rule0"] == "S" for row in self.rows
        )
        quiet_clean = all(
            row.letter_string() == "S" * len(RULE_IDS)
            for row in self.rows
            if len(row.targets) == 1 and row.targets[0] in QUIET_SIGNALS
        )
        critical_hit = all(
            any(
                row.any_violation
                for row in self.rows
                if len(row.targets) == 1 and row.targets[0] == signal
            )
            for signal in CRITICAL_SIGNALS
        )
        detected = [
            rule_id
            for rule_id in self.rules_violated_anywhere()
            if rule_id != "rule0"
        ]
        return {
            "rule0_never_violated": rule0_clean,
            "quiet_signals_clean": quiet_clean,
            "critical_signals_violated": critical_hit,
            "most_rules_detected": len(detected) >= 5,
        }

    def shape_summary(self) -> str:
        """Human-readable shape comparison."""
        checks = self.shape_checks()
        lines = ["shape checks vs. paper Table I:"]
        for name, passed in checks.items():
            lines.append("  %-28s %s" % (name, "PASS" if passed else "FAIL"))
        lines.append(
            "  cell agreement with published table: %.0f%%"
            % (100.0 * self.cell_agreement())
        )
        lines.append(
            "  rules detected as violated: %s"
            % ", ".join(self.rules_violated_anywhere())
        )
        return "\n".join(lines)


def _margin_cell(digest: Dict[str, object]) -> str:
    """One heatmap cell from a per-rule robustness digest."""
    upper = digest["upper"]
    if upper == "inf":
        text = "inf"
    elif upper == "-inf":
        text = "-inf"
    else:
        text = "%+.2f" % upper
    if digest.get("near_miss"):
        text += "*"
    return text
