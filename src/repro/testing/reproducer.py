"""One-call reproduction driver.

Regenerates the paper's core artifacts (Table I, the §IV-A vehicle-log
analysis, and the monitoring-coverage view) without going through
pytest — the programmatic path for CI pipelines and for the
``repro-oracle reproduce`` command.  The report is a pure function of
the seed and the ``quick`` flag (no host timings), so
``results/reproduction_report.txt`` is regenerated byte for byte.  The
full experiment suite, including the ablations, lives in
``benchmarks/``; ``tools/regenerate_results.sh`` rebuilds all of
``results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.coverage import coverage_report
from repro.core.monitor import Monitor
from repro.logs.vehicle_logs import generate_drive_logs
from repro.rules.safety_rules import RULE_IDS, paper_rules
from repro.testing.campaign import RobustnessCampaign, single_signal_tests
from repro.testing.results import Table1

#: Progress callback: (stage name, detail line).
Progress = Callable[[str, str], None]


@dataclass
class ReproductionResult:
    """Everything the driver regenerated, plus pass/fail judgement."""

    table1: Table1
    vehicle_rows: List[Dict[str, str]]
    coverage_text: str
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every qualitative reproduction check passed."""
        return all(self.checks.values())

    def report(self) -> str:
        """The combined human-readable reproduction report."""
        lines = [
            "REPRODUCTION REPORT",
            "",
            self.table1.format(),
            "",
            self.table1.shape_summary(),
            "",
            "SECTION IV-A: REAL VEHICLE LOGS",
            "%-26s %-9s %-9s" % ("scenario", "strict", "relaxed"),
        ]
        for row in self.vehicle_rows:
            lines.append(
                "%-26s %-9s %-9s"
                % (row["scenario"], row["strict"], row["relaxed"])
            )
        lines += ["", "MONITORING COVERAGE (drive, strict rules)", self.coverage_text]
        lines += ["", "reproduction checks:"]
        for name, passed in sorted(self.checks.items()):
            lines.append("  %-36s %s" % (name, "PASS" if passed else "FAIL"))
        return "\n".join(lines)


def reproduce(
    seed: int = 2014,
    quick: bool = False,
    progress: Optional[Progress] = None,
    jobs: int = 1,
) -> ReproductionResult:
    """Run the core reproduction.

    ``quick`` restricts Table I to the 24 single-signal rows (about a
    third of the runtime); the shape checks are still meaningful since
    every Table I finding the paper highlights lives in those rows.
    ``jobs`` > 1 fans the campaign out to worker processes (0 = every
    core); the letters are bit-identical to a sequential run.
    """

    def report_progress(stage: str, detail: str) -> None:
        if progress is not None:
            progress(stage, detail)

    report_progress("table1", "running the fault-injection campaign")
    campaign = RobustnessCampaign(seed=seed)
    tests = single_signal_tests() if quick else None
    table = campaign.run_table1(
        tests=tests,
        progress=lambda test, outcome: report_progress("table1", test.label),
        jobs=jobs,
    )

    report_progress("drive", "generating the representative vehicle drive")
    strict = Monitor(paper_rules())
    relaxed = Monitor(paper_rules(relaxed=True))
    drive = generate_drive_logs(seed=seed)
    vehicle_rows = []
    clean_ok = True
    triage_ok = True
    strict_fired = False
    for trace in drive:
        strict_report = strict.check(trace)
        relaxed_report = relaxed.check(trace)
        vehicle_rows.append(
            {
                "scenario": trace.name,
                "strict": "".join(strict_report.letter(r) for r in RULE_IDS),
                "relaxed": "".join(relaxed_report.letter(r) for r in RULE_IDS),
            }
        )
        for rule_id in ("rule0", "rule1", "rule5", "rule6"):
            clean_ok &= not strict_report.results[rule_id].violated
        strict_fired |= bool(strict_report.violated_rules())
        triage_ok &= relaxed_report.all_satisfied

    report_progress("coverage", "measuring rule coverage over the drive")
    longest = max(drive, key=lambda t: t.duration)
    coverage = coverage_report(strict, longest)

    checks = dict(table.shape_checks())
    checks["vehicle_safety_rules_clean"] = clean_ok
    checks["vehicle_strict_rules_fired"] = strict_fired
    checks["vehicle_triage_dismisses_all"] = triage_ok

    return ReproductionResult(
        table1=table,
        vehicle_rows=vehicle_rows,
        coverage_text=coverage.summary(),
        checks=checks,
    )
