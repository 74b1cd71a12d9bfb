"""E18 — quantitative robustness margins beside the boolean Table I.

Regenerates the margin-annotated campaign artifacts and checks the
differential guarantee at full campaign scale:

* the margin heatmap variant of Table I (``results/robustness_table1.txt``)
  and its canonical JSON, byte-compared against the committed golden
  fixture ``results/robustness_table1.json`` — serial and ``jobs=4``
  regenerations must both reproduce it exactly;
* the boolean letters are bit-identical with robustness on (the golden
  fixture embeds them, so the byte comparison pins this too);
* campaign-level sign consistency: a certainly-positive margin implies
  S, a V letter implies a non-positive margin bound;
* near-miss margins over the §IV-A vehicle drive
  (``results/near_misses.txt``) — the E18 finding is that the relaxed
  rules report every drive log clean while the margins expose cells
  where the intent filters dismissed a real crossing;
* the margin pass costs a constant factor over boolean evaluation,
  independent of window width (``results/robustness_bench.txt``).
"""

import json
import math
import time
from pathlib import Path

from repro.core.evaluator import EvalContext, evaluate_formula, evaluate_robustness
from repro.core.monitor import Monitor
from repro.core.parser import parse_formula
from repro.core.robustness import float_from_json
from repro.rules.safety_rules import RULE_IDS, paper_rules
from repro.testing.campaign import RobustnessCampaign

GOLDEN = (
    Path(__file__).resolve().parent.parent / "results" / "robustness_table1.json"
)

#: Must match the session ``table1`` fixture (benchmarks/conftest.py).
SEED = 2014
NEAR_MISS_THRESHOLD = 5.0

#: One future and one past window plus propositional structure: the
#: operator mix of the paper rules, at a parameterized width.
SWEEP_FORMULA = (
    "always[0, %(ms)dms] (x < 2.0 and (y > -3.0 or once[0, %(ms)dms] y > 0.5))"
)
SWEEP_PERIOD = 0.02


def canonical_json(table) -> str:
    """The byte-stable serialization the golden fixture is stored in
    (same call the CLI's ``table1 --margins-out`` makes)."""
    return json.dumps(table.margins_json(), indent=2, sort_keys=True) + "\n"


def test_margin_heatmap_matches_golden(table1, publish):
    publish("robustness_table1.txt", table1.margin_heatmap())
    assert GOLDEN.exists(), "run this campaign once and commit the fixture"
    assert canonical_json(table1) == GOLDEN.read_text(encoding="utf-8"), (
        "margin table drifted from the committed fixture; re-validate "
        "the campaign before re-pinning results/robustness_table1.json"
    )


def test_parallel_regeneration_is_byte_identical():
    table = RobustnessCampaign(
        seed=SEED, robustness=True, near_miss_threshold=NEAR_MISS_THRESHOLD
    ).run_table1(jobs=4)
    assert canonical_json(table) == GOLDEN.read_text(encoding="utf-8")


def test_campaign_differential_guarantee(table1):
    """Sign consistency between every letter and its margin digest."""
    checked = 0
    for row in table1.rows:
        letters = row.letter_string()
        for index, rule_id in enumerate(RULE_IDS):
            digest = row.margins[rule_id]
            lower = float_from_json(digest["lower"])
            upper = float_from_json(digest["upper"])
            assert lower <= upper, (row.label, rule_id)
            if lower > 0:
                assert letters[index] == "S", (row.label, rule_id)
            if letters[index] == "V":
                assert upper <= 0, (row.label, rule_id)
            checked += 1
    assert checked > 100  # the guarantee was exercised at scale


def test_drive_log_near_misses(drive_logs, publish):
    """§IV-A margins: letters say clean, margins say how close."""
    monitor = Monitor(paper_rules(relaxed=True))
    lines = [
        "SECTION IV-A NEAR-MISS MARGINS (relaxed rules, threshold %g)"
        % NEAR_MISS_THRESHOLD,
        "",
    ]
    crossed_cells = 0
    zero_margin_cells = 0
    for trace in drive_logs:
        report = monitor.check(
            trace,
            robustness=True,
            near_miss_threshold=NEAR_MISS_THRESHOLD,
        )
        assert report.all_satisfied, trace.name
        lines.append("%s" % trace.name)
        for near in report.near_misses():
            lines.append("  %s" % near)
            crossed_cells += near.crossed
            zero_margin_cells += near.margin == 0
        if not report.near_misses():
            lines.append("  -")
    publish("near_misses.txt", "\n".join(lines))

    # The E18 finding: triage dismissed real crossings somewhere on the
    # drive — invisible in the letters, explicit in the margins...
    assert crossed_cells > 0
    # ...and rule #5 rides its bound at exactly zero margin.
    assert zero_margin_cells > 0


def test_robustness_overhead_is_flat(benign_trace, publish):
    """Margins cost a constant factor over boolean verdicts at every
    window width: the robustness path runs on the same O(n) kernels."""
    rows = 20000
    trace = benign_trace(rows)
    lines = [
        "ROBUSTNESS EVALUATOR SWEEP (%d rows at %.0f ms)"
        % (rows, SWEEP_PERIOD * 1000),
        "",
        "%-12s %14s %14s %10s" % ("width", "bool s", "robust s", "overhead"),
    ]
    overheads = []
    for width in (25, 250, 1000):
        formula = parse_formula(
            SWEEP_FORMULA % {"ms": round(width * SWEEP_PERIOD * 1000)}
        )
        best = {evaluate_formula: math.inf, evaluate_robustness: math.inf}
        for _ in range(2):
            for evaluate in best:
                # A fresh view and context per run: no run reuses
                # another's memo entries or lazily built columns.
                ctx = EvalContext(trace.to_view(SWEEP_PERIOD, signals=("x", "y")))
                started = time.perf_counter()
                evaluate(formula, ctx)
                best[evaluate] = min(best[evaluate], time.perf_counter() - started)
        boolean, robust = best[evaluate_formula], best[evaluate_robustness]
        overheads.append(robust / boolean)
        lines.append(
            "%-12s %14.4f %14.4f %10.2f"
            % ("%d rows" % width, boolean, robust, overheads[-1])
        )
    flatness = overheads[-1] / overheads[0]
    lines.extend(["", "overhead flatness (widest / narrowest) %.3f" % flatness])
    publish("robustness_bench.txt", "\n".join(lines))
    # Same-machine scaling: overhead must not grow with window width.
    assert flatness < 5.0
