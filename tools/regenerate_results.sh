#!/usr/bin/env bash
# Regenerate every file under results/ from the code and seed 2014.
#
# Usage (from anywhere in the checkout):
#
#     tools/regenerate_results.sh
#
# Every artifact is a pure function of the code and the seed -- verdicts,
# counts, letter tables and JSON goldens, never host timings -- so on an
# unchanged tree `git status --porcelain results/` is empty afterwards.
# Each file has exactly one writer:
#
# * `pytest benchmarks/` writes the 17 experiment artifacts (Table I,
#   the ablations and the extensions) and checks their shape;
# * the CLI writes the lint, margins and automata goldens, the margins
#   fixture `robustness_table1.json` and `reproduction_report.txt`.
#
# The two full Table I campaigns the CLI runs on two workers
# (`table1 --out` and `table1 --margins-out`) are also compared byte for
# byte with the letter table and heatmap the tests wrote.  Needs numpy and
# pytest; takes about three minutes on two cores.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

repro() {
    python -m repro.cli "$@"
}

# The experiment artifacts.
python -m pytest -q benchmarks/

# Static-analysis goldens: strict and relaxed paper rules.
repro lint --format json > results/lint_paper.json
repro lint --relaxed --format json > results/lint_paper_relaxed.json
repro margins --format json > results/margins_paper.json
repro margins --relaxed --format json > results/margins_paper_relaxed.json
repro automata --format json --out results/automata_paper.json > /dev/null

# The one-call reproduction (single-signal rows, as committed).
repro reproduce --quick --out results/reproduction_report.txt > /dev/null

# The full Table I on two workers must reproduce the serial letter table.
repro table1 --jobs 2 --out "$scratch/table1.txt" > /dev/null
cmp "$scratch/table1.txt" results/table1.txt

# The full margins campaign writes the margins fixture; its heatmap and
# its letters must match the serial run's.
repro table1 --jobs 2 --near-miss-threshold 5 \
    --margins-out results/robustness_table1.json \
    --out "$scratch/table1_margins.txt" > /dev/null
sed -n '/^FAULT INJECTION MARGINS$/,$p' "$scratch/table1_margins.txt" \
    > "$scratch/heatmap.txt"
cmp "$scratch/heatmap.txt" results/robustness_table1.txt
head -n "$(wc -l < results/table1.txt)" "$scratch/table1_margins.txt" \
    > "$scratch/letters.txt"
cmp "$scratch/letters.txt" results/table1.txt

echo "results/ regenerated; check with: git status --porcelain results/"
