"""Window-kernel differential over the full Table I campaign.

The non-negotiable invariant of the O(n) kernel rewrite: the paper's
letter matrix is **byte-identical** whichever kernel computes the
temporal windows.  The fuzzed differentials in ``tests/core`` cover the
operator space; this bench closes the loop end to end — the entire
32-row fault-injection campaign, HIL physics and all, run once per
kernel and compared as formatted text.

Shortened holds (2 s) keep the two runs short, as in the E12 hold-time
sweep; the injected switch transients already manifest at that hold
time.  Runs are sequential (``jobs=1``) so the kernel patch —
process-local — governs both legs fully.
"""

from __future__ import annotations

from repro.testing.campaign import RobustnessCampaign, table1_tests
from tests.helpers import window_kernel

#: Same seed as every other reproduction artifact (see conftest.py).
SEED = 2014


def _campaign() -> RobustnessCampaign:
    return RobustnessCampaign(
        seed=SEED, hold_time=2.0, gap_time=0.5, settle_time=8.0
    )


def test_table1_letters_identical_across_kernels(publish):
    tests = table1_tests()

    with window_kernel("strided"):
        reference = _campaign().run_table1(tests=tests, jobs=1)
    with window_kernel("block"):
        result = _campaign().run_table1(tests=tests, jobs=1)

    identical = result.format() == reference.format()

    lines = [
        "WINDOW KERNEL DIFFERENTIAL (%d Table I rows, 2 s holds)"
        % len(tests),
        "",
        "letter matrices byte-identical: %s" % ("yes" if identical else "NO"),
        "",
        result.format(title="FAULT INJECTION RESULTS (block kernel)"),
    ]
    publish("kernel_differential.txt", "\n".join(lines))

    assert identical, "block kernel letters drifted from the strided reference"
    assert result.labels() == [t.label for t in tests]
