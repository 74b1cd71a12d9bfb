"""Shared fixtures for the reproduction harness.

Each test regenerates one of the paper's tables or figures (see
DESIGN.md's per-experiment index), prints it, and writes it under
``results/``.  Every artifact is a pure function of the code and
:data:`SEED`: verdicts, counts and letter tables, never host timings
(speed is measured by ``bench/run.py``).  Expensive artifacts (the full
Table I campaign, the synthetic vehicle drive) are session-scoped so the
suite pays for them once.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

warnings.filterwarnings("ignore", category=RuntimeWarning)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Seed for every reproduction artifact (change to probe robustness).
SEED = 2014

#: Near-miss threshold for the margin-annotated campaign (E18): passing
#: cells whose certain margin bound is at most this are flagged.
NEAR_MISS_THRESHOLD = 5.0


@pytest.fixture(scope="session")
def results_dir():
    """Directory collecting the regenerated tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def publish(results_dir):
    """Print an artifact and persist it under results/."""

    def _publish(name: str, text: str) -> None:
        print()
        print("=" * 72)
        print(text)
        print("=" * 72)
        (results_dir / name).write_text(text + "\n", encoding="utf-8")

    return _publish


@pytest.fixture(scope="session")
def table1():
    """The full Table I campaign (the expensive artifact, ~1 minute).

    Run with margins on: the boolean letters are bit-identical either
    way (E18 asserts so against the committed fixture), and every
    margin-consuming test shares the one campaign.
    """
    from repro.testing.campaign import RobustnessCampaign

    return RobustnessCampaign(
        seed=SEED, robustness=True, near_miss_threshold=NEAR_MISS_THRESHOLD
    ).run_table1()


@pytest.fixture(scope="session")
def drive_logs():
    """The synthetic real-vehicle drive (§IV-A substitution)."""
    from repro.logs.vehicle_logs import generate_drive_logs

    return generate_drive_logs(seed=SEED)


@pytest.fixture(scope="session")
def long_trace():
    """A long (300 s) nominal HIL trace."""
    from repro.hil.simulator import HilSimulator
    from repro.vehicle.scenario import steady_follow

    return HilSimulator(steady_follow(300.0), seed=SEED).run().trace
