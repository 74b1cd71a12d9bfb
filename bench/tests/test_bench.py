"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest bench/tests -q

The span tests are instant.  The workload tests run each workload for a
single pass through ``run.py`` and check that every metric
``BENCHMARK.json`` names is printed with its unit and that no operation
failed.  The slowdown tests run each workload twice, once with fixed
extra work in every operation, and check that the speed-corrected
throughput falls by as much as that work costs.  All of them take a few
minutes, most of it campaign passes and the first drive-log generation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import Tracer, patched  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def nested_spans() -> tuple:
    """root [0, 10] > a [1, 4] > b [2, 3]; root > a [5, 7]; wall 12."""
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.enter("root")
    clock.now = 1.0
    a = tracer.enter("a")
    clock.now = 2.0
    b = tracer.enter("b")
    clock.now = 3.0
    tracer.exit(b)
    clock.now = 4.0
    tracer.exit(a)
    clock.now = 5.0
    with tracer.span("a"):
        clock.now = 7.0
    clock.now = 10.0
    tracer.exit(root)
    return tracer, 12.0


def test_self_time_is_span_time_minus_child_spans():
    tracer, _ = nested_spans()
    names = tracer.by_name()
    assert names["root"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert names["a"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert names["b"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert tracer.paths[("root", "a", "b")] == [1, 1.0, 0.0]


def test_layer_self_times_plus_remainder_equal_wall():
    tracer, wall = nested_spans()
    unattributed = tracer.unattributed(wall, ["root"])
    # Outside the root (2 s) plus the root's own self time (5 s).
    assert unattributed == 7.0
    layers = sum(
        entry["self_s"]
        for name, entry in tracer.by_name().items()
        if name != "root"
    )
    assert layers + unattributed == wall


def test_tree_lines_follow_call_paths():
    tracer, wall = nested_spans()
    lines = tracer.tree_lines(wall)
    assert [line.split()[0] for line in lines] == ["root", "a", "b"]
    assert lines[2].startswith("    b")


class Target:
    def work(self, value):
        return value * 2


def test_patched_wraps_and_restores():
    original = Target.__dict__["work"]
    tracer = Tracer()
    seen = []
    with patched(tracer, [(Target, "work", "target.work", lambda a, r: seen.append(r))]):
        assert Target().work(21) == 42
        assert Target.__dict__["work"] is not original
    assert Target.__dict__["work"] is original
    assert seen == [42]
    assert tracer.by_name()["target.work"]["calls"] == 1


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fail, "fail")()
    assert tracer.by_name()["fail"]["calls"] == 1
    assert tracer._stack == []


# ----------------------------------------------------------------------
# Short runs of each workload
# ----------------------------------------------------------------------


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run(workload: str, trace: int, seconds: str = "0.1", *extra: str) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH, "run.py"),
            "--workload", workload,
            "--seed", "2014",
            "--seconds", seconds,
            "--trace", str(trace),
            *extra,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["campaign", "check", "fleet", "audit"])
def test_short_run_emits_every_end_to_end_metric(workload):
    result = run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_emits_every_layer_metric():
    result = run("audit", trace=1)
    assert result["correct"] is True and result["failed"] == 0
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == declared("per_layer")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert 0 < values["trace.unattributed_s"] < values["trace.wall_s"]
    assert [name for name, value in values.items() if not value] == []


#: A quarter more work per operation should leave 1 / 1.25 = 0.8 of the
#: throughput; the band allows for the host's noise in short runs
#: (measured ratios on a shared 2-vCPU host: 0.77-0.90).
SLOWDOWN = 0.25


@pytest.mark.parametrize(
    "workload, seconds",
    [("campaign", "0.1"), ("check", "4"), ("fleet", "4"), ("audit", "4")],
)
def test_throughput_follows_a_slower_program(workload, seconds):
    def throughput(*extra: str) -> float:
        result = run(workload, 0, seconds, *extra)
        assert result["failed"] == 0
        return result["metrics"]["throughput_per_s"]["value"]

    ratio = throughput("--slowdown", str(SLOWDOWN)) / throughput()
    assert 0.68 < ratio < 0.92, ratio


def test_bare_directory_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(BENCH):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(BENCH, name), "rb").read())
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
