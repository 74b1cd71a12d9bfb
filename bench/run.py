#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 bench/run.py --workload check --seed 1 --seconds 15 --trace 0

The workload (``campaign``, ``check``, ``fleet`` or ``audit``, see
``workloads.py``) runs whole passes of its operations until ``--seconds``
have gone by and checks every output.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` instead runs a warm-up pass, an
untraced reference pass and a traced pass of the workload, plus one
traced sample operation of each other workload, and prints the
per-layer metrics and the tracing overhead.  Human-readable lines come
first, the host facts among them; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Inputs are built from ``--seed`` by ``loadgen.py`` in a child process
before any clock starts.  ``setup_s`` is the median, over fresh child
processes, of the time from starting the child until it has imported
the program and built the workload's monitors, services and rule sets;
each child times itself with a speed probe (see ``clocks.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7
#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT = 600

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


class Measurement:
    """Passes of one workload: work done, time taken, failures."""

    def __init__(self) -> None:
        self.passes = 0
        self.units = 0.0
        self.seconds = 0.0  # by the workload's clock
        self.raw_seconds = 0.0  # uncorrected wall time of the same operations
        self.latencies: List[List[float]] = []  # per pass
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def throughput(self) -> float:
        return self.units / self.seconds

    def latency_ms(self, fraction: float) -> float:
        """Median over passes of each pass's latency percentile.

        A pass holds the workload's fixed mix of operations, so a pass
        percentile is one sample of the same quantity; the median over
        passes keeps one slow phase of the host from deciding it.
        """
        return 1000.0 * statistics.median(
            percentile(samples, fraction) for samples in self.latencies if samples
        )


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= fraction <= 1)."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def run_ops(workload, indices, measurement, tracer=None) -> None:
    """Run operations ``indices`` once each and check their outputs."""
    root = workload.name + ".op"
    clock = workload.clock
    for index in indices:
        measurement.attempted += 1
        mark = clock.mark()
        try:
            if tracer is None:
                units, outcome = workload.op(index)
            else:
                with tracer.span(root):
                    units, outcome = workload.op(index)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            measurement.failed += 1
            continue
        elapsed = clock.seconds(mark)
        measurement.raw_seconds += clock.wall(mark)
        workload.record_latency(index, elapsed)
        error = workload.verify(index, outcome)
        if error is not None:
            print("bench: wrong output: %s" % error, file=sys.stderr)
            measurement.failed += 1
        measurement.units += units
        measurement.seconds += elapsed


def measure(workload, seconds: float, tracer=None, passes: Optional[int] = None):
    """Repeat whole passes: ``passes`` of them, or else one and then more
    while a pass as long as the last one still ends within ``seconds``."""
    measurement = Measurement()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        first_latency = len(workload.latencies)
        run_ops(workload, range(workload.ops_per_pass()), measurement, tracer)
        measurement.latencies.append(workload.latencies[first_latency:])
        measurement.passes += 1
        now = time.perf_counter()
        measurement.wall = now - start
        if measurement.failed and not measurement.seconds:
            break
        if passes is not None:
            if measurement.passes >= passes:
                break
        elif measurement.wall + (now - pass_start) > seconds:
            break
    return measurement


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


def child(args: List[str]) -> str:
    """Run this script with ``args`` in a fresh process; its output."""
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + args,
        check=True,
        timeout=CHILD_TIMEOUT,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout


def input_dirs(kinds: Sequence[str], seed: int) -> Dict[str, str]:
    import loadgen

    dirs = {}
    for kind in kinds:
        dirs[kind] = loadgen.input_dir(ROOT, kind, seed)
        if not os.path.isdir(dirs[kind]):
            child(["--generate", kind, "--seed", str(seed)])
    return dirs


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of fresh processes, at reference host speed.

    Each child gets the time it was started at and prints how long it
    took from then until its set-up was done.
    """
    args = ["--setup-only", "--workload", workload, "--seed", str(seed), "--since"]
    samples = [
        float(child(args + [repr(time.monotonic())]))
        for _ in range(SETUP_SAMPLES)
    ]
    return statistics.median(samples)


def timed_setup(workload: str, seed: int, since: float) -> float:
    """Set up ``workload`` in this process; seconds since ``since`` at
    reference host speed."""
    from clocks import SpeedProbe
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    clock = SpeedProbe()
    mark = clock.since(since)
    with clock.running():
        cls(ROOT, seed, input_dirs(cls.inputs, seed)).setup()
        return clock.seconds(mark)


#: Iterations of :func:`burn` between clock readings when calibrating.
BURN_CHUNK = 500


def burn(loops: int) -> int:
    """Fixed interpreter work: ``loops`` rounds of float, dict and list
    operations."""
    table: Dict[int, float] = {}
    for index in range(loops):
        key = index % 251
        table[key] = table.get(key, 1.0) * 0.5 + index ** 0.5
        if key == 0:
            sorted(table.values())
    return len(table)


def slowed(op, fraction: float):
    """``op`` followed by extra work.  On an operation's first call the
    work runs for ``fraction`` of the time the operation took and its
    amount is kept; later calls do that same amount.  A run made with it
    has the cost of a program that is slower by ``fraction``."""
    work: Dict[int, int] = {}

    def slow_op(index: int):
        start = time.perf_counter()
        result = op(index)
        if index in work:
            burn(work[index])
            return result
        deadline = time.perf_counter() + fraction * (time.perf_counter() - start)
        work[index] = 0
        while time.perf_counter() < deadline:
            burn(BURN_CHUNK)
            work[index] += BURN_CHUNK
        return result

    return slow_op


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def host_facts() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def build(name: str, seed: int, kinds: Sequence[str]):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(ROOT, seed, input_dirs(kinds, seed))
    workload.setup()
    workload.prepare()
    return workload


def end_to_end(args) -> dict:
    from clocks import SpeedProbe
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    input_dirs(cls.inputs, args.seed)
    setup_s = setup_seconds(args.workload, args.seed)
    workload = build(args.workload, args.seed, cls.inputs)
    if args.slowdown:
        workload.op = slowed(workload.op, args.slowdown)
    workload.clock = SpeedProbe()
    with workload.measuring(), workload.clock.running():
        run = measure(workload, args.seconds)
    values = {"setup_s": setup_s}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if run.seconds:
        values["throughput_per_s"] = run.throughput()
        values["op_p50_ms"] = run.latency_ms(0.5)
        values["op_p90_ms"] = run.latency_ms(0.9)
    lines = [
        "%-17s %14.6g %-4s %s"
        % (name, value, END_TO_END_UNITS[name], cls.aliases.get(name, ""))
        for name, value in values.items()
    ]
    lines.append(
        "throughput unit: %s; %d pass(es), %d latency sample(s); "
        "operations took %.2f s raw wall, %.2f s at reference host speed "
        "(probe median %.3f ms)"
        % (
            cls.unit_label,
            run.passes,
            sum(len(samples) for samples in run.latencies),
            run.raw_seconds,
            run.seconds,
            1000.0 * statistics.median(workload.clock.samples),
        )
    )
    if run.raw_seconds:
        lines.append(
            "%-17s %14.6g %-4s uncorrected, from raw wall time"
            % ("raw_throughput", run.units / run.raw_seconds, "1/s")
        )
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        },
        "lines": lines,
    }


def timed_ops(workload, ops, measurement, tracer=None) -> float:
    start = time.perf_counter()
    run_ops(workload, ops, measurement, tracer)
    return time.perf_counter() - start


def traced(args) -> dict:
    from loadgen import WRITERS
    from spans import Tracer, patched
    from workloads import WORKLOADS

    metrics: Dict[str, tuple] = {}
    counts = Measurement()
    lines: List[str] = []
    for name in [args.workload] + sorted(set(WORKLOADS) - {args.workload}):
        workload = build(name, args.seed, tuple(WRITERS))
        named = name == args.workload
        ops = range(workload.ops_per_pass()) if named else [workload.sample_op()]
        tracer = Tracer()
        with workload.measuring():
            # The first run warms the program's caches; for the traced
            # workload a second, untraced pass is the overhead reference.
            reference = timed_ops(workload, ops, counts)
            if named:
                reference = timed_ops(workload, ops, counts)
            with patched(tracer, workload.patches(tracer)):
                wall = timed_ops(workload, ops, counts, tracer)
        metrics.update(workload.layer_metrics(tracer))
        if not named:
            continue
        root = name + ".op"
        unattributed = tracer.unattributed(wall, [root])
        layers = wall - unattributed
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.unattributed_s"] = (unattributed, "s")
        overhead = wall / reference - 1.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        lines.append(
            "traced %s pass: %.4f s, untraced %.4f s (tracing overhead %+.1f%%)"
            % (name, wall, reference, 100.0 * overhead)
        )
        lines.append(
            "layer self times %.4f s + unattributed %.4f s = traced wall %.4f s"
            % (layers, unattributed, layers + unattributed)
        )
        lines.extend(tracer.tree_lines(wall))
    for metric in sorted(metrics):
        value, unit = metrics[metric]
        lines.append("%-30s %14.6g %s" % (metric, value, unit))
    return {
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
        "lines": lines,
    }


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="check")
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--slowdown",
        type=float,
        default=0.0,
        help="add fixed extra work of about this fraction of each operation's "
        "time (checks that the metrics follow a slower program)",
    )
    parser.add_argument("--generate", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--since", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "bench: no program sources at %s; run from the root of a checkout"
            % SRC,
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.generate is not None:
        import loadgen

        loadgen.generate(ROOT, args.generate, args.seed)
        return 0
    if args.workload not in WORKLOADS:
        print(
            "bench: unknown workload %r (expected one of %s)"
            % (args.workload, ", ".join(sorted(WORKLOADS))),
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        print(repr(timed_setup(args.workload, args.seed, args.since)))
        return 0

    result = traced(args) if args.trace else end_to_end(args)
    correct = result["failed"] == 0 and result["attempted"] > 0
    host = host_facts()
    print(
        "bench %s seed=%d seconds=%g trace=%d | host nproc=%s python=%s numpy=%s"
        % (
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            host["nproc"],
            host["python"],
            host["numpy"],
        )
    )
    for line in result["lines"]:
        print(line)
    print(
        "error_rate %.6g (%d of %d operations failed)"
        % (
            result["failed"] / max(result["attempted"], 1),
            result["failed"],
            result["attempted"],
        )
    )
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
