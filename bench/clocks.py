"""Clocks for timing operations on a shared host.

On a host shared with other tenants the processor's speed drifts by
tens of percent for seconds at a time (the wall time of one unchanged
drive-log check varies by up to half between repetitions a few seconds
apart).  Raw wall times then measure the neighbours as much as the
program.  :class:`SpeedProbe` corrects for that: a timer signal
interrupts the run every ``PERIOD`` seconds and times a fixed probe
loop; an operation's wall time, less the probes' own time,
is scaled by ``REFERENCE_PROBE_S`` over the mean probe time during the
operation.  The result is the operation's duration at the reference
host speed, so it moves with the program's cost and much less with the
host's load.  :class:`WallClock` is the uncorrected clock with the same
interface, used by the traced run.

Both clocks read :func:`time.monotonic`, which on Linux is one clock for
every process, so a child process can time itself from the moment its
parent started it (see :meth:`SpeedProbe.since`).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from typing import Iterator, List

import numpy

#: Probe duration that defines the reference host speed: the median
#: when unloaded, on a 2-vCPU x86-64 host with Python 3.11 and numpy 2.4.
REFERENCE_PROBE_S = 0.00075
#: Seconds between probes (each probe takes about a millisecond).
PERIOD = 0.03


class Item:
    __slots__ = ("value", "key")

    def __init__(self, value: float, key: int) -> None:
        self.value = value
        self.key = key


#: Every probe copies the values into the buffer and sorts them in
#: place: no allocation, so the probe leaves the program's heap alone.
#: (Unordered values made without numpy.random, whose import would add
#: several megabytes to the resident size being measured.)
_VALUES = numpy.sin(numpy.arange(20000) * 0.7)
_BUFFER = numpy.empty_like(_VALUES)


def probe_loop() -> int:
    """Fixed work in the proportions the workloads have: mostly
    interpreter (objects, dicts, floats, strings), some numpy.  With
    this mix the probe slows under host load about as much as the
    operations it corrects."""
    totals: dict = {}
    names = []
    for index in range(1200):
        item = Item(index * 0.5, index % 97)
        totals[item.key] = totals.get(item.key, 0.0) + item.value * 1.0001
        names.append("%d" % item.key)
    numpy.copyto(_BUFFER, _VALUES)
    _BUFFER.sort()
    return len(names) + len(totals)


def probe_seconds(loops: int = 1) -> float:
    """Mean seconds of ``loops`` runs of the probe loop."""
    start = time.perf_counter()
    for _ in range(loops):
        probe_loop()
    return (time.perf_counter() - start) / loops


class WallClock:
    """Plain wall time."""

    def mark(self) -> float:
        return time.monotonic()

    def seconds(self, mark: float) -> float:
        return time.monotonic() - mark

    wall = seconds


class SpeedProbe:
    """Wall time corrected to the reference host speed."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.paused = 0.0

    def _tick(self, signum: int, frame: object) -> None:
        elapsed = probe_seconds()
        self.samples.append(elapsed)
        self.paused += elapsed

    @contextlib.contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            self._tick(signal.SIGALRM, None)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple:
        return self.since(time.monotonic())

    def since(self, start: float) -> tuple:
        """A mark at ``start``, an earlier :func:`time.monotonic` reading.

        Taken before :meth:`running`, the first probes scale the time
        before them too.
        """
        return start, self.paused, len(self.samples)

    def wall(self, mark: tuple) -> float:
        """Wall seconds since ``mark``, probes excluded."""
        start, paused, _ = mark
        return time.monotonic() - start - (self.paused - paused)

    def seconds(self, mark: tuple) -> float:
        """Seconds since ``mark`` at reference speed, probes excluded.

        An operation shorter than the probe period is scaled by the
        probe just before it.
        """
        wall = self.wall(mark)
        first = mark[2]
        during = self.samples[first:] or self.samples[first - 1 : first]
        return wall * REFERENCE_PROBE_S / statistics.fmean(during)
