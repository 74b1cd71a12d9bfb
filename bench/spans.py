"""Span tracing for the benchmark's traced run.

A :class:`Tracer` records one span per call into a wrapped function: its
name, its duration and the span that was open when it started (its
parent).  Spans are aggregated by call path as they close, so millions
of wrapped calls cost a few dictionary updates each and no per-span
storage.  A span's *self time* is its duration minus the time its child
spans cover; the self times of all spans under a root add up to the
root's duration exactly, which is what lets the per-layer breakdown
account for the whole traced wall time.

Wrapping happens only from the benchmark's files: :func:`patched`
swaps a module or class attribute for a traced wrapper and restores
the original on exit, so the program under test is never edited.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Aggregate per call path: [calls, total seconds, seconds in child spans].
PathStats = List[float]
#: An observer sees the wrapped call's arguments and result after the
#: span closes (for counts such as rows or unchanged payloads).
Observer = Callable[[tuple, object], None]


class Tracer:
    """Nested-span recorder with an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open spans, innermost last: [path, child seconds].
        self._stack: List[list] = []
        self.paths: Dict[Tuple[str, ...], PathStats] = {}

    def enter(self, name: str) -> float:
        parent = self._stack[-1][0] if self._stack else ()
        self._stack.append([parent + (name,), 0.0])
        return self.clock()

    def exit(self, start: float) -> None:
        elapsed = self.clock() - start
        path, child = self._stack.pop()
        stats = self.paths.get(path)
        if stats is None:
            stats = self.paths[path] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += child
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self.enter(name)
        try:
            yield
        finally:
            self.exit(start)

    def wrap(
        self, function: Callable, name: str, observe: Optional[Observer] = None
    ) -> Callable:
        """``function`` with every call recorded as a span ``name``."""
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            start = enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                exit_(start)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Calls, total and self seconds per span name, over all paths."""
        totals: Dict[str, Dict[str, float]] = {}
        for path, (calls, total, child) in self.paths.items():
            entry = totals.setdefault(
                path[-1], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += total - child
        return totals

    def unattributed(self, wall: float, roots: Sequence[str]) -> float:
        """Traced wall time that no layer span accounts for.

        That is the time outside every span plus the self time of the
        ``roots`` (the per-operation spans the benchmark itself opens).
        Layer self times plus this remainder equal ``wall``.
        """
        names = self.by_name()
        layers = sum(
            entry["self_s"] for name, entry in names.items() if name not in roots
        )
        return wall - layers

    def tree_lines(self, wall: float) -> List[str]:
        """The self-time tree, one indented line per call path."""
        lines = []
        for path in sorted(self.paths):
            calls, total, child = self.paths[path]
            lines.append(
                "%s%-*s calls=%-9d total=%9.4fs self=%9.4fs (%5.1f%%)"
                % (
                    "  " * (len(path) - 1),
                    40 - 2 * (len(path) - 1),
                    path[-1],
                    calls,
                    total,
                    total - child,
                    100.0 * (total - child) / wall if wall > 0 else 0.0,
                )
            )
        return lines


#: One attribute to trace: (owner module or class, attribute, span name,
#: optional observer).
Patch = Tuple[object, str, str, Optional[Observer]]


@contextlib.contextmanager
def patched(tracer: Tracer, patches: Sequence[Patch]) -> Iterator[None]:
    """Replace each patched attribute with a traced wrapper, then restore."""
    originals = []
    try:
        for owner, attribute, name, observe in patches:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(original, name, observe))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
