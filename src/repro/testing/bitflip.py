"""Bit-flip fault injection (§III-A).

The paper flipped one, two and four randomly chosen bits of the target
signal's field ("bits to flip were randomly chosen for each individual
bit flip fault"), holding each corrupted pattern for the injection
period.  On IEEE-754 float fields this reproduces the full menagerie:
sign flips, exponent excursions (huge / tiny / infinite values), and NaN
payloads.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.can.signal import SignalDef
from repro.errors import InjectionError, count

#: The paper's bit-flip sizes.
FLIP_SIZES: Tuple[int, ...] = (1, 2, 4)
#: Injections per flip size in each single-signal test (§IV).
FLIPS_PER_SIZE = 4


def bitflip_offsets(
    signal: SignalDef, n_bits: int, rng: np.random.Generator
) -> Tuple[int, ...]:
    """Choose ``n_bits`` distinct bit positions inside the signal field."""
    count("n_bits", n_bits)
    if n_bits > signal.bit_length:
        raise InjectionError(
            "%s: cannot flip %d distinct bits in a %d-bit field"
            % (signal.name, n_bits, signal.bit_length)
        )
    picks = rng.choice(signal.bit_length, size=n_bits, replace=False)
    return tuple(int(p) for p in sorted(picks))


def bitflip_schedule(
    signal: SignalDef,
    rng: np.random.Generator,
    sizes: Tuple[int, ...] = FLIP_SIZES,
    per_size: int = FLIPS_PER_SIZE,
) -> List[Tuple[int, ...]]:
    """The paper's per-signal bit-flip test plan.

    Returns one offset tuple per injection: ``per_size`` injections for
    each flip size, freshly randomized each time.  Sizes larger than the
    field (e.g. 4-bit flips on a 1-bit boolean) are skipped.
    """
    schedule: List[Tuple[int, ...]] = []
    for size in sizes:
        if size > signal.bit_length:
            continue
        for _ in range(per_size):
            schedule.append(bitflip_offsets(signal, size, rng))
    return schedule
