"""Ballista-style exceptional value dictionaries (§III-A).

The paper injected float-typed messages with values from a fixed
exceptional-value set in the Ballista tradition [Koopman et al. 2008]:
IEEE-754 special values, signed zeros and units, multiples of pi and e,
roots and logarithms, values at the 2^32 boundary, and denormals.  The
set below is transcribed from the paper.

For non-float data types the paper fell back to random *valid* values,
"due to the strong value checking enforced on the HIL testbed" — so the
generators here do the same for booleans and enumerations.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.can.signal import SignalDef, SignalType, SignalValue
from repro.errors import count as check_count

#: The paper's exceptional float set, §III-A (22 values).
BALLISTA_FLOATS: Tuple[float, ...] = (
    float("nan"),
    float("inf"),
    float("-inf"),
    0.0,
    -0.0,
    1.0,
    -1.0,
    math.pi,
    math.pi / 2,
    math.pi / 4,
    2 * math.pi,
    math.e,
    math.e / 2,
    math.e / 4,
    math.sqrt(2),
    math.sqrt(2) / 2,
    math.log(2),
    math.log(2) / 2,
    4294967296.000001,
    4294967295.9999995,
    4.9406564584124654e-324,
    -4.9406564584124654e-324,
)


def ballista_values(
    signal: SignalDef, count: int, rng: np.random.Generator
) -> List[SignalValue]:
    """Draw ``count`` Ballista-style injection values for one signal.

    Floats sample (without replacement where possible) from the
    exceptional set; booleans and enums fall back to random valid values,
    as the paper did.
    """
    check_count("count", count)
    if signal.kind is SignalType.FLOAT:
        replace = count > len(BALLISTA_FLOATS)
        picks = rng.choice(len(BALLISTA_FLOATS), size=count, replace=replace)
        return [BALLISTA_FLOATS[i] for i in picks]
    return random_valid_values(signal, count, rng)


def random_valid_values(
    signal: SignalDef, count: int, rng: np.random.Generator
) -> List[SignalValue]:
    """Random values guaranteed to pass the HIL's type checking."""
    if signal.kind is SignalType.BOOL:
        return [bool(b) for b in rng.integers(0, 2, size=count)]
    if signal.kind is SignalType.ENUM:
        if signal.enum_labels:
            choices = sorted(signal.enum_labels)
        else:
            choices = list(range(signal.max_raw + 1))
        picks = rng.choice(len(choices), size=count)
        return [int(choices[i]) for i in picks]
    # Valid floats: stay inside the documented physical range.
    low = signal.minimum if signal.minimum is not None else -1000.0
    high = signal.maximum if signal.maximum is not None else 1000.0
    return [float(v) for v in rng.uniform(low, high, size=count)]
