"""Random value injection (§III-A).

The paper injected "values from [−2000, 2000] for floats, [0, 1] for
booleans, and [0, maxint] for enums".  The float range was chosen to go
beyond the possible non-faulty values of the target messages while
keeping the range small enough that some draws land inside the normal
range.  Enum draws over the full field frequently fail the HIL's strong
value checking — which is itself part of the reproduced behaviour
(Experiment E6 counts those rejections).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.can.signal import SignalDef, SignalType, SignalValue
from repro.errors import count as check_count

#: The paper's random float injection range.
FLOAT_RANGE = (-2000.0, 2000.0)


def random_values(
    signal: SignalDef, count: int, rng: np.random.Generator
) -> List[SignalValue]:
    """Draw ``count`` random injection values for one signal."""
    check_count("count", count)
    if signal.kind is SignalType.FLOAT:
        return [float(v) for v in rng.uniform(*FLOAT_RANGE, size=count)]
    if signal.kind is SignalType.BOOL:
        return [bool(b) for b in rng.integers(0, 2, size=count)]
    # Enums: the whole raw field, most of which is invalid for labelled
    # enums and will be rejected by the HIL profile.
    return [int(v) for v in rng.integers(0, signal.max_raw + 1, size=count)]
