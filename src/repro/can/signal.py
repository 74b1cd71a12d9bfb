"""Signal definitions — the DBC-like layer that gives CAN payload bits
physical meaning.

The paper's injection framework distinguishes three data types (floats,
booleans and enumerations) because the dSPACE HIL enforced strong value
checking per type.  We model the same three types:

* ``FLOAT`` signals are carried as raw IEEE-754 binary32.  This is what
  lets Ballista-style exceptional values (NaN, infinities, denormals)
  survive the bus, and what makes random bit flips occasionally decode to
  exceptional values — both behaviours the paper depends on.
* ``BOOL`` signals occupy a single bit.
* ``ENUM`` signals are unsigned integers with an optional label table.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple, Union

from repro.can.errors import SignalError

SignalValue = Union[float, bool, int]


class SignalType(enum.Enum):
    """Physical type of a CAN signal, mirroring the paper's injection types."""

    FLOAT = "float"
    BOOL = "bool"
    ENUM = "enum"


class ByteOrder(enum.Enum):
    """Bit packing order inside the frame payload."""

    LITTLE_ENDIAN = "intel"
    BIG_ENDIAN = "motorola"


@dataclass(frozen=True)
class SignalDef:
    """Layout and interpretation of one signal within a CAN message.

    Attributes:
        name: unique signal name (unique across the whole database).
        start_bit: least-significant payload bit of the raw field.
        bit_length: width of the raw field in bits.
        kind: physical type (float / bool / enum).
        byte_order: packing order; Intel (little-endian) by default.
        unit: human-readable engineering unit, for documentation only.
        minimum: lowest plausible physical value (used by HIL type checks).
        maximum: highest plausible physical value (used by HIL type checks).
        enum_labels: value-to-label table for ENUM signals.
        comment: free-form description.
    """

    name: str
    start_bit: int
    bit_length: int
    kind: SignalType
    byte_order: ByteOrder = ByteOrder.LITTLE_ENDIAN
    unit: str = ""
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    enum_labels: Mapping[int, str] = field(default_factory=dict)
    comment: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SignalError("signal name must be non-empty")
        if self.start_bit < 0:
            raise SignalError("%s: start_bit must be >= 0" % self.name)
        if self.bit_length <= 0:
            raise SignalError("%s: bit_length must be positive" % self.name)
        if self.kind is SignalType.BOOL and self.bit_length != 1:
            raise SignalError(
                "%s: BOOL signals must be exactly 1 bit wide" % self.name
            )
        if self.kind is SignalType.FLOAT and self.bit_length != 32:
            raise SignalError(
                "%s: FLOAT signals are IEEE-754 binary32 and must be "
                "32 bits wide" % self.name
            )
        if self.kind is SignalType.ENUM and self.bit_length > 32:
            raise SignalError(
                "%s: ENUM signals wider than 32 bits are not supported"
                % self.name
            )
        if (
            self.minimum is not None
            and self.maximum is not None
            and self.minimum > self.maximum
        ):
            raise SignalError("%s: minimum exceeds maximum" % self.name)

    @property
    def max_raw(self) -> int:
        """Largest raw (unsigned integer) field value."""
        return (1 << self.bit_length) - 1

    def physical_range(self) -> Tuple[Optional[float], Optional[float]]:
        """The ``(lo, hi)`` physical value range, ``None`` for unbounded.

        Booleans are always ``(0, 1)``; enums fall back to their label
        table when no explicit bounds exist.  This is the range the
        static analyses seed their interval walk from
        (:func:`repro.analysis.analyzer.database_env`).  The HIL
        profile's value check (:meth:`is_valid_value`) is stricter for
        enums: it accepts only labelled values, not the whole hull.
        """
        if self.kind is SignalType.BOOL:
            return (0.0, 1.0)
        lo = None if self.minimum is None else float(self.minimum)
        hi = None if self.maximum is None else float(self.maximum)
        if self.kind is SignalType.ENUM and self.enum_labels:
            if lo is None:
                lo = float(min(self.enum_labels))
            if hi is None:
                hi = float(max(self.enum_labels))
        return (lo, hi)

    def clipped_flip_sizes(self, sizes: Tuple[int, ...]) -> Tuple[int, ...]:
        """The requested flip sizes that exceed this signal's bit width
        (the ones :func:`~repro.testing.bitflip.bitflip_schedule` skips
        and multi-signal plans clamp)."""
        return tuple(size for size in sizes if size > self.bit_length)

    def default_value(self) -> SignalValue:
        """A benign default physical value for this signal."""
        if self.kind is SignalType.FLOAT:
            return 0.0
        if self.kind is SignalType.BOOL:
            return False
        return 0

    def is_valid_value(self, value: SignalValue) -> bool:
        """Check a *physical* value against this signal's type and bounds.

        This is the predicate the dSPACE HIL applied to injected values
        (Section III-A / V-C3): floats are only range-checked when finite
        bounds exist, booleans must be 0/1, and enums must be non-negative
        integers inside the field (and, when labels exist, in the label
        table).
        """
        if self.kind is SignalType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return False
            value = float(value)
            if math.isnan(value) or math.isinf(value):
                # Exceptional values are representable and the HIL's
                # bounds checker accepted them for floats (the paper
                # injected NaN and infinities).
                return True
            if self.minimum is not None and value < self.minimum:
                return False
            if self.maximum is not None and value > self.maximum:
                return False
            return True
        if self.kind is SignalType.BOOL:
            return isinstance(value, bool) or value in (0, 1)
        # ENUM
        if isinstance(value, bool) or not isinstance(value, int):
            return False
        if value < 0 or value > self.max_raw:
            return False
        if self.enum_labels:
            return value in self.enum_labels
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True

    def label_for(self, value: int) -> str:
        """Human-readable label for an ENUM value (falls back to the number)."""
        return self.enum_labels.get(value, str(value))
