"""Bit-level packing of physical signal values into CAN payloads.

The codec is deliberately round-trip exact: ``decode(encode(x)) == x`` for
every representable value, including IEEE-754 exceptional values.  Bit
flips performed by the robustness-testing harness operate on the packed
payload, so the codec is also the place where a flipped bit turns into a
NaN, an infinity, or a wild enumerated value.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.can.errors import CodecError
from repro.can.signal import ByteOrder, SignalDef, SignalType, SignalValue

#: IEEE-754 binary32 in wire order: the packing of every FLOAT signal.
_FLOAT32 = struct.Struct("<f")
_pack32, _unpack32 = _FLOAT32.pack, _FLOAT32.unpack

_FLOAT = SignalType.FLOAT
_BOOL = SignalType.BOOL


def extract_raw(data: bytes, signal: SignalDef) -> int:
    """Extract the raw unsigned field for ``signal`` from payload ``data``."""
    _check_fits(data, signal)
    if signal.byte_order is ByteOrder.LITTLE_ENDIAN:
        whole = int.from_bytes(data, "little")
        return (whole >> signal.start_bit) & signal.max_raw
    whole = int.from_bytes(data, "big")
    total_bits = 8 * len(data)
    shift = total_bits - signal.start_bit - signal.bit_length
    return (whole >> shift) & signal.max_raw


def insert_raw(data: bytes, signal: SignalDef, raw: int) -> bytes:
    """Return a copy of ``data`` with ``signal``'s field replaced by ``raw``."""
    _check_fits(data, signal)
    if not 0 <= raw <= signal.max_raw:
        raise CodecError(
            "%s: raw value %d does not fit in %d bits"
            % (signal.name, raw, signal.bit_length)
        )
    if signal.byte_order is ByteOrder.LITTLE_ENDIAN:
        whole = int.from_bytes(data, "little")
        mask = signal.max_raw << signal.start_bit
        whole = (whole & ~mask) | (raw << signal.start_bit)
        return whole.to_bytes(len(data), "little")
    whole = int.from_bytes(data, "big")
    total_bits = 8 * len(data)
    shift = total_bits - signal.start_bit - signal.bit_length
    mask = signal.max_raw << shift
    whole = (whole & ~mask) | (raw << shift)
    return whole.to_bytes(len(data), "big")


def physical_to_raw(signal: SignalDef, value: SignalValue) -> int:
    """Convert a physical value to the raw field integer."""
    if signal.kind is SignalType.FLOAT:
        return int.from_bytes(_pack_float(signal.name, value), "little")
    if signal.kind is SignalType.BOOL:
        return 1 if value else 0
    return _check_enum(signal.name, value, signal.max_raw)


def raw_to_physical(signal: SignalDef, raw: int) -> SignalValue:
    """Convert a raw field integer back to a physical value."""
    if signal.kind is SignalType.FLOAT:
        return _FLOAT32.unpack(raw.to_bytes(4, "little"))[0]
    if signal.kind is SignalType.BOOL:
        return bool(raw & 1)
    return raw


def encode_signal(data: bytes, signal: SignalDef, value: SignalValue) -> bytes:
    """Encode one physical value into a payload, returning the new payload."""
    return insert_raw(data, signal, physical_to_raw(signal, value))


def decode_signal(data: bytes, signal: SignalDef) -> SignalValue:
    """Decode one physical value out of a payload."""
    return raw_to_physical(signal, extract_raw(data, signal))


def flip_bits(data: bytes, signal: SignalDef, bit_offsets: Iterable[int]) -> bytes:
    """Flip the given bits *within one signal's field* of a payload.

    ``bit_offsets`` are zero-based offsets inside the signal's raw field
    (0 is the field's least significant bit).  This mirrors the paper's
    bit-flip fault injection, which targeted individual signals.
    """
    raw = extract_raw(data, signal)
    for offset in bit_offsets:
        if not 0 <= offset < signal.bit_length:
            raise CodecError(
                "%s: bit offset %d outside %d-bit field"
                % (signal.name, offset, signal.bit_length)
            )
        raw ^= 1 << offset
    return insert_raw(data, signal, raw)


def values_equal(a: SignalValue, b: SignalValue) -> bool:
    """Equality that treats NaN as equal to NaN (useful in round-trip tests)."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


class FrameCodec:
    """One message's signal layouts compiled for whole-payload coding.

    :meth:`encode` and :meth:`decode` give, byte for byte and bit for
    bit, what :func:`encode_signal` and :func:`decode_signal` give when
    applied to every signal in turn, but convert the payload to an
    integer once per frame instead of once per signal.  Each field keeps
    its shift, mask and kind; the payload integer is little-endian, and
    a big-endian field is placed by byte-swapping its big-endian image,
    so messages that mix byte orders code exactly as the per-signal
    functions do.  :meth:`deliver` gives what a decode of an encoded
    payload yields without building the payload.
    """

    def __init__(self, length: int, signals: Sequence[SignalDef]) -> None:
        self.length = length
        full = (1 << 8 * length) - 1
        self._has_big = False
        #: Whether two fields share a payload bit, which only a big- and
        #: a little-endian field can do (the two orders map start bits to
        #: payload bits differently): the later field then wins the bit.
        self._overlap = False
        taken = 0
        fields = []
        places = []
        for signal in signals:
            big = signal.byte_order is ByteOrder.BIG_ENDIAN
            if big:
                self._has_big = True
                shift = 8 * length - signal.start_bit - signal.bit_length
                mask = self._swap(signal.max_raw << shift)
            else:
                shift = signal.start_bit
                mask = signal.max_raw << shift
            self._overlap = self._overlap or bool(taken & mask)
            taken |= mask
            fields.append(
                (signal.name, signal.kind, signal.max_raw, signal.default_value())
            )
            places.append((big, shift, full ^ mask))
        self._fields = tuple(fields)
        self._places = tuple(places)

    def encode(self, values: Mapping[str, SignalValue]) -> bytes:
        """Pack ``values`` (defaults for missing signals) into a payload."""
        raws: List[int] = []
        self.deliver(values, raws)
        whole = 0
        for (big, shift, keep), raw in zip(self._places, raws):
            placed = self._swap(raw << shift) if big else raw << shift
            whole = (whole & keep) | placed
        return whole.to_bytes(self.length, "little")

    def deliver(
        self, values: Mapping[str, SignalValue], raws: Optional[List[int]] = None
    ) -> Dict[str, SignalValue]:
        """What ``decode(encode(values))`` yields, without the payload.

        This is :meth:`encode`'s per-field conversion, with every
        :class:`CodecError` check it makes: each value becomes its raw
        field and the value a decode of that field yields.  ``raws``,
        when given, receives the raw fields in field order (what
        :meth:`encode` packs).  A layout whose fields share payload bits
        is encoded and decoded instead, since there a later field
        overwrites part of an earlier one.
        """
        if self._overlap and raws is None:
            return self.decode(self.encode(values))
        delivered: Dict[str, SignalValue] = {}
        for name, kind, max_raw, default in self._fields:
            value = values.get(name, default)
            if kind is _FLOAT:
                # _pack_float, inlined: this runs for every float field
                # of every frame the bus delivers.
                try:
                    packed = _pack32(float(value))
                except (OverflowError, ValueError, TypeError) as exc:
                    raise _not_float32(name, value) from exc
                delivered[name] = _unpack32(packed)[0]
                if raws is not None:
                    raws.append(int.from_bytes(packed, "little"))
            elif kind is _BOOL:
                delivered[name] = bool(value)
                if raws is not None:
                    raws.append(1 if value else 0)
            else:
                # A plain int, as a decode gives, also for int subclasses.
                raw = delivered[name] = int(_check_enum(name, value, max_raw))
                if raws is not None:
                    raws.append(raw)
        return delivered

    def decode(self, data: bytes) -> Dict[str, SignalValue]:
        """Unpack every signal from ``data`` (at least ``length`` bytes).

        A big-endian field's shift counts from the end of ``data``, as
        :func:`extract_raw` counts it, so a longer payload decodes as
        the per-signal functions decode it.
        """
        whole = int.from_bytes(data, "little")
        if self._has_big:
            whole_big = int.from_bytes(data, "big")
            extra = 8 * (len(data) - self.length)
        values: Dict[str, SignalValue] = {}
        for (name, kind, max_raw, _), (big, shift, _) in zip(
            self._fields, self._places
        ):
            if big:
                raw = (whole_big >> (shift + extra)) & max_raw
            else:
                raw = (whole >> shift) & max_raw
            if kind is _FLOAT:
                values[name] = _FLOAT32.unpack(raw.to_bytes(4, "little"))[0]
            elif kind is _BOOL:
                values[name] = bool(raw & 1)
            else:
                values[name] = raw
        return values

    def _swap(self, whole: int) -> int:
        """Reinterpret a big-endian payload integer as little-endian."""
        return int.from_bytes(whole.to_bytes(self.length, "big"), "little")


def _pack_float(name: str, value: SignalValue) -> bytes:
    try:
        return _FLOAT32.pack(float(value))
    except (OverflowError, ValueError, TypeError) as exc:
        raise _not_float32(name, value) from exc


def _not_float32(name: str, value: SignalValue) -> CodecError:
    return CodecError("%s: cannot encode %r as float32" % (name, value))


def _check_enum(name: str, value: SignalValue, max_raw: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodecError(
            "%s: enum value must be an integer, got %r" % (name, value)
        )
    if not 0 <= value <= max_raw:
        raise CodecError(
            "%s: enum value %d outside field range [0, %d]"
            % (name, value, max_raw)
        )
    return value


def _check_fits(data: bytes, signal: SignalDef) -> None:
    if signal.start_bit + signal.bit_length > 8 * len(data):
        raise CodecError(
            "%s: field [%d, %d) does not fit in %d-byte payload"
            % (
                signal.name,
                signal.start_bit,
                signal.start_bit + signal.bit_length,
                len(data),
            )
        )
