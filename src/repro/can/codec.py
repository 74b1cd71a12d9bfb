"""Bit-level packing of physical signal values into CAN payloads.

This is the library's one frame codec: :class:`FrameCodec` compiles a
message's layouts once and codes whole frames, as payloads or as lists
of raw fields.  :func:`physical_to_raw` and :func:`raw_to_physical`
convert one field, for the injection harness and the type checker, and
:func:`payload_mask` gives the payload bits a field owns, which
:class:`~repro.can.database.MessageDef` uses to refuse layouts whose
fields share a bit.  The per-signal payload codec that reads and writes
one field of a payload at a time is the test suite's oracle
(``tests/helpers.py``), not part of the library.

The codec is deliberately round-trip exact: ``decode(encode(x)) == x`` for
every representable value, including IEEE-754 exceptional values.  Bit
flips performed by the robustness-testing harness operate on a frame's
raw fields, so the codec is also the place where a flipped bit turns
into a NaN, an infinity, or a wild enumerated value.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.can.errors import CodecError
from repro.can.signal import ByteOrder, SignalDef, SignalType, SignalValue

#: IEEE-754 binary32 in wire order: the packing of every FLOAT signal.
_FLOAT32 = struct.Struct("<f")
_pack32, _unpack32 = _FLOAT32.pack, _FLOAT32.unpack

_FLOAT = SignalType.FLOAT
_BOOL = SignalType.BOOL


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


def payload_mask(signal: SignalDef, length: int) -> int:
    """The payload bits ``signal``'s field owns in a ``length``-byte
    message, as a mask of the little-endian payload integer.

    The two byte orders map start bits to payload bits differently, so
    two fields overlap exactly when their masks intersect, whatever
    their nominal start-bit spans.  The field must fit in the message.
    """
    mask = signal.max_raw << _shift(signal, length)
    if signal.byte_order is ByteOrder.BIG_ENDIAN:
        return _swap(mask, length)
    return mask


class FrameCodec:
    """One message's signal layouts compiled for whole-payload coding.

    :meth:`encode` and :meth:`decode` convert the payload to an integer
    once per frame instead of once per signal, and give byte for byte
    and bit for bit what the test suite's per-signal payload codec (its
    oracle) gives applied to every signal in turn.  Each field keeps its
    shift, mask and kind; the payload integer is little-endian, and a
    big-endian field is placed by byte-swapping its big-endian image,
    so messages that mix byte orders code as a per-signal codec does.
    The fields of a :class:`~repro.can.database.MessageDef` never share
    a payload bit.

    A frame can also be handled as its list of raw fields, in field
    order, without a payload: :meth:`deliver` gives what a decode of an
    encoded payload yields and, on request, the raw fields that payload
    carries; :meth:`values` is the raws-to-values half of
    :meth:`decode`.
    """

    def __init__(self, length: int, signals: Sequence[SignalDef]) -> None:
        self.length = length
        full = (1 << 8 * length) - 1
        self._has_big = False
        fields = []
        places = []
        for signal in signals:
            big = signal.byte_order is ByteOrder.BIG_ENDIAN
            self._has_big = self._has_big or big
            fields.append(
                (signal.name, signal.kind, signal.max_raw, signal.default_value())
            )
            places.append(
                (big, _shift(signal, length), full ^ payload_mask(signal, length))
            )
        self._fields = tuple(fields)
        self._places = tuple(places)

    def encode(self, values: Mapping[str, SignalValue]) -> bytes:
        """Pack ``values`` (defaults for missing signals) into a payload."""
        raws: List[int] = []
        self.deliver(values, raws)
        return self._pack(raws)

    def deliver(
        self, values: Mapping[str, SignalValue], raws: Optional[List[int]] = None
    ) -> Dict[str, SignalValue]:
        """What ``decode(encode(values))`` yields, without the payload.

        This is :meth:`encode`'s per-field conversion, with every
        :class:`CodecError` check it makes: each value becomes its raw
        field and the value a decode of that field yields.  ``raws``,
        when given, receives the raw fields that payload carries, in
        field order.
        """
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

    def values(self, raws: Sequence[int]) -> Dict[str, SignalValue]:
        """What :meth:`decode` yields for the payload carrying the raw
        fields ``raws`` (one per field, in field order).

        A raw outside its field raises :class:`CodecError`.
        """
        if len(raws) != len(self._fields):
            raise CodecError(
                "%d raw fields for a %d-field message"
                % (len(raws), len(self._fields))
            )
        # One pass with the range check: this runs for every frame a
        # tap rewrote.
        values: Dict[str, SignalValue] = {}
        for (name, kind, max_raw, _), raw in zip(self._fields, raws):
            if not 0 <= raw <= max_raw:
                raise _raw_too_wide(name, raw, max_raw)
            if kind is _FLOAT:
                values[name] = _unpack32(raw.to_bytes(4, "little"))[0]
            elif kind is _BOOL:
                values[name] = bool(raw & 1)
            else:
                values[name] = raw
        return values

    def decode(self, data: bytes) -> Dict[str, SignalValue]:
        """Unpack every signal from ``data`` (at least ``length`` bytes).

        A big-endian field's shift counts from the end of ``data``, so a
        longer payload decodes as the per-signal oracle decodes it.
        """
        return self.values(self._extract(data))

    def _pack(self, raws: Iterable[int]) -> bytes:
        """The payload carrying ``raws``, placed in field order."""
        whole = 0
        for (big, shift, keep), raw in zip(self._places, raws):
            placed = _swap(raw << shift, self.length) if big else raw << shift
            whole = (whole & keep) | placed
        return whole.to_bytes(self.length, "little")

    def _extract(self, data: bytes) -> List[int]:
        """The raw fields ``data`` carries, in field order."""
        whole = int.from_bytes(data, "little")
        if self._has_big:
            whole_big = int.from_bytes(data, "big")
            extra = 8 * (len(data) - self.length)
        raws: List[int] = []
        for (_, _, max_raw, _), (big, shift, _) in zip(self._fields, self._places):
            if big:
                raws.append((whole_big >> (shift + extra)) & max_raw)
            else:
                raws.append((whole >> shift) & max_raw)
        return raws


def _shift(signal: SignalDef, length: int) -> int:
    """Where ``signal``'s field starts in the payload integer of its own
    byte order, for a ``length``-byte payload."""
    if signal.byte_order is ByteOrder.BIG_ENDIAN:
        return 8 * length - signal.start_bit - signal.bit_length
    return signal.start_bit


def _swap(whole: int, length: int) -> int:
    """Reinterpret a big-endian ``length``-byte payload integer as
    little-endian."""
    return int.from_bytes(whole.to_bytes(length, "big"), "little")


def _pack_float(name: str, value: SignalValue) -> bytes:
    try:
        return _FLOAT32.pack(float(value))
    except (OverflowError, ValueError, TypeError) as exc:
        raise _not_float32(name, value) from exc


def _not_float32(name: str, value: SignalValue) -> CodecError:
    return CodecError("%s: cannot encode %r as float32" % (name, value))


def _raw_too_wide(name: str, raw: int, max_raw: int) -> CodecError:
    return CodecError(
        "%s: raw value %d does not fit in %d bits"
        % (name, raw, max_raw.bit_length())
    )


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
