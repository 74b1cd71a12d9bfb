"""Textual message-database format (a minimal DBC analogue).

Real vehicle projects exchange their network definition as a DBC file;
this module provides the same capability for :class:`CanDatabase` in a
small line-oriented format:

.. code-block:: text

    # repro-candb v1
    message VehicleMotion 0x100 length 8 period 20ms sender chassis
      signal Velocity float @0 unit m/s range -10..120
    message AccSettings 0x120 length 8 period 80ms sender body
      signal ACCSetSpeed float @0 unit m/s range 0..60
      signal SelHeadway enum @32 width 3 range 1..3 values 1=SHORT 2=MEDIUM 3=LONG

Floats are always 32-bit IEEE-754 (the library's wire format for float
signals), so ``width`` is only written for enums; booleans are 1 bit.

A database written by :func:`dumps_database` reloads equal to it in
every message and signal field except the comments, which the format
does not keep.  Range bounds are written with ``repr``, and so is a
period (in seconds) whose ``%g`` milliseconds would not reload
exactly.  What the format cannot hold, a big-endian signal (every
signal reloads little-endian) or a range with only one bound, is
refused with :class:`DatabaseError` before anything is written.
"""

from __future__ import annotations

import io
import re
from typing import Dict, List, Optional, TextIO, Union

from repro.can.database import CanDatabase, MessageDef
from repro.can.errors import DatabaseError
from repro.can.signal import ByteOrder, SignalDef, SignalType

PathOrFile = Union[str, TextIO]

HEADER = "# repro-candb v1"

_MESSAGE_RE = re.compile(
    r"^message\s+(?P<name>\w+)\s+(?P<id>0x[0-9A-Fa-f]+|\d+)"
    r"\s+length\s+(?P<length>\d+)"
    r"\s+period\s+(?P<period>[\d.]+(?:e[-+]?\d+)?)(?P<unit>ms|s)"
    r"(?:\s+sender\s+(?P<sender>\w+))?$"
)
_SIGNAL_RE = re.compile(
    r"^signal\s+(?P<name>\w+)\s+(?P<kind>float|bool|enum)\s+@(?P<start>\d+)"
    r"(?:\s+width\s+(?P<width>\d+))?"
    r"(?:\s+unit\s+(?P<unit>\S+))?"
    r"(?:\s+range\s+(?P<min>\S+?)\.\.(?P<max>\S+))?"
    r"(?:\s+values\s+(?P<values>.+))?$"
)


def dump_database(database: CanDatabase, destination: PathOrFile) -> None:
    """Write a database to a path or file object."""
    if hasattr(destination, "write"):
        _write(database, destination)  # type: ignore[arg-type]
        return
    with open(destination, "w", encoding="utf-8") as handle:
        _write(database, handle)


def dumps_database(database: CanDatabase) -> str:
    """Serialize a database to text."""
    buffer = io.StringIO()
    _write(database, buffer)
    return buffer.getvalue()


def load_database(source: PathOrFile) -> CanDatabase:
    """Read a database from a path or file object."""
    if hasattr(source, "read"):
        return _parse(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as handle:
        return _parse(handle)


def loads_database(text: str) -> CanDatabase:
    """Parse a database from text."""
    return _parse(io.StringIO(text))


# ----------------------------------------------------------------------


def _write(database: CanDatabase, handle: TextIO) -> None:
    for signal in database.signals():
        _check_writable(signal)
    handle.write(HEADER + "\n")
    for message in database.messages():
        period_text = "%gms" % (message.period * 1000)
        if float(period_text[:-2]) / 1000.0 != message.period:
            period_text = "%rs" % message.period
        sender = (" sender %s" % message.sender) if message.sender else ""
        handle.write(
            "message %s 0x%X length %d period %s%s\n"
            % (message.name, message.can_id, message.length, period_text, sender)
        )
        for signal in sorted(message.signals, key=lambda s: s.start_bit):
            parts = [
                "  signal %s %s @%d"
                % (signal.name, signal.kind.value, signal.start_bit)
            ]
            if signal.kind is SignalType.ENUM:
                parts.append("width %d" % signal.bit_length)
            if signal.unit:
                parts.append("unit %s" % signal.unit)
            if signal.minimum is not None:
                parts.append(
                    "range %r..%r" % (float(signal.minimum), float(signal.maximum))
                )
            if signal.enum_labels:
                labels = " ".join(
                    "%d=%s" % (value, label)
                    for value, label in sorted(signal.enum_labels.items())
                )
                parts.append("values %s" % labels)
            handle.write(" ".join(parts) + "\n")


def _check_writable(signal: SignalDef) -> None:
    """Refuse a signal the format would reload as a different one."""
    if signal.byte_order is not ByteOrder.LITTLE_ENDIAN:
        raise DatabaseError(
            "%s: a big-endian signal cannot be written (the format is "
            "little-endian only)" % signal.name
        )
    if (signal.minimum is None) != (signal.maximum is None):
        raise DatabaseError(
            "%s: a range with one bound cannot be written" % signal.name
        )


def _parse(handle: TextIO) -> CanDatabase:
    header = handle.readline().rstrip("\n")
    if header != HEADER:
        raise DatabaseError("not a repro-candb file (header %r)" % header)
    database = CanDatabase()
    current_name: Optional[str] = None
    current_fields: Dict[str, object] = {}
    current_signals: List[SignalDef] = []

    def flush() -> None:
        if current_name is None:
            return
        database.add_message(
            MessageDef(
                name=current_name,
                can_id=current_fields["can_id"],  # type: ignore[arg-type]
                length=current_fields["length"],  # type: ignore[arg-type]
                period=current_fields["period"],  # type: ignore[arg-type]
                signals=tuple(current_signals),
                sender=current_fields["sender"],  # type: ignore[arg-type]
            )
        )

    for line_number, raw in enumerate(handle, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("message "):
            flush()
            match = _MESSAGE_RE.match(line)
            if not match:
                raise DatabaseError(
                    "line %d: bad message line %r" % (line_number, line)
                )
            period = float(match.group("period"))
            if match.group("unit") == "ms":
                period /= 1000.0
            current_name = match.group("name")
            current_fields = {
                "can_id": int(match.group("id"), 0),
                "length": int(match.group("length")),
                "period": period,
                "sender": match.group("sender") or "",
            }
            current_signals = []
        elif line.startswith("signal "):
            if current_name is None:
                raise DatabaseError(
                    "line %d: signal before any message" % line_number
                )
            current_signals.append(_parse_signal(line, line_number))
        else:
            raise DatabaseError(
                "line %d: unrecognized line %r" % (line_number, line)
            )
    flush()
    return database


def _parse_signal(line: str, line_number: int) -> SignalDef:
    match = _SIGNAL_RE.match(line)
    if not match:
        raise DatabaseError("line %d: bad signal line %r" % (line_number, line))
    kind = SignalType(match.group("kind"))
    if kind is SignalType.FLOAT:
        width = 32
    elif kind is SignalType.BOOL:
        width = 1
    else:
        if match.group("width") is None:
            raise DatabaseError(
                "line %d: enum signals need an explicit width" % line_number
            )
        width = int(match.group("width"))
    labels: Dict[int, str] = {}
    if match.group("values"):
        for pair in match.group("values").split():
            value_text, _, label = pair.partition("=")
            try:
                labels[int(value_text)] = label
            except ValueError:
                raise DatabaseError(
                    "line %d: bad enum value %r" % (line_number, pair)
                ) from None
    bounds = [_bound(match.group(end), line_number) for end in ("min", "max")]
    return SignalDef(
        name=match.group("name"),
        start_bit=int(match.group("start")),
        bit_length=width,
        kind=kind,
        byte_order=ByteOrder.LITTLE_ENDIAN,
        unit=match.group("unit") or "",
        minimum=bounds[0],
        maximum=bounds[1],
        enum_labels=labels,
    )


def _bound(text: Optional[str], line_number: int) -> Optional[float]:
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        raise DatabaseError(
            "line %d: bad range bound %r" % (line_number, text)
        ) from None
