"""On-disk trace format.

Traces are stored as plain CSV — one update per line — because that is
what vehicle logging tools (ControlDesk trace capture included) export and
what engineers can inspect by eye:

.. code-block:: text

    # repro-trace v1 name=highway-run-3
    time,signal,value
    0.020000,Velocity,27.500000
    0.020500,TargetRange,43.200000

Exceptional float values round-trip: NaN is written as ``nan`` and the
infinities as ``inf`` / ``-inf``, all of which Python's ``float`` parses.
Timestamps must be finite.

The body is read in blocks of whole lines, about 128 KiB of text each,
so the reader's memory stays flat however long the drive was (DESIGN
§20).  A *regular* block, whose every line holds exactly two commas, is
parsed column-wise: one split into fields, Python's own ``float`` over
the time and value columns, and one :meth:`~repro.logs.trace.Trace.extend`
— the trace's one block recorder, which checks order and appends one
bulk copy per signal.  A block holding a ``#`` or another line shape is
*irregular* and is read one line at a time: each line is stripped,
blank and comment lines are skipped.  A regular block holding a field
``float`` refuses is re-read one line at a time, and one holding an
update the trace refuses is re-read from that update on, so every
:class:`~repro.errors.TraceError` names the first bad line in file
order, in the words the per-line reader always used.  The
``repro.obs`` counters ``logs.read.blocks`` and
``logs.read.irregular_blocks`` count the two kinds.
"""

from __future__ import annotations

import io
import math
import os
from typing import Dict, Iterable, Optional, TextIO, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.logs.trace import Trace
from repro.obs import get_registry

#: Magic first-line prefix identifying a trace file.
HEADER_PREFIX = "# repro-trace v1"
_COLUMNS = "time,signal,value"

#: Characters of body text read per block (128 KiB).  Smaller blocks pay
#: the per-block numpy calls more often; the whole file at once would
#: make the reader's memory grow with the log.
_BLOCK_CHARS = 128 * 1024

#: Every byte but the two delimiters: deleting these from a block leaves
#: ``b",,\n"`` once per line exactly when the block is regular.
_NOT_DELIMITERS = bytes(b for b in range(256) if b not in b",\n")

PathOrFile = Union[str, "os.PathLike[str]", TextIO]


def write_trace(trace: Trace, destination: PathOrFile) -> None:
    """Write ``trace`` to a path or text file object."""
    if hasattr(destination, "write"):
        _write(trace, destination)  # type: ignore[arg-type]
        return
    with open(destination, "w", encoding="utf-8") as handle:
        _write(trace, handle)


def read_trace(source: PathOrFile) -> Trace:
    """Read a trace previously written by :func:`write_trace`."""
    if hasattr(source, "read"):
        return _read(source)  # type: ignore[arg-type]
    with open(source, "r", encoding="utf-8") as handle:
        return _read(handle)


def trace_to_string(trace: Trace) -> str:
    """Serialize a trace to the CSV text format."""
    buffer = io.StringIO()
    _write(trace, buffer)
    return buffer.getvalue()


def trace_from_string(text: str) -> Trace:
    """Parse a trace from the CSV text format."""
    return _read(io.StringIO(text))


def _write(trace: Trace, handle: TextIO) -> None:
    name = (" name=%s" % trace.name) if trace.name else ""
    handle.write("%s%s\n" % (HEADER_PREFIX, name))
    handle.write("%s\n" % _COLUMNS)
    times, signals, values = trace.event_columns()
    for timestamp, signal, value in zip(times.tolist(), signals, values.tolist()):
        handle.write("%.6f,%s,%r\n" % (timestamp, signal, value))


def _read_header(handle: TextIO) -> Trace:
    """Check the two header lines and return the empty, named trace."""
    header = handle.readline().rstrip("\n")
    if not header.startswith(HEADER_PREFIX):
        raise TraceError("not a repro trace file (bad header: %r)" % header)
    name = ""
    if "name=" in header:
        name = header.split("name=", 1)[1].strip()
    columns = handle.readline().rstrip("\n")
    if columns != _COLUMNS:
        raise TraceError("unexpected column header: %r" % columns)
    return Trace(name)


def _read_lines(trace: Trace, lines: Iterable[str], first_line: int) -> None:
    """Record body ``lines`` one at a time, numbered from ``first_line``:
    strip each line, skip blank and ``#`` lines, and raise on the first
    malformed line or per-signal step back in time."""
    for line_number, line in enumerate(lines, start=first_line):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceError(
                "line %d: expected 3 fields, got %d" % (line_number, len(parts))
            )
        try:
            timestamp = float(parts[0])
            value = float(parts[2])
        except ValueError as exc:
            raise TraceError("line %d: %s" % (line_number, exc)) from None
        if not math.isfinite(timestamp):
            raise TraceError(
                "line %d: non-finite timestamp %r" % (line_number, timestamp)
            )
        trace.record(parts[1], timestamp, value)


def _read(handle: TextIO) -> Trace:
    trace = _read_header(handle)
    registry = get_registry()
    blocks = registry.counter("logs.read.blocks")
    irregular = registry.counter("logs.read.irregular_blocks")
    codes: Dict[str, int] = {}
    line_number = 3
    carry = ""
    while True:
        chunk = handle.read(_BLOCK_CHARS)
        if not chunk:
            if not carry:
                return trace
            chunk = "\n"  # end the last line, which has no newline
        text = carry + chunk
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        if cut:
            block = text[:cut]
            blocks.inc()
            delimiters = _delimiters(block)
            lines = delimiters.count(b"\n")
            regular = "#" not in block and delimiters == b",,\n" * lines
            if not regular:
                irregular.inc()
            columns = _parse_columns(block, codes) if regular else None
            if columns is None:
                _read_lines(trace, block.split("\n")[:-1], line_number)
            else:
                try:
                    trace.extend(list(codes), *columns)
                except TraceError as exc:
                    # One line per update: re-read from the refused one,
                    # so the error is the per-line reader's.
                    good = exc.accepted
                    _read_lines(trace, block.split("\n")[good:-1], line_number + good)
            line_number += lines


def _delimiters(text: str) -> bytes:
    """The commas and newlines of ``text``, in order."""
    return text.encode("utf-8", "surrogatepass").translate(None, _NOT_DELIMITERS)


def _parse_columns(
    text: str, codes: Dict[str, int]
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Parse regular ``text`` — whole lines, each with exactly two commas
    — into the ``(codes, times, values)`` columns :meth:`Trace.extend`
    takes, or ``None`` when ``float`` refuses a field.

    ``codes`` numbers the signal names in order of first appearance and
    persists across blocks.
    """
    fields = text.replace("\n", ",").split(",")
    names = fields[1::3]
    n = len(names)
    try:
        times = np.fromiter(map(float, fields[0:-1:3]), np.float64, n)
        values = np.fromiter(map(float, fields[2::3]), np.float64, n)
    except ValueError:
        return None
    try:
        block_codes = np.fromiter(map(codes.__getitem__, names), np.intp, n)
    except KeyError:
        for name in names:
            codes.setdefault(name, len(codes))
        block_codes = np.fromiter(map(codes.__getitem__, names), np.intp, n)
    return block_codes, times, values
