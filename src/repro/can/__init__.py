"""CAN substrate: frames, signals, codec, message database, broadcast bus.

This package provides the observability layer the paper's monitor depends
on — a broadcast vehicle network that periodically carries system state.
Frames are coded by one codec, :class:`repro.can.codec.FrameCodec`,
compiled per message by the database; a database refuses a message
whose signals share a payload bit.
"""

from repro.can.bus import CanBus, JitterModel
from repro.can.codec import physical_to_raw, raw_to_physical
from repro.can.database import CanDatabase, MessageDef
from repro.can.dbcio import (
    dump_database,
    dumps_database,
    load_database,
    loads_database,
)
from repro.can.errors import (
    BusError,
    CanError,
    CodecError,
    DatabaseError,
    FrameError,
    SignalError,
)
from repro.can.frame import CanFrame, MAX_DLC, MAX_EXTENDED_ID, MAX_STANDARD_ID
from repro.can.fsracc import (
    FAST_PERIOD,
    FSRACC_INPUTS,
    FSRACC_OUTPUTS,
    HEADWAY_LABELS,
    HEADWAY_TIME_GAPS,
    SLOW_PERIOD,
    fsracc_database,
)
from repro.can.signal import ByteOrder, SignalDef, SignalType, SignalValue

__all__ = [
    "BusError",
    "ByteOrder",
    "CanBus",
    "CanDatabase",
    "CanError",
    "CanFrame",
    "CodecError",
    "DatabaseError",
    "FAST_PERIOD",
    "FSRACC_INPUTS",
    "FSRACC_OUTPUTS",
    "FrameError",
    "HEADWAY_LABELS",
    "HEADWAY_TIME_GAPS",
    "JitterModel",
    "MAX_DLC",
    "MAX_EXTENDED_ID",
    "MAX_STANDARD_ID",
    "MessageDef",
    "SLOW_PERIOD",
    "SignalDef",
    "SignalError",
    "SignalType",
    "SignalValue",
    "dump_database",
    "dumps_database",
    "fsracc_database",
    "load_database",
    "loads_database",
    "physical_to_raw",
    "raw_to_physical",
]
