"""Traces, on-disk log format, and synthetic vehicle logs."""

from repro.logs.format import (
    HEADER_PREFIX,
    read_trace,
    trace_from_string,
    trace_to_string,
    write_trace,
)
from repro.logs.trace import (
    StreamTrace,
    Trace,
    TraceEvent,
    TraceView,
)
from repro.logs.vehicle_logs import (
    RANGE_NOISE_STD,
    REL_VEL_NOISE_STD,
    VELOCITY_NOISE_STD,
    as_vehicle_scenario,
    generate_drive_logs,
    generate_vehicle_log,
    representative_scenarios,
)

__all__ = [
    "HEADER_PREFIX",
    "RANGE_NOISE_STD",
    "REL_VEL_NOISE_STD",
    "StreamTrace",
    "Trace",
    "TraceEvent",
    "TraceView",
    "VELOCITY_NOISE_STD",
    "as_vehicle_scenario",
    "generate_drive_logs",
    "generate_vehicle_log",
    "read_trace",
    "representative_scenarios",
    "trace_from_string",
    "trace_to_string",
    "write_trace",
]
