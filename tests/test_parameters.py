"""One table of public numeric parameters, each fed the same bad values.

Every parameter belongs to one quantity of :mod:`repro.errors` (positive
seconds, non-negative seconds, a count, a TCP port, a threshold).  Each
is fed NaN, +inf, -inf, -1 and 0; the quantity decides which of them are
refused, and a refusal is a :class:`ParameterError` carrying the
quantity's one message.  The CLI half feeds the same texts to every
numeric option: a refusal exits 2 and carries the library's text.
"""

import argparse

import numpy as np
import pytest

from helpers import uniform_trace
from repro import cli
from repro.analysis import (
    analyze_automata,
    analyze_margins,
    analyze_margins_specs,
    audit_specs,
    build_context,
    lint_specs,
)
from repro.can.bus import JitterModel
from repro.can.database import MessageDef
from repro.can.fsracc import fsracc_database
from repro.core.monitor import Monitor, Rule
from repro.core.online import OnlineMonitor
from repro.errors import ParameterError
from repro.fleet.replay import assign_streams
from repro.fleet.service import FleetService
from repro.fleet.status import StatusServer
from repro.logs.trace import TraceView
from repro.rules.safety_rules import freshness_rule, paper_specset
from repro.testing.ballista import ballista_values
from repro.testing.bitflip import bitflip_offsets
from repro.testing.campaign import RobustnessCampaign
from repro.testing.parallel import resolve_jobs
from repro.testing.random_injection import random_values

TEXTS = ("nan", "inf", "-inf", "-1", "0")

#: Per quantity: the texts refused, and the message.  Library and CLI
#: alike get each text as the CLI parses it: ``-1`` and ``0`` as ints,
#: the rest as floats.
ALL = set(TEXTS)
ALL_BUT_ZERO = {"nan", "inf", "-inf", "-1"}
QUANTITIES = {
    "positive seconds": (ALL, "must be a positive number of seconds"),
    "non-negative seconds": (
        ALL_BUT_ZERO, "must be a finite number of seconds >= 0"
    ),
    "count": (ALL, "is a count and must be >= 1"),
    # --jobs: 0 means all cores, anything else is a count.
    "jobs": (ALL_BUT_ZERO, "is a count and must be >= 1"),
    "port": (ALL_BUT_ZERO, "must be a TCP port in 0-65535"),
    "threshold": ({"nan", "-inf", "-1"}, "must be >= 0"),
}

RULES = [Rule.from_text("r", "n", "x > 0")]
SPEED = [Rule.from_text("slow", "n", "Velocity < 500")]


def _trace():
    return uniform_trace({"x": [1.0, 2.0, 3.0]})


def _velocity():
    return fsracc_database().signal("Velocity")


#: (id, quantity, parameter name, call with the value).
LIBRARY = [
    ("Monitor.period", "positive seconds", "period",
     lambda v: Monitor(RULES, period=v)),
    ("OnlineMonitor.period", "positive seconds", "period",
     lambda v: OnlineMonitor(RULES, period=v)),
    ("TraceView.period", "positive seconds", "period",
     lambda v: TraceView(_trace(), v)),
    ("FleetService.period", "positive seconds", "period",
     lambda v: FleetService(RULES, period=v)),
    ("MessageDef.period", "positive seconds", "m: period",
     lambda v: MessageDef("m", 1, 8, v, ())),
    ("RobustnessCampaign.hold_time", "positive seconds", "hold_time",
     lambda v: RobustnessCampaign(rules=RULES, hold_time=v)),
    ("build_context.period", "positive seconds", "period",
     lambda v: build_context(period=v)),
    ("lint_specs.period", "positive seconds", "period",
     lambda v: lint_specs(paper_specset(), period=v)),
    ("audit_specs.period", "positive seconds", "period",
     lambda v: audit_specs(paper_specset(), period=v)),
    ("analyze_margins_specs.period", "positive seconds", "period",
     lambda v: analyze_margins_specs(paper_specset(), period=v)),
    ("analyze_automata.period", "positive seconds", "period",
     lambda v: analyze_automata(SPEED, period=v)),
    ("freshness_rule.max_age", "positive seconds", "max_age",
     lambda v: freshness_rule("TargetRange", v)),
    ("freshness_rule.period", "positive seconds", "period",
     lambda v: freshness_rule("TargetRange", 0.5, period=v)),
    ("OnlineMonitor.retention", "non-negative seconds", "retention",
     lambda v: OnlineMonitor(RULES, retention=v)),
    ("FleetService.retention", "non-negative seconds", "retention",
     lambda v: FleetService(RULES, retention=v)),
    ("RobustnessCampaign.gap_time", "non-negative seconds", "gap_time",
     lambda v: RobustnessCampaign(rules=RULES, gap_time=v)),
    ("RobustnessCampaign.settle_time", "non-negative seconds", "settle_time",
     lambda v: RobustnessCampaign(rules=RULES, settle_time=v)),
    ("JitterModel.max_jitter", "non-negative seconds", "max_jitter",
     lambda v: JitterModel(v)),
    ("OnlineMonitor.min_chunk_rows", "count", "min_chunk_rows",
     lambda v: OnlineMonitor(RULES, min_chunk_rows=v)),
    ("FleetService.min_chunk_rows", "count", "min_chunk_rows",
     lambda v: FleetService(RULES, min_chunk_rows=v)),
    ("FleetService.inbox_events", "count", "inbox_events",
     lambda v: FleetService(RULES, inbox_events=v)),
    ("FleetService.batch_events", "count", "batch_events",
     lambda v: FleetService(RULES, batch_events=v)),
    ("assign_streams.streams", "count", "streams",
     lambda v: assign_streams([_trace()], v)),
    ("analyze_automata.max_states", "count", "max_states",
     lambda v: analyze_automata(SPEED, max_states=v)),
    ("ballista_values.count", "count", "count",
     lambda v: ballista_values(_velocity(), v, np.random.default_rng(0))),
    ("random_values.count", "count", "count",
     lambda v: random_values(_velocity(), v, np.random.default_rng(0))),
    ("bitflip_offsets.n_bits", "count", "n_bits",
     lambda v: bitflip_offsets(_velocity(), v, np.random.default_rng(0))),
    ("resolve_jobs.jobs", "jobs", "jobs", resolve_jobs),
    ("StatusServer.port", "port", "port",
     lambda v: StatusServer(None, port=v)),
    ("Monitor.check.near_miss_threshold", "threshold", "near_miss_threshold",
     lambda v: Monitor(RULES).check(_trace(), near_miss_threshold=v)),
    ("OnlineMonitor.near_miss_threshold", "threshold", "near_miss_threshold",
     lambda v: OnlineMonitor(RULES, near_miss_threshold=v)),
    ("RobustnessCampaign.near_miss_threshold", "threshold",
     "near_miss_threshold",
     lambda v: RobustnessCampaign(rules=RULES, near_miss_threshold=v)),
    ("analyze_margins.threshold", "threshold", "threshold",
     lambda v: analyze_margins(SPEED, threshold=v)),
]
ENTRIES = {entry[0]: entry for entry in LIBRARY}


def _library_error(entry_id, text):
    """The ParameterError the library entry raises for ``text``, or None."""
    call = ENTRIES[entry_id][3]
    try:
        call(cli._number(text))
    except ParameterError as exc:
        return exc
    return None


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize("entry_id", sorted(ENTRIES))
def test_library_parameter(entry_id, text):
    _, quantity, name, _ = ENTRIES[entry_id]
    refused, requirement = QUANTITIES[quantity]
    error = _library_error(entry_id, text)
    if text not in refused:
        assert error is None
        return
    assert error is not None, "%s accepted %s" % (entry_id, text)
    assert str(error) == "%s %s, got %r" % (name, requirement, cli._number(text))


#: Positional arguments each command needs to parse.
POSITIONALS = {
    "simulate": ["steady_follow"],
    "check": ["t.csv"],
    "online": ["t.csv"],
    "fleet replay": ["logs"],
}

#: (command, option, the library entry behind it or, for a CLI-only
#: option, its quantity).
CLI = [
    ("simulate", "--duration", "positive seconds"),
    ("check", "--period", "Monitor.period"),
    ("check", "--near-miss-threshold", "Monitor.check.near_miss_threshold"),
    ("online", "--period", "OnlineMonitor.period"),
    ("fleet replay", "--streams", "assign_streams.streams"),
    ("fleet replay", "--period", "FleetService.period"),
    ("fleet replay", "--min-chunk-rows", "FleetService.min_chunk_rows"),
    ("fleet replay", "--retention", "FleetService.retention"),
    ("fleet replay", "--inbox", "FleetService.inbox_events"),
    ("fleet replay", "--status-port", "StatusServer.port"),
    ("lint", "--period", "lint_specs.period"),
    ("audit", "--period", "audit_specs.period"),
    ("margins", "--threshold", "analyze_margins.threshold"),
    ("margins", "--period", "analyze_margins_specs.period"),
    ("automata", "--period", "analyze_automata.period"),
    ("automata", "--max-states", "analyze_automata.max_states"),
    ("reproduce", "--jobs", "resolve_jobs.jobs"),
    ("table1", "--jobs", "resolve_jobs.jobs"),
    ("table1", "--hold", "RobustnessCampaign.hold_time"),
    ("table1", "--gap", "RobustnessCampaign.gap_time"),
    ("table1", "--settle", "RobustnessCampaign.settle_time"),
    ("table1", "--limit", "count"),
    ("table1", "--near-miss-threshold",
     "RobustnessCampaign.near_miss_threshold"),
]


def _expected_refusal(target, text):
    """The reason the CLI must print for ``text``, or None to accept it."""
    if target in ENTRIES:
        error = _library_error(target, text)
        return None if error is None else error.reason
    refused, requirement = QUANTITIES[target]
    if text not in refused:
        return None
    return "%s, got %r" % (requirement, cli._number(text))


@pytest.mark.parametrize("text", TEXTS)
@pytest.mark.parametrize(
    "command, option, target", CLI, ids=["%s %s" % row[:2] for row in CLI]
)
def test_cli_option(command, option, target, text, capsys):
    """Parsing alone decides: a refused value exits 2 with the library's
    text, an accepted one parses (nothing runs)."""
    argv = command.split() + POSITIONALS.get(command, []) + [
        "%s=%s" % (option, text)
    ]
    expected = _expected_refusal(target, text)
    parser = cli._build_parser()
    if expected is None:
        parser.parse_args(argv)
        return
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(argv)
    assert excinfo.value.code == 2
    assert "argument %s: %s" % (option, expected) in capsys.readouterr().err


def _checked_options(parser, command=()):
    """``(command, option)`` for every option typed by a shared check."""
    checked = {
        cli._seconds, cli._span, cli._count, cli._port, cli._threshold, cli._jobs
    }
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= _checked_options(sub, command + (name,))
        elif action.type in checked:
            found.add((" ".join(command), action.option_strings[-1]))
    return found


def test_table_covers_every_numeric_option():
    assert _checked_options(cli._build_parser()) == {row[:2] for row in CLI}
