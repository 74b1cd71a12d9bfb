"""Orchestration — lint rules, machines, spec sets, and ``.rules`` files.

The entry points mirror how specifications exist in the system:

* :func:`lint_rules` — in-memory :class:`~repro.core.monitor.Rule` and
  :class:`~repro.core.statemachine.StateMachine` objects (what strict
  :class:`~repro.core.monitor.Monitor` construction calls);
* :func:`lint_specs` — a loaded :class:`~repro.core.specfile.SpecSet`,
  attaching ``file:line`` origins recorded by the loader;
* :func:`lint_file` — a ``.rules`` path (what ``repro lint`` calls).

All of them return :class:`~repro.analysis.diagnostics.Diagnostic` lists
sorted most-severe-first.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.checks import (
    RULE_CHECKS,
    LintContext,
    check_machine,
    check_spec_set,
)
from repro.analysis.diagnostics import Diagnostic, sort_diagnostics
from repro.analysis.intervals import Interval
from repro.core.monitor import DEFAULT_PERIOD
from repro.core.statemachine import StateMachine
from repro.errors import positive_seconds


def database_env(database) -> Dict[str, Interval]:
    """Physical value ranges per signal, derived from the CAN database.

    Each interval is :meth:`~repro.can.signal.SignalDef.physical_range`,
    with missing sides left unbounded.
    """
    env: Dict[str, Interval] = {}
    for message in database.messages():
        for signal in message.signals:
            lo, hi = signal.physical_range()
            env[signal.name] = Interval(
                -math.inf if lo is None else lo,
                math.inf if hi is None else hi,
            )
    return env


def build_context(
    database=None,
    machines: Sequence[StateMachine] = (),
    period: float = DEFAULT_PERIOD,
) -> LintContext:
    """A :class:`LintContext` over a database and machine set."""
    return LintContext(
        database=database,
        machines={machine.name: machine for machine in machines},
        period=positive_seconds("period", period),
        env=database_env(database) if database is not None else {},
    )


def lint_rules(
    rules: Iterable,
    machines: Sequence[StateMachine] = (),
    database=None,
    period: float = DEFAULT_PERIOD,
) -> List[Diagnostic]:
    """Run every check over in-memory rules and machines."""
    rules = list(rules)
    machines = list(machines)
    ctx = build_context(database=database, machines=machines, period=period)
    diagnostics: List[Diagnostic] = []
    for rule in rules:
        subject = "rule %s" % rule.rule_id
        for check in RULE_CHECKS:
            diagnostics.extend(check(rule, subject, ctx))
    for machine in machines:
        diagnostics.extend(check_machine(machine, ctx))
    diagnostics.extend(check_spec_set(rules, machines, ctx))
    return sort_diagnostics(diagnostics)


def lint_specs(
    specs,
    database=None,
    period: float = DEFAULT_PERIOD,
) -> List[Diagnostic]:
    """Lint a loaded :class:`~repro.core.specfile.SpecSet`.

    When the spec set carries origins (``.rules`` loads record the file
    and section-header line of every rule and machine), diagnostics are
    stamped with them so they print ``file:line``.
    """
    diagnostics = lint_rules(
        specs.rules,
        machines=specs.machines,
        database=database,
        period=period,
    )
    origins = getattr(specs, "origins", None)
    if not origins:
        return diagnostics
    located: List[Diagnostic] = []
    for diagnostic in diagnostics:
        origin = origins.get(diagnostic.subject.replace(" ", ":", 1))
        if origin is not None:
            diagnostic = diagnostic.with_origin(origin.source, origin.line)
        located.append(diagnostic)
    return located


def lint_file(
    path: str,
    database=None,
    period: float = DEFAULT_PERIOD,
) -> List[Diagnostic]:
    """Load and lint one ``.rules`` file."""
    from repro.core.specfile import load_specs

    return lint_specs(load_specs(path), database=database, period=period)
