"""The lint and audit report JSON formats — documentation and validation.

``repro lint --format json`` emits one report object::

    {
      "schema": "repro.lint/v1",
      "targets": [
        {"name": "<paper rules | file path>",
         "diagnostics": [{"code": "SL101", "severity": "error",
                          "subject": "rule rule2", "message": "...",
                          "suggestion": "", "file": null,
                          "line": null, "column": null}, ...],
         "counts": {"error": 0, "warning": 1, "info": 2}},
        ...
      ],
      "counts": {"error": 0, "warning": 1, "info": 2}
    }

``repro audit --format json`` emits the companion ``repro.audit/v1``
object: the same target/counts envelope, but each target carries its
diagnostics split into the three analysis-family ``sections``
(``rules``/``coverage``/``plan``) plus an integer ``summary`` block::

    {
      "schema": "repro.audit/v1",
      "targets": [
        {"name": "paper rules (strict)",
         "sections": {"rules": [...], "coverage": [...], "plan": [...]},
         "summary": {"rules": 7, "signals": 17, "monitored_signals": 13,
                     "tests": 32, "dead_tests": 0, "prunable_cells": 0,
                     "machines": 0},
         "counts": {"error": 0, "warning": 6, "info": 9}},
        ...
      ],
      "counts": {"error": 0, "warning": 6, "info": 9}
    }

Each format is also a shape literal (:data:`LINT_REPORT`,
:data:`AUDIT_REPORT`, :data:`MARGINS_REPORT`, :data:`AUTOMATA_REPORT`)
for :func:`repro.schema.validate` / :func:`repro.schema.require_valid`;
the CI ``lint-specs``, ``audit``, ``margins`` and ``automata`` jobs call
the latter on the reports they produce.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    count_by_severity,
)
from repro.schema import (
    Rule,
    Shape,
    absent_ok,
    array,
    boolean,
    bounds_ordered,
    const,
    count,
    integer,
    mapping,
    margin_bound,
    non_negative,
    nullable,
    obj,
    one_of,
    partitions,
    positive,
    positive_int,
    prefixed,
    string,
    when,
)

#: Identifier of the report format this module reads and writes.
SCHEMA_VERSION = "repro.lint/v1"

#: Identifier of the cross-artifact audit report format.
AUDIT_SCHEMA_VERSION = "repro.audit/v1"

#: Identifier of the static margin-prover report format.
MARGINS_SCHEMA_VERSION = "repro.margins/v1"

#: Identifier of the symbolic-automata report format.
AUTOMATA_SCHEMA_VERSION = "repro.automata/v1"

#: Section keys of an audit target, in order (one per analysis family).
AUDIT_SECTIONS = ("rules", "coverage", "plan")

_SEVERITIES = tuple(severity.value for severity in Severity)


def build_report(
    targets: Sequence[Tuple[str, Sequence[Diagnostic]]]
) -> Dict[str, object]:
    """Assemble the JSON report for ``(target name, diagnostics)`` pairs."""
    target_dumps = []
    totals = {severity: 0 for severity in _SEVERITIES}
    for name, diagnostics in targets:
        counts = count_by_severity(diagnostics)
        for severity, count in counts.items():
            totals[severity] += count
        target_dumps.append(
            {
                "name": name,
                "diagnostics": [d.to_dict() for d in diagnostics],
                "counts": counts,
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "targets": target_dumps,
        "counts": totals,
    }


def _tally_matches(diagnostics: Callable[[Dict[str, Any]], Iterable]) -> Rule:
    """Rule: a target's ``counts`` are the severity tally of the
    diagnostics it lists."""

    def rule(target: Dict[str, Any]) -> List[str]:
        seen = Counter(d["severity"] for d in diagnostics(target))
        return [
            "declares %d %s findings but lists %d"
            % (target["counts"][severity], severity, seen[severity])
            for severity in _SEVERITIES
            if target["counts"][severity] != seen[severity]
        ]

    return rule


def _totals_match(report: Dict[str, Any]) -> List[str]:
    """Rule: the report's ``counts`` are the sum over its targets."""
    problems = []
    for severity in _SEVERITIES:
        total = sum(target["counts"][severity] for target in report["targets"])
        if report["counts"][severity] != total:
            problems.append(
                "declares %d %s findings but targets sum to %d"
                % (report["counts"][severity], severity, total)
            )
    return problems


def _findings_report(
    version: str,
    name: str,
    target: Dict[str, Shape],
    diagnostics: Callable[[Dict[str, Any]], Iterable],
) -> Shape:
    """The lint/audit envelope around per-target ``target`` members."""
    counts = obj(dict.fromkeys(_SEVERITIES, count))
    return obj(
        {
            "schema": const(version),
            "targets": array(
                obj(
                    {"name": string, **target, "counts": counts},
                    _tally_matches(diagnostics),
                )
            ),
            "counts": counts,
        },
        _totals_match,
        name=name,
    )


def _diagnostic(prefix: str) -> Shape:
    return obj(
        {
            "code": prefixed(prefix),
            "severity": one_of(*_SEVERITIES),
            "subject": string,
            "message": string,
            "suggestion": string,
            "file": nullable(string),
            "line": nullable(integer),
            "column": nullable(integer),
        }
    )


LINT_REPORT = _findings_report(
    SCHEMA_VERSION,
    "lint report",
    {"diagnostics": array(_diagnostic("SL"))},
    lambda target: target["diagnostics"],
)


# ----------------------------------------------------------------------
# The audit report format (repro.audit/v1)
# ----------------------------------------------------------------------


def build_audit_report(reports: Sequence) -> Dict[str, object]:
    """Assemble the JSON report for :class:`~repro.analysis.audit.
    AuditReport` objects (anything exposing ``to_dict()`` works)."""
    target_dumps = []
    totals = {severity: 0 for severity in _SEVERITIES}
    for report in reports:
        dump = report.to_dict()
        for severity, count in dump["counts"].items():
            totals[severity] += count
        target_dumps.append(dump)
    return {
        "schema": AUDIT_SCHEMA_VERSION,
        "targets": target_dumps,
        "counts": totals,
    }


AUDIT_REPORT = _findings_report(
    AUDIT_SCHEMA_VERSION,
    "audit report",
    {
        "sections": obj(
            dict.fromkeys(AUDIT_SECTIONS, absent_ok(array(_diagnostic("AU")))),
            closed=True,
        ),
        "summary": mapping(count),
    },
    lambda target: (
        d for section in target["sections"].values() for d in section
    ),
)


# ----------------------------------------------------------------------
# The margin-prover report format (repro.margins/v1)
# ----------------------------------------------------------------------
#
# ``repro margins --format json`` (and ``--seeds-out``) emit one report
# object: the single analysis target flattened into the envelope, with
# every bound serialized through ``repro.core.robustness.float_to_json``
# (infinities become the strings "inf" / "-inf"; NaN is illegal).


def build_margins_report(report) -> Dict[str, object]:
    """Assemble the JSON report for one :class:`~repro.analysis.margins.
    MarginReport` (anything exposing ``to_dict()`` works)."""
    dump = dict(report.to_dict())
    dump["schema"] = MARGINS_SCHEMA_VERSION
    return dump


def _summary_matches(
    tally: Callable[[Dict[str, Any]], Dict[str, int]]
) -> Rule:
    """Rule: the report's ``summary`` equals what it lists."""

    def rule(report: Dict[str, Any]) -> List[str]:
        summary = report["summary"]
        return [
            "summary declares %r %s but the report lists %d"
            % (summary.get(key), key, listed)
            for key, listed in tally(report).items()
            if summary.get(key) != listed
        ]

    return rule


def _ranked_in_order(report: Dict[str, Any]) -> List[str]:
    """Rule: seeds are ranked 1..n in order."""
    return [
        "seeds[%d] declares rank %r (seeds must be ranked 1..n in order)"
        % (rank - 1, seed.get("rank"))
        for rank, seed in enumerate(report["seeds"], start=1)
        if seed.get("rank") != rank
    ]


_BOUNDS = {"lower": margin_bound, "upper": margin_bound}

MARGINS_REPORT = obj(
    {
        "schema": const(MARGINS_SCHEMA_VERSION),
        "name": string,
        "period": positive,
        "threshold": non_negative,
        "rules": array(
            obj(
                {"rule": string, "provably_safe": boolean, **_BOUNDS},
                bounds_ordered,
            )
        ),
        "cells": array(
            obj(
                {
                    "test": string,
                    "kind": string,
                    "rule": string,
                    "targets": array(string),
                    "prunable": boolean,
                    "doomed": boolean,
                    **_BOUNDS,
                },
                bounds_ordered,
            )
        ),
        "seeds": array(
            obj({"test": string, "rule": string, **_BOUNDS}, bounds_ordered)
        ),
        "summary": mapping(count),
    },
    _ranked_in_order,
    _summary_matches(
        lambda report: {
            key: len(report[key]) for key in ("rules", "cells", "seeds")
        }
    ),
    name="margins report",
)


# ----------------------------------------------------------------------
# The symbolic-automata report format (repro.automata/v1)
# ----------------------------------------------------------------------
#
# ``repro automata --format json`` emits one report object — the single
# analysis target flattened into the envelope like ``repro.margins/v1``.
# ``status`` is "ok" | "unsupported" | "budget"; every certificate field
# ("class" through "observability") is null for a non-"ok" entry.

_AUTOMATA_STATUSES = ("ok", "unsupported", "budget")
_AUTOMATA_CLASSES = ("bounded", "safety", "co-safety", "neither")
_TRI_STATE = ("yes", "no", "unknown")
_AUTOMATA_SUMMARY_KEYS = (
    "rules", "bounded", "safety", "co-safety", "neither", "unsupported",
)


def build_automata_report(report) -> Dict[str, object]:
    """Assemble the JSON report for one :class:`~repro.analysis.automata.
    AutomataReport` (anything exposing ``to_dict()`` works)."""
    dump = dict(report.to_dict())
    dump["schema"] = AUTOMATA_SCHEMA_VERSION
    return dump


def _automata_tally(report: Dict[str, Any]) -> Dict[str, int]:
    tally = dict.fromkeys(_AUTOMATA_SUMMARY_KEYS, 0)
    tally["rules"] = len(report["rules"])
    for entry in report["rules"]:
        ok = entry["status"] == "ok"
        tally[entry["class"] if ok else "unsupported"] += 1
    return tally


_RULE_AUTOMATON = {
    "rule": string,
    "name": string,
    "reason": string,
    "status": one_of(*_AUTOMATA_STATUSES),
    "horizon_rows": nullable(count),
    "monitor_horizon_rows": nullable(count),
    "satisfiable": one_of(*_TRI_STATE),
    "falsifiable": one_of(*_TRI_STATE),
    "atoms": array(string),
}

AUTOMATA_REPORT = obj(
    {
        "schema": const(AUTOMATA_SCHEMA_VERSION),
        "name": string,
        "period": positive,
        "rules": array(
            when(
                lambda entry: entry.get("status") == "ok",
                obj(
                    {
                        **_RULE_AUTOMATON,
                        "class": one_of(*_AUTOMATA_CLASSES),
                        "safety": boolean,
                        "co_safety": boolean,
                        "states": positive_int,
                        "letters": positive_int,
                        "observability": obj(
                            {
                                "referenced": array(string),
                                "required": array(string),
                                "droppable": array(string),
                            },
                            partitions("referenced", "required", "droppable"),
                        ),
                    }
                ),
                obj(
                    {
                        **_RULE_AUTOMATON,
                        "class": const(None),
                        "observability": const(None),
                    }
                ),
            )
        ),
        "summary": mapping(count),
    },
    _summary_matches(_automata_tally),
    name="automata report",
)
