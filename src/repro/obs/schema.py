"""The metrics snapshot JSON format — documentation and validation.

A snapshot is one JSON object::

    {
      "schema": "repro.obs/v1",
      "counters":   {"<name>": <int>, ...},
      "gauges":     {"<name>": {"value": <number>, "updates": <int>}, ...},
      "histograms": {"<name>": {"count": <int>, "sum": <number>,
                                "min": <number>, "max": <number>,
                                "buckets": {"<bucket index>": <int>, ...}},
                     ...}
    }

Histogram buckets are log-scale (see :mod:`repro.obs.metrics`); bucket
keys are stringified integer indices because JSON object keys must be
strings.  Merging two snapshots adds counters, merges histograms
bucket-wise, and keeps the last gauge value — see
:meth:`repro.obs.MetricsRegistry.merge_snapshot`.

Validation here is hand-rolled (the repo is zero-dependency beyond
numpy): :func:`validate_snapshot` returns a list of problems, empty
when the document conforms, and :func:`require_valid_snapshot` raises
on the first problem — the CI smoke step calls the latter.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.metrics import SCHEMA_VERSION


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_snapshot(snapshot: object) -> List[str]:
    """All the ways ``snapshot`` fails to be a valid metrics dump.

    Returns an empty list when the document conforms to the
    ``repro.obs/v1`` format described in the module docstring.
    """
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return ["snapshot must be a JSON object, got %s" % type(snapshot).__name__]
    if snapshot.get("schema") != SCHEMA_VERSION:
        problems.append(
            "schema must be %r, got %r" % (SCHEMA_VERSION, snapshot.get("schema"))
        )
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            problems.append("missing or non-object section %r" % section)
    if problems:
        return problems

    for name, value in snapshot["counters"].items():
        if not _is_count(value):
            problems.append(
                "counter %r must be a non-negative integer, got %r" % (name, value)
            )
    for name, dump in snapshot["gauges"].items():
        if not isinstance(dump, dict):
            problems.append("gauge %r must be an object" % name)
            continue
        if not _is_number(dump.get("value")):
            problems.append("gauge %r needs a numeric 'value'" % name)
        if not _is_count(dump.get("updates")):
            problems.append("gauge %r needs an integer 'updates'" % name)
    for name, dump in snapshot["histograms"].items():
        problems.extend(_validate_histogram(name, dump))
    return problems


def _validate_histogram(name: str, dump: object) -> List[str]:
    problems: List[str] = []
    if not isinstance(dump, dict):
        return ["histogram %r must be an object" % name]
    if not _is_count(dump.get("count")):
        problems.append("histogram %r needs an integer 'count'" % name)
    for key in ("sum", "min", "max"):
        if not _is_number(dump.get(key)):
            problems.append("histogram %r needs a numeric %r" % (name, key))
    buckets = dump.get("buckets")
    if not isinstance(buckets, dict):
        return problems + ["histogram %r needs a 'buckets' object" % name]
    total = 0
    for index, count in buckets.items():
        try:
            int(index)
        except (TypeError, ValueError):
            problems.append(
                "histogram %r bucket key %r is not an integer index" % (name, index)
            )
        if not _is_count(count):
            problems.append(
                "histogram %r bucket %r count must be a non-negative integer"
                % (name, index)
            )
        else:
            total += count
    if _is_count(dump.get("count")) and total != dump["count"]:
        problems.append(
            "histogram %r bucket counts sum to %d but 'count' is %d"
            % (name, total, dump["count"])
        )
    return problems


def require_valid_snapshot(snapshot: object) -> Dict[str, object]:
    """Validate and return ``snapshot``; raise ``ValueError`` otherwise."""
    problems = validate_snapshot(snapshot)
    if problems:
        raise ValueError(
            "invalid metrics snapshot: %s" % "; ".join(problems)
        )
    return snapshot  # type: ignore[return-value]

