"""The declarative shape checker and the six report shapes.

The mutation sweep builds one small valid document per format with the
real builders, then replaces every node in turn with each of a set of
hostile values (and also deletes it): :func:`validate` must always
answer with a list of strings and never raise.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    AUDIT_REPORT,
    AUTOMATA_REPORT,
    LINT_REPORT,
    MARGINS_REPORT,
    analyze_automata_specs,
    analyze_margins_specs,
    audit_specs,
    build_audit_report,
    build_automata_report,
    build_margins_report,
    build_report,
    lint_specs,
    paper_plan,
)
from repro.core.monitor import Rule
from repro.fleet import FLEET_ROLLUP, StreamShard, fleet_rollup
from repro.obs import METRICS_SNAPSHOT, MetricsRegistry
from repro.rules.safety_rules import paper_specset
from repro.schema import (
    absent_ok,
    count,
    obj,
    require_valid,
    string,
    validate,
)

TARGET = "paper rules (strict)"

#: What each node is replaced with, in turn; the node is also deleted.
HOSTILE = (None, [], {}, -1, True, "x", 1.5, "inf", [1], {"a": 1}, 0)

DELETE = object()


def _json(doc):
    return json.loads(json.dumps(doc))


def _margins_doc():
    doc = build_margins_report(
        analyze_margins_specs(
            paper_specset(False), plan=paper_plan(), target=TARGET
        )
    )
    doc["cells"], doc["seeds"] = doc["cells"][:3], doc["seeds"][:3]
    doc["summary"]["cells"] = doc["summary"]["seeds"] = 3
    return _json(doc)


def _metrics_doc():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(2.5)
    registry.histogram("h").observe(1.0)
    return _json(registry.snapshot())


def _fleet_doc():
    shard = StreamShard(
        "v1",
        [
            Rule.from_text("pos", "f", "x > 0"),
            Rule.from_text("alw", "f", "always[0, 60ms] x > -5"),
        ],
        min_chunk_rows=10,
        robustness=True,
        observability=True,
    )
    for i in range(100):
        shard.feed(i * 0.02, "x", 1.0)
    shard.finish()
    return _json(fleet_rollup([shard]))


@pytest.fixture(scope="module")
def documents(database):
    specs = paper_specset(False)
    return {
        "lint": (
            LINT_REPORT,
            _json(
                build_report([(TARGET, lint_specs(specs, database=database))])
            ),
        ),
        "audit": (
            AUDIT_REPORT,
            _json(
                build_audit_report(
                    [audit_specs(specs, plan=paper_plan(), target=TARGET)]
                )
            ),
        ),
        "margins": (MARGINS_REPORT, _margins_doc()),
        "automata": (
            AUTOMATA_REPORT,
            _json(
                build_automata_report(
                    analyze_automata_specs(specs, target=TARGET)
                )
            ),
        ),
        "metrics": (METRICS_SNAPSHOT, _metrics_doc()),
        "fleet": (FLEET_ROLLUP, _fleet_doc()),
    }


def node_paths(node, prefix=()):
    yield prefix
    children = (
        node.items()
        if isinstance(node, dict)
        else enumerate(node)
        if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def mutated(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced (or deleted)."""
    if not path:
        return value
    copy = _json(doc)
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


def at(doc, *path):
    for key in path:
        doc = doc[key]
    return doc


FORMATS = ("lint", "audit", "margins", "automata", "metrics", "fleet")


class TestMutationSweep:
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_built_document_is_valid(self, documents, fmt):
        shape, doc = documents[fmt]
        assert validate(shape, doc) == []
        assert require_valid(shape, doc) is doc

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_validate_never_raises(self, documents, fmt):
        shape, doc = documents[fmt]
        checked = 0
        for path in list(node_paths(doc)):
            for value in HOSTILE + ((DELETE,) if path else ()):
                problems = validate(shape, mutated(doc, path, value))
                assert isinstance(problems, list), path
                assert all(isinstance(p, str) for p in problems), path
                checked += 1
        assert checked > 100


class TestFormerCrashes:
    """Inputs on which the hand-written validators raised ``TypeError``."""

    @pytest.mark.parametrize("severity", [[], {}, ["error"], {"a": 1}])
    def test_unhashable_lint_severity_is_rejected(self, documents, severity):
        shape, doc = documents["lint"]
        bad = _json(doc)
        bad["targets"][0]["diagnostics"][0]["severity"] = severity
        assert any("severity" in p for p in validate(shape, bad))

    @pytest.mark.parametrize("severity", [[], {}, ["error"], {"a": 1}])
    def test_unhashable_audit_severity_is_rejected(self, documents, severity):
        shape, doc = documents["audit"]
        bad = _json(doc)
        section = next(s for s in bad["targets"][0]["sections"].values() if s)
        section[0]["severity"] = severity
        assert any("severity" in p for p in validate(shape, bad))

    @pytest.mark.parametrize("entry", ["rules", "cells", "seeds"])
    @pytest.mark.parametrize("bound", ["lower", "upper"])
    def test_missing_or_null_margin_bound_is_rejected(
        self, documents, entry, bound
    ):
        shape, doc = documents["margins"]
        for value in (None, DELETE):
            bad = mutated(doc, (entry, 0, bound), value)
            assert any(bound in p for p in validate(shape, bad))
        both = _json(doc)
        both[entry][0]["lower"] = both[entry][0]["upper"] = None
        assert validate(shape, both)


class TestNaNRejected:
    """``json.loads`` accepts ``NaN``; no range-checked number may."""

    @pytest.mark.parametrize(
        "fmt, path",
        [
            ("margins", ("period",)),
            ("margins", ("threshold",)),
            ("automata", ("period",)),
            ("fleet", ("streams", "v1", "decision_latency")),
        ],
    )
    def test_nan_is_rejected(self, documents, fmt, path):
        shape, doc = documents[fmt]
        bad = json.loads(
            json.dumps(mutated(doc, path, float("nan")))
        )
        assert at(bad, *path) != at(bad, *path)
        assert any(path[-1] in p for p in validate(shape, bad))


class TestMarginsReport:
    def test_inverted_bounds_rejected(self, documents):
        shape, doc = documents["margins"]
        bad = _json(doc)
        bad["cells"][0]["lower"], bad["cells"][0]["upper"] = 2.0, 1.0
        assert any("inverted" in p for p in validate(shape, bad))

    def test_seed_out_of_order_rejected(self, documents):
        shape, doc = documents["margins"]
        bad = _json(doc)
        bad["seeds"][0]["rank"], bad["seeds"][1]["rank"] = 2, 1
        assert any("ranked 1..n" in p for p in validate(shape, bad))

    def test_summary_cells_mismatch_rejected(self, documents):
        shape, doc = documents["margins"]
        bad = _json(doc)
        bad["summary"]["cells"] = 4
        assert any("summary declares" in p for p in validate(shape, bad))

    def test_negative_threshold_rejected(self, documents):
        shape, doc = documents["margins"]
        bad = mutated(doc, ("threshold",), -0.5)
        assert any("threshold" in p for p in validate(shape, bad))

    def test_string_provably_safe_rejected(self, documents):
        shape, doc = documents["margins"]
        bad = mutated(doc, ("rules", 0, "provably_safe"), "yes")
        assert any("provably_safe" in p for p in validate(shape, bad))

    def test_huge_integer_bound_is_compared_exactly(self, documents):
        shape, doc = documents["margins"]
        huge = _json(doc)
        huge["cells"][0]["lower"], huge["cells"][0]["upper"] = 10**400, "inf"
        assert validate(shape, huge) == []
        huge["cells"][0]["upper"] = 10**400 - 1
        assert any("inverted" in p for p in validate(shape, huge))

    def test_infinite_bounds_accepted(self, documents):
        shape, doc = documents["margins"]
        good = _json(doc)
        for entry in good["rules"] + good["cells"] + good["seeds"]:
            entry["lower"], entry["upper"] = "-inf", "inf"
        assert validate(shape, good) == []


class TestChecker:
    def test_missing_member_is_judged_like_null(self):
        shape = obj({"a": count})
        assert validate(shape, {}) == validate(shape, {"a": None})
        assert validate(shape, {}) == [
            "a: must be a non-negative integer, got None"
        ]

    def test_absent_ok_member_may_be_missing_but_not_null(self):
        shape = obj({"a": absent_ok(count)})
        assert validate(shape, {}) == []
        assert validate(shape, {"a": None})

    def test_closed_object_rejects_unknown_keys(self):
        assert validate(obj({"a": string}, closed=True), {"a": "", "b": 1}) == [
            "unknown key 'b'"
        ]
        assert validate(obj({"a": string}), {"a": "", "b": 1}) == []

    def test_rules_run_only_on_well_formed_objects(self):
        seen = []

        def rule(doc):
            seen.append(doc)
            return [] if doc["a"] > 0 else ["a must be positive"]

        shape = obj({"a": count}, rule)
        assert validate(shape, {"a": "x"}) and seen == []
        assert validate(shape, {"a": 0}) == ["a must be positive"]
        assert validate(shape, {"a": 1}) == []

    def test_require_valid_names_the_format(self):
        with pytest.raises(ValueError, match="invalid fleet rollup: schema"):
            require_valid(FLEET_ROLLUP, {"schema": "nope"})
