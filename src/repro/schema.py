"""One declarative shape checker for the repo's JSON report formats.

Every machine-readable report — lint, audit, margins, automata, the
metrics snapshot and the fleet rollup — is described once, as a data
literal built from the shapes below and kept beside the code that
builds the document.  :func:`validate` walks a document against its
shape and lists every problem as ``"<path>: <what is wrong>"``; it never
raises, whatever the input.  :func:`require_valid` raises ``ValueError``
instead; the CLI write paths and the CI steps call it.

An :func:`obj` reads its members with ``.get``, so a missing key is
judged like ``null`` unless the member is wrapped in :func:`absent_ok`.
Its cross-field rules (functions from the object to a list of messages)
run only once every member is well-formed, so a rule may index freely.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, NamedTuple, Optional

#: A cross-field rule: the messages for one well-formed object.
Rule = Callable[[Dict[str, Any]], List[str]]


class Shape(NamedTuple):
    """What a JSON value must look like: ``check(value, path)`` lists
    the problems and ``name`` says what was expected."""

    check: Callable[[Any, str], List[str]]
    name: str
    optional: bool = False  # an :func:`obj` member that may be absent


def _at(path: str, message: str) -> str:
    return "%s: %s" % (path, message) if path else message


def _member(path: str, key: object) -> str:
    return "%s.%s" % (path, key) if path else str(key)


def leaf(test: Callable[[Any], bool], name: str) -> Shape:
    """A value for which ``test`` holds (``test`` must never raise)."""

    def check(value: Any, path: str) -> List[str]:
        if test(value):
            return []
        return [_at(path, "must be %s, got %r" % (name, value))]

    return Shape(check, name)


def _int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _num(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


string = leaf(lambda v: isinstance(v, str), "a string")
boolean = leaf(lambda v: isinstance(v, bool), "a boolean")
integer = leaf(_int, "an integer")
number = leaf(_num, "a number")
count = leaf(lambda v: _int(v) and v >= 0, "a non-negative integer")
positive_int = leaf(lambda v: _int(v) and v >= 1, "a positive integer")
# NaN fails every comparison, so the range-checked numbers reject it.
positive = leaf(lambda v: _num(v) and v > 0, "a positive number")
non_negative = leaf(lambda v: _num(v) and v >= 0, "a non-negative number")
fraction = leaf(lambda v: _num(v) and 0 <= v <= 1, "a number in [0, 1]")
#: A bound as ``repro.core.robustness.float_to_json`` writes it.
margin_bound = leaf(
    lambda v: v in ("inf", "-inf") or (_num(v) and v == v),
    'a number, "inf" or "-inf"',
)


def const(expected: object) -> Shape:
    return leaf(lambda v: v == expected, repr(expected))


def one_of(*choices: object) -> Shape:
    return leaf(
        lambda v: v in choices, "one of %s" % "/".join(map(str, choices))
    )


def prefixed(*prefixes: str) -> Shape:
    return leaf(
        lambda v: isinstance(v, str) and v.startswith(prefixes),
        "a %s code" % "/".join(prefixes),
    )


def nullable(shape: Shape) -> Shape:
    return Shape(
        lambda v, path: [] if v is None else shape.check(v, path),
        "%s or null" % shape.name,
    )


def absent_ok(shape: Shape) -> Shape:
    """An :func:`obj` member that may be missing (but not ``null``)."""
    return shape._replace(optional=True)


def _not_object(value: Any, path: str) -> List[str]:
    return [_at(path, "must be an object, got %r" % (value,))]


def array(item: Shape) -> Shape:
    def check(value: Any, path: str) -> List[str]:
        if not isinstance(value, list):
            return [_at(path, "must be an array, got %r" % (value,))]
        return [
            problem
            for index, element in enumerate(value)
            for problem in item.check(element, "%s[%d]" % (path, index))
        ]

    return Shape(check, "an array of %s" % item.name)


def mapping(value: Shape, key: Optional[Shape] = None) -> Shape:
    """An object with arbitrary keys (each ``key``) and ``value`` members."""

    def check(doc: Any, path: str) -> List[str]:
        if not isinstance(doc, dict):
            return _not_object(doc, path)
        problems: List[str] = []
        for name, member in doc.items():
            where = _member(path, name)
            if key is not None:
                problems += key.check(name, where)
            problems += value.check(member, where)
        return problems

    return Shape(check, "an object of %s" % value.name)


def obj(
    fields: Dict[str, Shape],
    *rules: Rule,
    closed: bool = False,
    name: str = "an object",
) -> Shape:
    """An object with the named members; ``closed`` forbids any other."""

    def check(doc: Any, path: str) -> List[str]:
        if not isinstance(doc, dict):
            return _not_object(doc, path)
        problems = [
            problem
            for key, shape in fields.items()
            if not (shape.optional and key not in doc)
            for problem in shape.check(doc.get(key), _member(path, key))
        ]
        if closed:
            problems += [
                _at(path, "unknown key %r" % (key,))
                for key in doc
                if key not in fields
            ]
        if problems:
            return problems
        return [_at(path, message) for rule in rules for message in rule(doc)]

    return Shape(check, name)


def when(
    pred: Callable[[Dict[str, Any]], bool], then: Shape, otherwise: Shape
) -> Shape:
    """``then`` for an object where ``pred`` holds, else ``otherwise``
    (``pred`` only ever sees objects)."""
    return Shape(
        lambda v, path: (
            then if isinstance(v, dict) and pred(v) else otherwise
        ).check(v, path),
        then.name,
    )


_INFINITIES = {"inf": math.inf, "-inf": -math.inf}


def bounds_ordered(entry: Dict[str, Any]) -> List[str]:
    """Rule: the :data:`margin_bound` members ``lower <= upper``."""
    lower, upper = (
        _INFINITIES.get(entry[key], entry[key]) for key in ("lower", "upper")
    )
    if lower <= upper:
        return []
    return ["bounds are inverted: [%s, %s]" % (entry["lower"], entry["upper"])]


def partitions(whole: str, *parts: str) -> Rule:
    """Rule: the string-array members ``parts`` together cover ``whole``."""

    def rule(doc: Dict[str, Any]) -> List[str]:
        covered = set().union(*(doc[part] for part in parts))
        if covered == set(doc[whole]):
            return []
        return ["%s sets do not partition %r" % ("/".join(parts), whole)]

    return rule


def validate(shape: Shape, doc: object) -> List[str]:
    """All the ways ``doc`` fails ``shape``; empty when it conforms."""
    return shape.check(doc, "")


def require_valid(shape: Shape, doc: Any) -> Any:
    """Return ``doc`` if it conforms to ``shape``; raise ``ValueError``."""
    problems = validate(shape, doc)
    if problems:
        raise ValueError("invalid %s: %s" % (shape.name, "; ".join(problems)))
    return doc
