#!/usr/bin/env python
"""repolint — AST-level determinism lint for ``src/repro``.

The whole reproduction rests on two invariants the test suite can only
probe indirectly, so this tiny linter enforces them statically (stdlib
``ast`` only, no third-party dependencies):

* **RL001 — unseeded global randomness.**  Calls through the module-level
  ``random`` module (``random.random()``, ``random.choice(...)``, ...)
  use the interpreter-global, wall-clock-seeded generator, which breaks
  run-to-run reproducibility of campaigns and fuzz harnesses.  The only
  allowed attribute is ``random.Random`` — constructing an explicitly
  seeded instance.  (numpy's ``default_rng(seed)`` is the idiom the
  codebase actually uses.)

* **RL002 — wall-clock reads in deterministic paths.**  ``time.time()``
  and ``datetime.now()/utcnow()/today()`` under ``core/`` or
  ``testing/`` would leak real time into monitor verdicts or campaign
  results.  Monotonic *duration* sources (``time.perf_counter``,
  ``time.monotonic``) stay legal everywhere — the observability layer
  measures wall time with them by design — and wall-clock reads outside
  the two deterministic subtrees (CLI banners, log headers) are fine.

* **RL003 — blocking calls in async code.**  ``time.sleep`` and
  synchronous ``socket``/``http``/``urllib``/``requests`` calls inside
  an ``async def`` under ``fleet/`` stall the event loop for every
  stream the service is multiplexing.  Use ``asyncio.sleep`` or push
  the blocking work into an executor.  Calls inside *sync* helpers
  nested in an async function are fine — they only block when invoked,
  which an executor does off-loop.

* **RL004 — ndarray/list round-trips in hot paths.**  ``.tolist()``
  and ``np.array(list(...))`` under ``core/`` or ``logs/`` bounce every
  element through a Python object, silently turning a vectorized pass
  into an O(n)-boxing one inside the resampling and rule-evaluation
  passes every check runs.  Keep data in ndarrays end to end; slice,
  stack, or ``astype`` instead.  The serialization module
  (``logs/format.py``), whose *job* is converting arrays to and from
  the on-disk trace format, is allowlisted.

* **RL005 — layering: analysis must not import the harness.**  A
  module-level ``import repro.testing`` / ``import repro.fleet`` (or
  any ``from`` variant) under ``analysis/`` makes the static layer
  depend on the dynamic one at import time, so ``import
  repro.analysis`` would drag in the campaign harness and the fleet
  service — and one cycle later the harness cannot import its own
  auditor.  Imports *inside* function bodies stay legal: that is the
  sanctioned lazy pattern ``audit.py`` uses to reach the planned-test
  catalog only when a caller actually passes tests.

Usage::

    python tools/repolint.py [root ...]

Defaults to ``src/repro`` relative to the repository root.  Prints one
``file:line: CODE message`` per finding and exits 1 if any were found,
0 otherwise — the CI lint job runs it next to speclint's own checks.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, NamedTuple, Tuple

#: Attributes of the ``random`` module that do not touch the global RNG.
ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})

#: Wall-clock calls banned in deterministic subtrees: (module, attr).
WALL_CLOCK_CALLS = (
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
)

#: Path fragments whose files must stay wall-clock free.
DETERMINISTIC_SUBTREES = (
    os.sep + "core" + os.sep,
    os.sep + "testing" + os.sep,
)

#: Path fragments whose ``async def`` bodies must not block the loop.
ASYNC_SUBTREES = (os.sep + "fleet" + os.sep,)

#: ``(module, attr)`` calls that block inside an ``async def``.
BLOCKING_CALLS = (("time", "sleep"),)

#: Modules whose *every* call is synchronous I/O (socket construction,
#: HTTP requests, address resolution, ...) and blocks the event loop.
BLOCKING_MODULES = frozenset({"socket", "http", "urllib", "requests"})

#: Path fragments whose files must keep data in ndarrays (RL004).
HOT_PATH_SUBTREES = (
    os.sep + "core" + os.sep,
    os.sep + "logs" + os.sep,
)

#: Hot-path files whose job *is* array<->interchange conversion, where
#: ``.tolist()`` is the point, not an accident.
SERIALIZATION_ALLOWLIST = (
    os.sep + "logs" + os.sep + "format.py",
)

#: Path fragments forming the static-analysis layer (RL005).
ANALYSIS_SUBTREES = (os.sep + "analysis" + os.sep,)

#: Packages the analysis layer must not import at module level.
UPPER_LAYERS = ("repro.testing", "repro.fleet")


class Finding(NamedTuple):
    path: str
    line: int
    code: str
    message: str

    def format(self) -> str:
        return "%s:%d: %s %s" % (self.path, self.line, self.code, self.message)


def _call_target(node: ast.Call) -> Tuple[str, str]:
    """``(base, attr)`` for ``base.attr(...)`` calls, else ``("", "")``.

    Handles one extra attribute hop so ``datetime.datetime.now()``
    resolves to ``("datetime", "now")``.
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return ("", "")
    value = func.value
    if isinstance(value, ast.Name):
        return (value.id, func.attr)
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        return (value.value.id, func.attr)
    return ("", "")


def _blocking_in_async(tree: ast.AST) -> Iterator[Tuple[int, str, str]]:
    """``(line, base, attr)`` for blocking calls lexically inside an
    ``async def`` body (nested sync ``def``s reset the flag — they only
    block when called, which an executor does off-loop)."""

    def visit(node: ast.AST, in_async: bool) -> Iterator[Tuple[int, str, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AsyncFunctionDef):
                child_async = True
            elif isinstance(child, ast.FunctionDef):
                child_async = False
            else:
                child_async = in_async
            if child_async and isinstance(child, ast.Call):
                base, attr = _call_target(child)
                if (base, attr) in BLOCKING_CALLS or base in BLOCKING_MODULES:
                    yield (child.lineno, base, attr)
            yield from visit(child, child_async)

    yield from visit(tree, False)


def _import_targets(node: ast.AST) -> List[str]:
    """Every dotted module path an import statement may bind.

    ``from repro import testing`` names ``repro.testing`` only through
    its alias list, so aliases are joined onto the ``from`` module.
    """
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        targets = [module] if module else []
        targets.extend(
            "%s.%s" % (module, alias.name) if module else alias.name
            for alias in node.names
        )
        return targets
    return []


def _import_time_imports(tree: ast.AST) -> Iterator[Tuple[int, List[str]]]:
    """``(line, targets)`` for imports executed at import time — module
    or class body, but *not* inside a ``def`` (lazy function-level
    imports are the sanctioned way across layer boundaries)."""

    def visit(node: ast.AST) -> Iterator[Tuple[int, List[str]]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield (child.lineno, _import_targets(child))
            yield from visit(child)

    yield from visit(tree)


def _is_list_roundtrip(node: ast.Call) -> bool:
    """True for ``np.array(list(...))`` / ``numpy.array(list(...))``."""
    base, attr = _call_target(node)
    if (base, attr) not in (("np", "array"), ("numpy", "array")):
        return False
    if not node.args:
        return False
    head = node.args[0]
    return (
        isinstance(head, ast.Call)
        and isinstance(head.func, ast.Name)
        and head.func.id == "list"
    )


def _check_file(path: str, source: str) -> Iterator[Finding]:
    tree = ast.parse(source, filename=path)
    deterministic = any(part in path for part in DETERMINISTIC_SUBTREES)
    hot_path = any(part in path for part in HOT_PATH_SUBTREES) and not any(
        part in path for part in SERIALIZATION_ALLOWLIST
    )
    if any(part in path for part in ANALYSIS_SUBTREES):
        for line, targets in _import_time_imports(tree):
            for layer in UPPER_LAYERS:
                if any(
                    name == layer or name.startswith(layer + ".")
                    for name in targets
                ):
                    yield Finding(
                        path,
                        line,
                        "RL005",
                        "module-level import of %s couples the static "
                        "analysis layer to the harness at import time; "
                        "move the import into the function that needs "
                        "it" % layer,
                    )
                    break
    if any(part in path for part in ASYNC_SUBTREES):
        for line, base, attr in _blocking_in_async(tree):
            yield Finding(
                path,
                line,
                "RL003",
                "%s.%s() blocks the event loop inside an async def; "
                "use asyncio.sleep or run the blocking work in an "
                "executor" % (base, attr),
            )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        base, attr = _call_target(node)
        if base == "random" and attr not in ALLOWED_RANDOM_ATTRS:
            yield Finding(
                path,
                node.lineno,
                "RL001",
                "call to random.%s uses the global wall-clock-seeded "
                "RNG; construct a seeded random.Random or "
                "numpy default_rng instead" % attr,
            )
        if deterministic and (base, attr) in WALL_CLOCK_CALLS:
            yield Finding(
                path,
                node.lineno,
                "RL002",
                "%s.%s() reads the wall clock inside a deterministic "
                "subtree; use an injected timestamp or "
                "time.perf_counter for durations" % (base, attr),
            )
        if hot_path:
            if isinstance(node.func, ast.Attribute) and (
                node.func.attr == "tolist" and not node.args
            ):
                yield Finding(
                    path,
                    node.lineno,
                    "RL004",
                    ".tolist() boxes every element into a Python object "
                    "in a hot path; keep the data in an ndarray "
                    "(slice/stack/astype) or move the conversion into a "
                    "serialization module",
                )
            elif _is_list_roundtrip(node):
                yield Finding(
                    path,
                    node.lineno,
                    "RL004",
                    "np.array(list(...)) round-trips through a Python "
                    "list in a hot path; use np.asarray / np.fromiter "
                    "or keep the source an ndarray",
                )


def lint_paths(roots: List[str]) -> List[Finding]:
    """All findings under ``roots``, in path then line order."""
    findings: List[Finding] = []
    for root in roots:
        if os.path.isfile(root):
            files = [root]
        else:
            files = sorted(
                os.path.join(dirpath, name)
                for dirpath, _, names in os.walk(root)
                for name in names
                if name.endswith(".py")
            )
        for path in files:
            with open(path, "r", encoding="utf-8") as handle:
                findings.extend(
                    sorted(
                        _check_file(path, handle.read()),
                        key=lambda f: (f.line, f.code),
                    )
                )
    return findings


def main(argv: List[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    default_root = os.path.join(os.path.dirname(here), "src", "repro")
    roots = argv or [default_root]
    findings = lint_paths(roots)
    for finding in findings:
        print(finding.format())
    if findings:
        print("repolint: %d finding(s)" % len(findings))
        return 1
    print("repolint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
