"""The benchmark's traced runs wrap program functions by name.

``bench/spans.py`` looks each ``(owner, attribute)`` a workload's
``patches`` returns up in ``owner.__dict__``, so a refactor that moves
or deletes one of those functions stops every traced benchmark run
with a ``KeyError``.  This checks the targets in the tier-1 suite.  The
audit workload wraps functions it holds instead, so it has none.
"""

import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


@pytest.mark.parametrize("name", ["campaign", "check", "fleet"])
def test_every_traced_patch_target_is_defined_on_its_owner(name, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](ROOT, 2014, {})
    patches = workload.patches(Tracer())
    assert patches
    missing = [
        (owner.__name__, attribute)
        for owner, attribute, _, _ in patches
        if attribute not in vars(owner)
    ]
    assert missing == []
