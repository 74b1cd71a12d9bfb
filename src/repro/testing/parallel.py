"""Parallel Table I execution — fan injection tests out to processes.

The §IV campaign is 32 *independent* tests: each derives its RNG seed
from the campaign seed and its own row label (CRC32), builds a fresh
simulator, and is checked by a fresh monitor.  Nothing is shared between
tests, so the whole table can run on every core and still come out
bit-identical to a sequential run — the rows are reassembled in paper
order regardless of completion order.

Worker-side construction: the campaign configuration is pickled once
into each worker (pool initializer), and every test then builds its own
:class:`~repro.hil.simulator.HilSimulator` and
:class:`~repro.core.monitor.Monitor` inside the worker, exactly as the
sequential path does.  Only the finished
:class:`~repro.testing.results.TableRow` (letters, collision and
rejection counts) crosses back over the process boundary; full traces
and reports never do, which keeps the result payload small and is why
``keep_traces`` campaigns must run sequentially.

Observability: when the *submitting* process has a metrics registry
installed (see :mod:`repro.obs`), each worker runs its test under a
fresh private registry and pickles its snapshot back alongside the
:class:`~repro.testing.results.TableRow`.  The parent merges the
snapshots as rows complete; histogram merging is associative, so the
campaign-level totals are independent of completion order and equal to
a sequential run's counters.

Every parallel run records its boundary traffic when a registry is
installed: ``parallel.pickle_bytes.campaign`` is the one-time config
payload each worker unpickles, and ``parallel.pickle_bytes.results``
accumulates the per-test result payloads.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import count
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.testing.campaign import (
    InjectionTest,
    RobustnessCampaign,
    table1_tests,
)
from repro.testing.results import Table1, TableRow

#: Parallel progress callback: (finished test, its assembled row), in
#: completion order — NOT paper order.
ParallelProgress = Callable[[InjectionTest, TableRow], None]

#: What one worker sends back: the row, plus its registry snapshot when
#: the parent asked for metrics (``None`` otherwise).
WorkerResult = Tuple[TableRow, Optional[Dict[str, object]]]

#: Per-process campaign, installed by the pool initializer.
_WORKER_CAMPAIGN: Optional[RobustnessCampaign] = None

#: Whether this worker should collect metrics for each test.
_WORKER_COLLECT_METRICS = False


def _init_worker(payload: bytes, collect_metrics: bool = False) -> None:
    """Pool initializer: unpickle the campaign once per worker."""
    global _WORKER_CAMPAIGN, _WORKER_COLLECT_METRICS
    _WORKER_CAMPAIGN = pickle.loads(payload)
    _WORKER_COLLECT_METRICS = collect_metrics


def _run_one(test: InjectionTest) -> WorkerResult:
    """Run one test in the worker; return its (small) row and metrics."""
    if _WORKER_CAMPAIGN is None:
        raise RuntimeError("worker process was not initialized")
    if not _WORKER_COLLECT_METRICS:
        return _WORKER_CAMPAIGN.run_test(test).to_row(), None
    registry = MetricsRegistry()
    with use_registry(registry):
        row = _WORKER_CAMPAIGN.run_test(test).to_row()
    return row, registry.snapshot()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means every core,
    any other value is a count of worker processes."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    return count("jobs", jobs)


def _pickled_campaign(campaign: RobustnessCampaign) -> bytes:
    try:
        return pickle.dumps(campaign)
    except Exception as exc:
        raise ValueError(
            "campaign is not pickle-safe; custom rules, intent filters and "
            "checkers must be defined at module level to cross the process "
            "boundary (%s)" % exc
        ) from exc


def run_table1_parallel(
    campaign: RobustnessCampaign,
    tests: Optional[Sequence[InjectionTest]] = None,
    jobs: Optional[int] = None,
    progress: Optional[ParallelProgress] = None,
) -> Table1:
    """Run the Table I tests across ``jobs`` worker processes.

    Returns the same matrix as ``campaign.run_table1(tests)`` — rows in
    paper order, letters bit-identical — while ``progress`` fires from
    :func:`~concurrent.futures.as_completed` as each test finishes.
    """
    test_list = list(tests) if tests is not None else table1_tests()
    if campaign.keep_traces:
        raise ValueError(
            "keep_traces is not supported with parallel execution: traces "
            "are dropped when rows cross the process boundary; run with "
            "jobs=1 to retain traces"
        )
    workers = min(resolve_jobs(jobs), max(len(test_list), 1))
    if workers <= 1 or len(test_list) <= 1:
        adapted = None
        if progress is not None:
            adapted = lambda test, outcome: progress(test, outcome.to_row())
        return campaign.run_table1(tests=test_list, progress=adapted, jobs=1)

    # Collect per-worker metrics only when the caller is observing.
    parent_registry = get_registry()
    collect_metrics = parent_registry.enabled

    payload = _pickled_campaign(campaign)
    parent_registry.counter("parallel.pickle_bytes.campaign").inc(
        len(payload)
    )
    rows: List[Optional[TableRow]] = [None] * len(test_list)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(payload, collect_metrics),
    ) as pool:
        futures = {
            pool.submit(_run_one, test): index
            for index, test in enumerate(test_list)
        }
        for future in as_completed(futures):
            index = futures[future]
            row, snapshot = future.result()
            rows[index] = row
            if parent_registry.enabled:
                parent_registry.counter("parallel.pickle_bytes.results").inc(
                    len(pickle.dumps((row, snapshot)))
                )
            if snapshot is not None:
                parent_registry.merge_snapshot(snapshot)
            if progress is not None:
                progress(test_list[index], row)
    return Table1(rows=[row for row in rows if row is not None])

