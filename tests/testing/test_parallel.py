"""Parallel campaign execution.

The headline contract: for the same campaign seed, a parallel run must
produce a letter matrix byte-identical to the sequential run, with rows
in paper order regardless of completion order.  Short hold times keep
these runs fast; the full margins campaign on four workers is
byte-compared with its golden fixture by
``benchmarks/test_bench_robustness.py``, and campaign speed is measured
by the ``campaign`` workload of ``bench/run.py``.
"""

import pickle

import pytest

from repro.errors import ParameterError
from repro.obs import METRICS_SNAPSHOT, MetricsRegistry, use_registry
from repro.schema import validate
from repro.testing.campaign import RobustnessCampaign, single_signal_tests
from repro.testing.parallel import resolve_jobs, run_table1_parallel


def quick_campaign(**kwargs):
    defaults = dict(seed=11, hold_time=1.0, gap_time=0.25, settle_time=5.0)
    defaults.update(kwargs)
    return RobustnessCampaign(**defaults)


SUBSET = single_signal_tests()[:4]


class TestResolveJobs:
    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_all_cores(self):
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) == resolve_jobs(0)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError, match="jobs is a count and must be >= 1"):
            resolve_jobs(-1)


class TestCampaignIsPickleSafe:
    def test_campaign_roundtrips(self):
        campaign = quick_campaign()
        clone = pickle.loads(pickle.dumps(campaign))
        assert clone.seed == campaign.seed
        assert [r.rule_id for r in clone.rules] == [
            r.rule_id for r in campaign.rules
        ]

    def test_fresh_monitor_per_test(self):
        campaign = quick_campaign()
        assert campaign.make_monitor() is not campaign.make_monitor()
        assert not hasattr(campaign, "monitor")  # no shared mutable state


class TestParallelMatchesSequential:
    def test_letters_identical_and_in_paper_order(self):
        sequential = quick_campaign().run_table1(tests=SUBSET)
        parallel = quick_campaign().run_table1(tests=SUBSET, jobs=2)
        assert parallel.labels() == [t.label for t in SUBSET]
        assert parallel.format() == sequential.format()
        for seq_row, par_row in zip(sequential.rows, parallel.rows):
            assert par_row.letters == seq_row.letters
            assert par_row.collisions == seq_row.collisions
            assert par_row.rejections == seq_row.rejections

    def test_repeated_parallel_runs_identical(self):
        first = quick_campaign().run_table1(tests=SUBSET, jobs=2)
        second = quick_campaign().run_table1(tests=SUBSET, jobs=2)
        assert first.format() == second.format()

    def test_jobs_four_matches_jobs_one(self):
        sequential = quick_campaign().run_table1(tests=SUBSET, jobs=1)
        parallel = quick_campaign().run_table1(tests=SUBSET, jobs=4)
        assert parallel.format() == sequential.format()

    def test_progress_fires_for_every_test(self):
        seen = []
        run_table1_parallel(
            quick_campaign(),
            tests=SUBSET,
            jobs=2,
            progress=lambda test, row: seen.append((test.label, row.letters)),
        )
        assert sorted(label for label, _ in seen) == sorted(
            t.label for t in SUBSET
        )
        for _, letters in seen:
            assert set(letters.values()) <= {"S", "V"}


class TestMetricsAcrossWorkers:
    """Observability must not perturb the campaign, and worker-merged
    metric totals must equal a sequential run's."""

    def run_with_metrics(self, jobs):
        registry = MetricsRegistry()
        with use_registry(registry):
            table = quick_campaign().run_table1(tests=SUBSET, jobs=jobs)
        return table, registry

    def test_metrics_on_does_not_change_the_letters(self):
        plain = quick_campaign().run_table1(tests=SUBSET)
        metered, _ = self.run_with_metrics(jobs=1)
        assert metered.format() == plain.format()

    def test_jobs1_and_jobs4_counter_totals_match(self):
        seq_table, seq_registry = self.run_with_metrics(jobs=1)
        par_table, par_registry = self.run_with_metrics(jobs=4)
        assert par_table.format() == seq_table.format()
        seq_snapshot = seq_registry.snapshot()
        par_snapshot = par_registry.snapshot()
        assert validate(METRICS_SNAPSHOT, seq_snapshot) == []
        assert validate(METRICS_SNAPSHOT, par_snapshot) == []
        # Campaign counter sums are exactly mergeable-equal across
        # worker counts; the parallel run additionally reports its own
        # process-boundary traffic (``parallel.pickle_bytes.*``).
        def campaign_counters(snapshot):
            return {
                name: value
                for name, value in snapshot["counters"].items()
                if not name.startswith("parallel.")
            }

        assert campaign_counters(par_snapshot) == campaign_counters(
            seq_snapshot
        )
        assert par_snapshot["counters"]["parallel.pickle_bytes.campaign"] > 0
        assert par_snapshot["counters"]["parallel.pickle_bytes.results"] > 0
        assert "parallel.pickle_bytes.campaign" not in seq_snapshot["counters"]
        assert par_snapshot["counters"]["campaign.tests"] == len(SUBSET)
        # Histogram *timings* differ run to run, but the number of
        # observations per instrument is determined by the workload.
        seq_counts = {
            name: dump["count"]
            for name, dump in seq_snapshot["histograms"].items()
        }
        par_counts = {
            name: dump["count"]
            for name, dump in par_snapshot["histograms"].items()
        }
        assert par_counts == seq_counts
        assert par_counts["campaign.test.seconds"] == len(SUBSET)

    def test_worker_snapshot_merge_is_order_independent(self):
        """Merging per-worker snapshots is associative/commutative, so
        completion order cannot change the campaign-level report."""
        registries = []
        for test in SUBSET[:3]:
            registry = MetricsRegistry()
            with use_registry(registry):
                quick_campaign().run_test(test)
            registries.append(registry)
        snapshots = [registry.snapshot() for registry in registries]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for snapshot in snapshots:
            forward.merge_snapshot(snapshot)
        for snapshot in reversed(snapshots):
            backward.merge_snapshot(snapshot)
        fwd, bwd = forward.snapshot(), backward.snapshot()
        assert fwd["counters"] == bwd["counters"]
        assert set(fwd["histograms"]) == set(bwd["histograms"])
        for name, dump in fwd["histograms"].items():
            other = bwd["histograms"][name]
            # Bucket counts and extrema merge exactly; float sums only
            # up to addition reordering.
            assert dump["buckets"] == other["buckets"]
            assert dump["count"] == other["count"]
            assert dump["min"] == other["min"]
            assert dump["max"] == other["max"]
            assert dump["sum"] == pytest.approx(other["sum"])

    def test_metrics_off_means_workers_send_no_snapshots(self):
        table = run_table1_parallel(quick_campaign(), tests=SUBSET[:2], jobs=2)
        assert len(table.rows) == 2  # and no registry was needed anywhere


class TestParallelEdgeCases:
    def test_jobs_one_falls_back_to_sequential(self):
        seen = []
        table = run_table1_parallel(
            quick_campaign(),
            tests=SUBSET[:2],
            jobs=1,
            progress=lambda test, row: seen.append(row.letters),
        )
        assert len(table.rows) == 2
        assert len(seen) == 2

    def test_keep_traces_rejected(self):
        with pytest.raises(ValueError, match="keep_traces"):
            run_table1_parallel(
                quick_campaign(keep_traces=True), tests=SUBSET, jobs=2
            )

    def test_single_test_avoids_pool(self):
        table = run_table1_parallel(quick_campaign(), tests=SUBSET[:1], jobs=4)
        assert table.labels() == [SUBSET[0].label]
