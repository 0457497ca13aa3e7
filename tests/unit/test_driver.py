"""Unit tests for the serial simulation driver."""

import functools

import pytest

from repro.cli import build_parser
from repro.cluster import ClusterSpec, DirectoryCluster
from repro.net.failures import RandomFailures
from repro.sim import driver
from repro.sim.driver import (
    SimulationSpec,
    run_figure14_grid,
    run_figure15_sizes,
    run_simulation,
)
from repro.service.server import DirectoryService
from repro.shard.sharded import ShardedDirectory
from repro.sim.workload import OpMix
from tests.scope import assert_clean


def small_spec(**overrides):
    defaults = dict(config="3-2-2", directory_size=40, operations=400, seed=2)
    defaults.update(overrides)
    return SimulationSpec(**defaults)


class TestRunSimulation:
    def test_basic_run_shape(self):
        result = run_simulation(small_spec())
        assert result.op_counts.total == 400
        assert result.failed_operations == 0
        assert result.delete_stats.entries_coalesced.n > 0
        assert set(result.rep_entry_counts) == {"A", "B", "C"}
        assert result.elapsed_seconds > 0

    def test_measurement_starts_after_load(self):
        result = run_simulation(small_spec(operations=100))
        # Only measured ops counted; the 40 loading inserts are excluded.
        assert result.op_counts.total == 100
        # Loading traffic was reset away: rounds correspond to ~100 ops.
        assert result.traffic["rpc_rounds"] < 100 * 40

    def test_deterministic_given_seed(self):
        a = run_simulation(small_spec())
        b = run_simulation(small_spec())
        assert a.stats_table() == b.stats_table()
        assert a.final_size == b.final_size
        assert a.traffic["rpc_rounds"] == b.traffic["rpc_rounds"]

    def test_different_seeds_differ(self):
        a = run_simulation(small_spec(seed=3))
        b = run_simulation(small_spec(seed=4))
        assert a.traffic["rpc_rounds"] != b.traffic["rpc_rounds"]

    def test_custom_mix_respected(self):
        result = run_simulation(
            small_spec(mix=OpMix(insert=1, update=0, delete=0, lookup=0))
        )
        assert result.op_counts.inserts == 400
        assert result.op_counts.deletes == 0
        assert result.final_size == 40 + 400

    @pytest.mark.parametrize(
        "build,refusal",
        [
            *(
                pytest.param(
                    functools.partial(small_spec, **{option: 1}),
                    TypeError,
                    id=option,
                )
                for option in (
                    "keep_samples", "warmup_operations", "locking",
                    "reshard_hot_factor", "reshard_max_splits",
                    "hedge_extra",
                )
            ),
            pytest.param(
                lambda: ClusterSpec(locking=False),
                TypeError,
                id="ClusterSpec.locking",
            ),
            pytest.param(
                lambda: DirectoryService(None, pipeline_depth=4),
                TypeError,
                id="DirectoryService.pipeline_depth",
            ),
            pytest.param(
                lambda: build_parser().parse_args(
                    ["serve", "--pipeline-depth", "4"]
                ),
                SystemExit,
                id="serve--pipeline-depth",
            ),
            *(
                pytest.param(
                    functools.partial(
                        build_parser().parse_args, ["serve", flag, value]
                    ),
                    SystemExit,
                    id=f"serve{flag}",
                )
                for flag, value in (
                    ("--shard-map", "hash"), ("--store", "sorted"),
                )
            ),
        ],
    )
    def test_removed_options_are_refused(self, build, refusal):
        with pytest.raises(refusal):
            build()

    def test_a_lossy_audited_run_leaves_no_lock_or_transaction_behind(
        self, monkeypatch
    ):
        """CI's chaos settings: the driver's replicas take their range
        locks, and once the run has re-delivered every 2PC decision no
        lock table may hold a lock and no replica may remember a
        transaction."""
        built = []

        class Recording:
            @staticmethod
            def create(spec):
                built.append(DirectoryCluster.create(spec))
                return built[-1]

        monkeypatch.setattr(driver, "DirectoryCluster", Recording)
        result = run_simulation(
            small_spec(
                directory_size=100, operations=2000, seed=5,
                fanout="parallel", loss=0.05, retries=3, audit=True,
            )
        )
        assert result.audit_report.ok, result.audit_report.render()
        (cluster,) = built
        assert not cluster.suite.txn_manager.pending_completions
        assert_clean(cluster)
        acquired = sum(
            rep.locks.stats.acquisitions
            for rep in cluster.representatives.values()
        )
        assert acquired > 2000  # the locks were taken, not skipped

    def test_btree_store_runs(self):
        result = run_simulation(small_spec(store="btree"))
        assert result.op_counts.total == 400

    def test_failures_counted_not_raised(self):
        from repro.cluster import DirectoryCluster

        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=5))
        injector = RandomFailures(
            cluster.network, crash_prob=0.05, recover_prob=0.1
        )
        result = run_simulation(
            small_spec(seed=5), cluster=cluster, failure_stepper=injector
        )
        assert result.failed_operations > 0
        assert (
            result.op_counts.total == 400
        )  # every op attempted; some failed

    def test_workload_model_corrected_on_failure(self):
        # After a run with failures, recover everyone; the final
        # authoritative size must match the workload's belief.
        from repro.cluster import DirectoryCluster

        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=6))
        injector = RandomFailures(
            cluster.network, crash_prob=0.03, recover_prob=0.2
        )
        result = run_simulation(
            small_spec(seed=6), cluster=cluster, failure_stepper=injector
        )
        for node in cluster.network.nodes():
            node.recover()
        assert len(cluster.suite.authoritative_state()) == result.final_size


class TestGhostCensus:
    """``count_ghosts`` is the auditor's census — shard by shard on a
    sharded directory."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DirectoryCluster.create(ClusterSpec("3-2-2", seed=4)),
            lambda: ShardedDirectory.create(
                ClusterSpec("3-2-2", seed=4), shards=2, shard_map="hash"
            ),
        ],
        ids=["cluster", "sharded"],
    )
    def test_count_ghosts_is_the_auditors_census(self, build):
        with build() as cluster:
            for i in range(60):
                cluster.suite.insert(f"k{i:02d}", i)
            for i in range(0, 60, 2):
                cluster.suite.delete(f"k{i:02d}")
            ghosts = driver.count_ghosts(cluster)
            assert ghosts > 0
            assert ghosts == cluster.make_auditor().run().ghosts


class TestGrids:
    def test_figure14_grid_runs_each_config(self):
        results = run_figure14_grid(
            ["1-1-1", "3-2-2"], directory_size=20, operations=150, seed=1
        )
        assert set(results) == {"1-1-1", "3-2-2"}
        # Write-all 1-1-1 can have no ghosts at all.
        assert (
            results["1-1-1"].stats_table()["deletions_while_coalescing"]["avg"]
            == 0.0
        )

    def test_figure15_sizes(self):
        results = run_figure15_sizes(
            [20, 40], config="3-2-2", operations=150, seed=1
        )
        assert set(results) == {20, 40}
        for result in results.values():
            assert result.op_counts.total == 150
