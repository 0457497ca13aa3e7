"""Property: a sharded directory matches the client model, always.

For any seed, shard count, shard map, and (lossy) network, routing ops
across N independent replica suites must be observationally identical to
a single correct directory: every lookup answers what the model says,
every write lands exactly once, and the merged authoritative state diffs
clean at the end.  The driver's model oracle checks all three, so
``model_mismatches == 0`` is the whole property; the audited variant
additionally proves every per-shard replica invariant held at commit
boundaries.

The last property referees :meth:`ShardedDirectory.execute_wave`: random
waves of every batch verb over float keys, one grouped transaction per
shard, must answer op for op what an unsharded sequential twin answers
through the classic path, leave the same merged directory and nothing
held on any replica, and cost exactly their slowest shard group.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import BATCH_KINDS, BatchOp
from repro.shard import ShardedDirectory
from repro.sim.driver import SimulationSpec, run_simulation
from repro.sim.workload import OpMix
from tests.scope import assert_clean, assert_same_outcomes

CHURNY = OpMix(insert=2, update=2, delete=2, lookup=2)


def _spec(seed, shards, shard_map, workload, loss=0.0, retries=0, **extra):
    return SimulationSpec(
        config="3-2-2",
        directory_size=25,
        operations=120,
        seed=seed,
        mix=CHURNY,
        shards=shards,
        shard_map=shard_map,
        workload=workload,
        loss=loss,
        retries=retries,
        verify_model=True,
        **extra,
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.sampled_from([1, 3, 8]),
    shard_map=st.sampled_from(["range", "hash"]),
    workload=st.sampled_from(["uniform", "skewed"]),
)
def test_sharded_matches_model_clean_network(seed, shards, shard_map, workload):
    result = run_simulation(_spec(seed, shards, shard_map, workload))
    assert result.model_mismatches == 0
    assert result.failed_operations == 0


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shards=st.sampled_from([1, 3, 8]),
    shard_map=st.sampled_from(["range", "hash"]),
    loss=st.floats(min_value=0.01, max_value=0.05),
)
def test_sharded_matches_model_under_loss(seed, shards, shard_map, loss):
    # 5% per-message loss with bounded retries: operations may *fail*
    # (availability), but no client-visible answer may ever be wrong and
    # no write may land twice — on any shard.
    result = run_simulation(
        _spec(seed, shards, shard_map, "uniform", loss=loss, retries=4)
    )
    assert result.model_mismatches == 0


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shard_map=st.sampled_from(["range", "hash"]),
)
def test_sharded_audit_holds_at_commit_boundaries(seed, shard_map):
    result = run_simulation(
        _spec(
            seed,
            shards=3,
            shard_map=shard_map,
            workload="uniform",
            audit=True,
            audit_interval=40,
        )
    )
    assert result.model_mismatches == 0
    assert result.audit_report is not None
    assert result.audit_report.ok


wave_ops = st.builds(
    BatchOp,
    st.sampled_from(BATCH_KINDS),
    st.integers(min_value=0, max_value=15).map(lambda i: i / 16),
    st.integers(min_value=0, max_value=99),
)


def _timed(suite, spans):
    """Record every ``execute_batch`` group's (start, finish) instants."""
    run, clock = suite.execute_batch, suite.network.clock

    def execute_batch(ops):
        start = clock.now()
        outcomes = run(ops)
        spans.append((start, clock.now()))
        return outcomes

    suite.execute_batch = execute_batch


@settings(deadline=None)
@given(
    waves=st.lists(
        st.lists(wave_ops, min_size=1, max_size=12), min_size=1, max_size=6
    ),
    shards=st.sampled_from([1, 3, 8]),
    shard_map=st.sampled_from(["range", "hash"]),
)
def test_sharded_waves_match_the_sequential_twin(waves, shards, shard_map):
    with ShardedDirectory.create(
        ClusterSpec(config="3-2-2", seed=5), shards=shards, shard_map=shard_map
    ) as sharded, DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=6)
    ) as twin:
        spans: list = []
        for cluster in sharded.clusters:
            _timed(cluster.suite, spans)
        clock = sharded.network.clock
        for wave in waves:
            spans.clear()
            start = clock.now()
            outcomes = sharded.execute_wave(wave)
            assert_same_outcomes(outcomes, twin, wave)
            assert (
                sharded.authoritative_state()
                == twin.suite.authoritative_state()
            )
            assert_clean(sharded)
            # Every group starts at the wave's start, one per shard the
            # wave touched, and the wave costs the slowest of them.
            groups = {sharded.shard_for(op.key) for op in wave}
            assert len(spans) == len(groups)
            assert all(begin == start for begin, _ in spans)
            assert clock.now() - start == max(end - start for _, end in spans)
        sharded.check_invariants()
        assert sharded.make_auditor().run().ok
