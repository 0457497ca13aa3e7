"""Property: a wave is the same sequence run one op at a time.

Any list of waves of mixed verbs over at most 16 keys — deletes and
discards included — run wave by wave through
:func:`repro.core.batch.execute_batch` must answer, op for op, what a
sequential twin answers for the same ops through the classic public
methods, and leave the same directory behind: contents, and the highest
version any replica holds for every key, whether it ended as an entry or
inside a gap (so the next write of any of them chains identically).
The two sides draw different quorums; nothing compared may depend on
which.

The second property crowds the wave's deletes together — eight keys,
half the ops deletes — so that their neighbourhoods collide in most
waves: shared walks, walkers made to wait by an insert or another
delete next door, ranges that meet at a boundary, ghosts left by
earlier waves, under every fan-out and both neighbour batch sizes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import BATCH_KINDS, BatchOp, _fallback
from repro.core.keys import wrap

ops = st.builds(
    BatchOp,
    st.sampled_from(BATCH_KINDS),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=99),
)
waves = st.lists(st.lists(ops, min_size=1, max_size=12), min_size=1, max_size=8)


dense_ops = st.builds(
    BatchOp,
    st.sampled_from(BATCH_KINDS + ("delete", "discard", "delete", "insert")),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=99),
)
dense_waves = st.lists(
    st.lists(dense_ops, min_size=2, max_size=10), min_size=2, max_size=8
)


def _versions(cluster):
    """The highest version any replica holds at every key, and at a
    point in every gap between two keys."""
    return [
        max(
            rep.store.lookup(wrap(point / 2)).version
            for rep in cluster.representatives.values()
        )
        for point in range(-1, 32)
    ]


@settings(max_examples=60, deadline=None)
@given(waves=waves, fanout=st.sampled_from(["serial", "parallel"]))
def test_waves_of_mixed_verbs_match_the_sequential_twin(waves, fanout):
    _check(waves, fanout=fanout)


@settings(max_examples=120, deadline=None)
@given(
    waves=dense_waves,
    fanout=st.sampled_from(["serial", "parallel", "hedged"]),
    neighbor_batch_size=st.sampled_from([1, 3]),
)
def test_crowded_deletes_match_the_sequential_twin(
    waves, fanout, neighbor_batch_size
):
    cluster = _check(
        waves, fanout=fanout, neighbor_batch_size=neighbor_batch_size
    )
    # Both classes of walker account for every delete that walked.
    suite = cluster.suite
    walked = suite._batch_walk_deletes
    assert (
        round(walked.avg * walked.n) + suite._batch_rewalks.value
        == suite.delete_stats.insertions_while_coalescing.n
    )


def _check(waves, **spec):
    with DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=5, **spec)
    ) as cluster, DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=6)
    ) as twin:
        for wave in waves:
            batched = cluster.suite.execute_batch(wave)
            sequential = [_fallback(twin.suite, op) for op in wave]
            for b, s in zip(batched, sequential, strict=True):
                assert b.value == s.value, b.op
                assert type(b.error) is type(s.error), b.op
        assert (
            cluster.suite.authoritative_state()
            == twin.suite.authoritative_state()
        )
        assert _versions(cluster) == _versions(twin)
        cluster.check_invariants()
        assert cluster.suite._batch_fallbacks.value == 0
        assert cluster.suite.op_counts == twin.suite.op_counts
        return cluster
