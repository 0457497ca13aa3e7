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
Both draw waves of one too: they are how the front door serves a client
with one request in flight.

After every wave both also hold the commit protocol to its read-only
votes: no replica still holds a lock, an undo record, a vote or a
memory of the wave's transaction (a replica the wave only read let go at
``prepare`` or with its reply, the rest at ``commit``), the decision log
gained the wave's decision exactly when some replica wrote, and the
directory already equals the twin's.  And they hold each outcome's
``version`` to the replicas: a key's versions never go backwards from op
to op and wave to wave, and the last op on a key in a wave carries the
highest version any replica holds for it after that wave (at most that,
when a later delete in the wave coalesced a range that may cover it).

The third runs short waves over seeded lossy links, so that many of them
abort and re-run op by op as waves of one.  There is no twin to compare
with, because which ops fail depends on the draws.  Instead a client
model holds every op that answered to what a sequential run owes it, and
holds every failed op to having left no effect.

The fourth referees the walk's verdicts directly.  A wave judges each
candidate of its neighbour searches from the neighbour replies in hand,
not by a lookup round; every such verdict must equal Figure 8's merge of
what the read-quorum members' stores hold for the candidate, read there
without a message, at the moment it is judged.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import _ABORTS, BATCH_KINDS, BatchOp
from repro.core.errors import KeyAlreadyPresentError, KeyNotPresentError
from repro.core.suite import _NeighborSearch
from repro.net.failures import LossyLinks
from tests.scope import (
    assert_clean,
    assert_same_outcomes,
    held,
    highest_version,
)

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
    st.lists(dense_ops, min_size=1, max_size=10), min_size=2, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(waves=waves, fanout=st.sampled_from(["serial", "parallel"]))
def test_waves_of_mixed_verbs_match_the_sequential_twin(waves, fanout):
    _check(waves, fanout=fanout)


@settings(max_examples=120, deadline=None)
@given(
    waves=dense_waves,
    fanout=st.sampled_from(["serial", "parallel"]),
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


def _refereed(waves, neighbor_batch_size):
    """Run ``waves`` with every verdict checked against the stores of the
    members it was drawn from; returns how many candidates were ghosts."""
    ghosts = 0
    judge = _NeighborSearch.verdict
    with DirectoryCluster.create(
        ClusterSpec(
            config="3-2-2", seed=5, neighbor_batch_size=neighbor_batch_size
        )
    ) as cluster:
        reps = cluster.representatives

        def verdict(search, candidate):
            nonlocal ghosts
            reply = judge(search, candidate)
            best = None
            for name in search.streams:  # the read quorum, in order
                here = reps[name].store.lookup(candidate)
                if here.beats(best):
                    best = here
            assert (reply.present, reply.version, reply.value) == (
                best.present, best.version, best.value
            ), candidate
            ghosts += not reply.present
            return reply

        with mock.patch.object(_NeighborSearch, "verdict", verdict):
            for wave in waves:
                cluster.suite.execute_batch(wave)
        assert cluster.suite._batch_fallbacks.value == 0
    return ghosts


@settings(max_examples=100, deadline=None)
@given(waves=dense_waves, neighbor_batch_size=st.sampled_from([1, 3]))
def test_a_verdict_is_the_candidates_lookup(waves, neighbor_batch_size):
    _refereed(waves, neighbor_batch_size)


@pytest.mark.parametrize("neighbor_batch_size", [1, 3])
def test_the_verdict_referee_meets_ghosts(neighbor_batch_size):
    """The property is only a referee if walks meet ghosts: on random
    quorums, dense waves leave them behind wave after wave."""
    rng = random.Random(45)
    waves = [
        [
            BatchOp(rng.choice(("insert", "delete", "upsert")), rng.randrange(8), 1)
            for _ in range(rng.randrange(1, 6))
        ]
        for _ in range(40)
    ]
    assert _refereed(waves, neighbor_batch_size) > 0


lossy_waves = st.lists(
    st.lists(dense_ops, min_size=1, max_size=6), min_size=1, max_size=12
)


def _expect(model, op):
    """``(value, error type)`` a sequential run owes ``op`` against the
    client's ``model`` of the directory, which it then updates."""
    present = op.key in model
    if op.kind == "lookup":
        return (present, model.get(op.key)), None
    if op.kind == "insert" and present:
        return None, KeyAlreadyPresentError
    if op.kind in ("update", "delete") and not present:
        return None, KeyNotPresentError
    if op.kind in ("delete", "discard"):
        model.pop(op.key, None)
        return (int(present) if op.kind == "discard" else None), None
    model[op.key] = op.value
    return None, None


@settings(max_examples=40, deadline=None)
@given(
    waves=lossy_waves,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    fanout=st.sampled_from(["serial", "parallel"]),
)
def test_waves_under_message_loss_keep_the_client_model(waves, seed, fanout):
    """5 % of requests and 5 % of replies lost: an aborted wave re-runs
    as waves of one, every op that answered answered what a sequential
    run owes it, every op that failed left nothing behind, and no
    replica is left holding anything of any wave."""
    with DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=7, fanout=fanout)
    ) as cluster:
        cluster.network.install_faults(
            LossyLinks(
                request_loss=0.05, reply_loss=0.05, rng=random.Random(seed)
            )
        )
        model: dict = {}
        for wave in waves:
            for outcome in cluster.suite.execute_batch(wave):
                if isinstance(outcome.error, _ABORTS):
                    continue  # no effect: the state check below holds it
                value, error = _expect(model, outcome.op)
                assert type(outcome.error) is (error or type(None)), outcome
                assert outcome.value == value, outcome
            assert_clean(cluster)
            assert cluster.suite.authoritative_state() == model
        auditor = cluster.make_auditor()
        auditor.run()
        assert auditor.report.violations == []
        cluster.check_invariants()


def _check(waves, **spec):
    with DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=5, **spec)
    ) as cluster, DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=6)
    ) as twin:
        reps = cluster.representatives.values()
        decisions = cluster.suite.txn_manager.decision_log.decisions
        seen: dict = {}
        for wave in waves:
            lsns = [rep.wal.next_lsn for rep in reps]
            batched = cluster.suite.execute_batch(wave)
            assert_same_outcomes(batched, twin, wave)
            for b in batched:
                assert b.version >= seen.get(b.op.key, b.version), b.op
                seen[b.op.key] = b.version
            _check_last_versions(cluster, batched)
            txn_id = cluster.suite.last_txn_id
            # Narrower than assert_clean on purpose: this wave's own
            # transaction left no undo record or vote, the same id the
            # decision-log clause below asks about.
            for rep in reps:
                assert rep.locks.is_idle(), rep.name
                assert txn_id not in rep._undo, rep.name
                assert txn_id not in rep._prepared, rep.name
            wrote = [rep.wal.next_lsn for rep in reps] != lsns
            assert (txn_id in decisions) == wrote, wave
            assert (
                cluster.suite.authoritative_state()
                == twin.suite.authoritative_state()
            )
        # Every key, and a point in every gap between two keys.
        probes = [point / 2 for point in range(-1, 32)]
        assert held(cluster, probes) == held(twin, probes)
        cluster.check_invariants()
        assert cluster.suite._batch_fallbacks.value == 0
        assert cluster.suite.op_counts == twin.suite.op_counts
        return cluster


def _check_last_versions(cluster, outcomes):
    """The last op on each key carries the version the replicas now hold
    behind it, unless a later op deleted a present key: its coalesce may
    have covered this one, at a newer gap version."""
    coalesced = False
    done = set()
    for outcome in reversed(outcomes):
        op = outcome.op
        if op.key not in done:
            done.add(op.key)
            highest = highest_version(cluster, op.key)
            if coalesced:
                assert outcome.version <= highest, op
            else:
                assert outcome.version == highest, op
        if op.kind in ("delete", "discard") and outcome.ok and (
            op.kind == "delete" or outcome.value == 1
        ):
            coalesced = True
