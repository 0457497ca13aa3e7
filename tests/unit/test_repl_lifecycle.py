"""Unit tests for the replica lifecycle layer (:mod:`repro.repl`)."""

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.errors import ConfigurationError
from repro.core.keys import HIGH, LOW, wrap
from repro.core.representative import DirectoryRepresentative
from repro.repl import (
    ReplicaState,
    SuiteMembership,
    divergent_pieces,
    wipe_replica,
)
from repro.storage.sorted_store import SortedStore


class TestMembershipMachine:
    def test_starts_all_up(self):
        m = SuiteMembership(["A", "B", "C"])
        assert m.all_up
        assert all(m.can_vote(n) for n in "ABC")
        assert m.non_voting() == []

    def test_join_cycle(self):
        m = SuiteMembership(["A", "B", "C"])
        m.set_state("B", ReplicaState.JOINING)
        assert not m.all_up
        assert not m.can_vote("B")
        assert m.voting(["A", "B", "C"]) == ["A", "C"]
        assert m.non_voting() == ["B"]
        m.set_state("B", ReplicaState.CATCHING_UP)
        assert not m.can_vote("B")
        m.set_state("B", ReplicaState.UP)
        assert m.all_up and m.can_vote("B")

    def test_fallback_to_joining_is_legal(self):
        m = SuiteMembership(["A", "B"])
        m.set_state("B", ReplicaState.JOINING)
        m.set_state("B", ReplicaState.CATCHING_UP)
        m.set_state("B", ReplicaState.JOINING)  # donor lost: re-snapshot
        assert m.state("B") is ReplicaState.JOINING

    def test_illegal_transitions_raise(self):
        m = SuiteMembership(["A", "B"])
        with pytest.raises(ConfigurationError):
            m.set_state("A", ReplicaState.CATCHING_UP)  # UP -> CATCHING_UP
        m.set_state("A", ReplicaState.JOINING)
        with pytest.raises(ConfigurationError):
            m.set_state("A", ReplicaState.UP)  # JOINING -> UP skips catch-up

    def test_same_state_is_a_no_op(self):
        m = SuiteMembership(["A"])
        m.set_state("A", ReplicaState.UP)
        assert m.all_up

    def test_counts_census(self):
        m = SuiteMembership(["A", "B", "C"])
        m.set_state("C", ReplicaState.JOINING)
        assert m.counts() == {"up": 2, "joining": 1, "catching_up": 0}

    def test_empty_membership_rejected(self):
        with pytest.raises(ConfigurationError):
            SuiteMembership([])


def _store(items, coalesce=None):
    store = SortedStore()
    for key, version, value in items:
        store.insert(wrap(key), version, value)
    if coalesce is not None:
        low, high, version = coalesce
        store.coalesce(low, high, version)
    return store


class TestSnapshotPieces:
    """What a wiped joiner is shipped: a donor's snapshot diffed against
    an empty store."""

    def _donor(self):
        # b(1) d(2) f(3), then d deleted: gap (b, f) carries version 4.
        return _store(
            [("b", 1, "B"), ("d", 2, "D"), ("f", 3, "F")],
            coalesce=(wrap("b"), wrap("f"), 4),
        ).snapshot()

    def test_entries_precede_gaps(self):
        pieces = divergent_pieces(self._donor(), _store([]).snapshot())
        kinds = [p[0] for p in pieces]
        assert kinds == ["entry", "entry", "gap"]  # no sentinels, no 0-gaps
        # Every gap's bounds are entry keys shipped before it.
        entry_keys = {p[1] for p in pieces if p[0] == "entry"}
        for piece in pieces:
            if piece[0] == "gap":
                assert piece[1] in entry_keys and piece[2] in entry_keys

    def test_tiles_the_whole_keyspace(self):
        # Applied to an empty replica, the shipment rebuilds the donor's
        # tiling exactly: every entry and every gap version.
        donor = self._donor()
        joiner = DirectoryRepresentative("J")
        pieces = divergent_pieces(donor, joiner.store.snapshot())
        assert joiner.rep_reconcile(pieces) == (len(pieces), 0)
        assert joiner.store.snapshot() == donor


class TestDivergentPieces:
    def test_identical_snapshots_diverge_nowhere(self):
        a = _store([("b", 1, "B"), ("d", 2, "D")]).snapshot()
        b = _store([("b", 1, "B"), ("d", 2, "D")]).snapshot()
        assert divergent_pieces(a, b) == []

    def test_newer_entry_is_shipped(self):
        new = _store([("b", 5, "NEW")]).snapshot()
        old = _store([("b", 1, "OLD")]).snapshot()
        pieces = divergent_pieces(new, old)
        assert pieces == [("entry", wrap("b"), 5, "NEW")]
        # ... and never in the stale direction.
        assert divergent_pieces(old, new) == []

    def test_missing_entry_is_shipped_when_it_beats_the_gap(self):
        src = _store([("b", 3, "B")]).snapshot()
        dst = _store([]).snapshot()  # empty tiling: gap version 0
        pieces = divergent_pieces(src, dst)
        assert ("entry", wrap("b"), 3, "B") in pieces

    def test_dominating_gap_is_shipped(self):
        # Source deleted "b" (gap version 7); target still stores it.
        src = _store([("b", 3, "B")], coalesce=(LOW, HIGH, 7))
        src_snap = src.snapshot()
        dst_snap = _store([("b", 3, "B")]).snapshot()
        pieces = divergent_pieces(src_snap, dst_snap)
        assert [p[0] for p in pieces] == ["gap"]
        assert pieces[0][3] == 7

    def test_ghost_never_propagates(self):
        # Target deleted "b" at version 7; source still holds the ghost
        # entry (version 3).  The covering gap beats it: nothing ships.
        ghost_holder = _store([("b", 3, "B")]).snapshot()
        gap_holder = _store([("b", 3, "B")], coalesce=(LOW, HIGH, 7)).snapshot()
        assert divergent_pieces(ghost_holder, gap_holder) == []


class TestWipeReplica:
    def test_refuses_a_live_replica(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=1))
        with pytest.raises(RuntimeError):
            wipe_replica(cluster, "A")

    def test_wipes_log_but_keeps_lsn_counter(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=1))
        cluster.suite.insert("k", 1)
        rep = cluster.representative("A")
        high = rep.wal.next_lsn
        assert high > 1
        cluster.crash("A")
        wipe_replica(cluster, "A")
        assert len(rep.wal) == 0
        assert rep.wal.next_lsn == high  # LSNs are never reused
        cluster.recover("A")  # empty log replays to an empty store
        assert rep.entry_count() == 0
