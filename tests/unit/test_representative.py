"""Unit tests for the directory representative (Figure 6 semantics).

Covers each operation's result shape, its locking behaviour (Figure 7),
undo on abort, WAL-based crash recovery, batching, and checkpointing.
"""

import pytest

from repro.core.errors import WouldBlockError
from repro.core.keys import HIGH, LOW, KeyRange, wrap
from repro.core.representative import DirectoryRepresentative
from repro.storage.btree import BTreeStore
from repro.storage.snapshot import EveryNCommits
from repro.txn.locks import LockMode
from repro.txn.twopc import READ_ONLY


def loaded_rep(**kwargs):
    """A representative with entries a(1), c(1) and gap versions 0."""
    rep = DirectoryRepresentative("A", **kwargs)
    rep.rep_insert(1, wrap("a"), 1, "A")
    rep.rep_insert(1, wrap("c"), 1, "C")
    rep.commit(1)
    return rep


class TestFigure6Operations:
    def test_lookup_present(self):
        rep = loaded_rep()
        reply = rep.rep_lookup(2, wrap("a"))
        assert reply.present and reply.version == 1 and reply.value == "A"
        rep.abort(2)

    def test_lookup_absent_returns_gap(self):
        rep = loaded_rep()
        reply = rep.rep_lookup(2, wrap("b"))
        assert not reply.present and reply.version == 0
        rep.abort(2)

    def test_predecessor_and_successor(self):
        rep = loaded_rep()
        assert rep.rep_predecessor(2, wrap("b")).key == wrap("a")
        assert rep.rep_successor(2, wrap("b")).key == wrap("c")
        assert rep.rep_predecessor(2, wrap("a")).key.is_low
        assert rep.rep_successor(2, wrap("c")).key.is_high
        rep.abort(2)

    def test_insert_and_overwrite(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("b"), 1, "B")
        assert rep.rep_lookup(2, wrap("b")).present
        rep.rep_insert(2, wrap("b"), 2, "B2")
        assert rep.rep_lookup(2, wrap("b")).version == 2
        rep.commit(2)

    def test_coalesce_returns_removed_segment(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("b"), 1, "B")
        rep.commit(2)
        result = rep.rep_coalesce(3, wrap("a"), wrap("c"), 5)
        assert [e.key.payload for e in result.removed.entries] == ["b"]
        assert rep.rep_lookup(3, wrap("b")).version == 5
        rep.commit(3)

    def test_entry_count_and_contains(self):
        rep = loaded_rep()
        assert rep.entry_count() == 2
        assert rep.contains(wrap("a")) and not rep.contains(wrap("x"))

    def test_entries_between(self):
        rep = loaded_rep()
        assert [e.key.payload for e in rep.entries_between(LOW, HIGH)] == ["a", "c"]


class TestNeighborBatch:
    def test_pred_batch_walks_down(self):
        rep = loaded_rep()
        batch = rep.rep_neighbors_batch(2, wrap("zz"), "pred", 5)
        assert [r.key for r in batch] == [wrap("c"), wrap("a"), LOW]
        rep.abort(2)

    def test_succ_batch_walks_up(self):
        rep = loaded_rep()
        batch = rep.rep_neighbors_batch(2, LOW, "succ", 2)
        assert [r.key for r in batch] == [wrap("a"), wrap("c")]
        rep.abort(2)

    def test_batch_stops_at_sentinel(self):
        rep = loaded_rep()
        batch = rep.rep_neighbors_batch(2, wrap("b"), "pred", 10)
        assert batch[-1].key.is_low
        assert len(batch) == 2
        rep.abort(2)

    def test_batch_validates_args(self):
        rep = loaded_rep()
        with pytest.raises(ValueError):
            rep.rep_neighbors_batch(2, wrap("b"), "sideways", 1)
        with pytest.raises(ValueError):
            rep.rep_neighbors_batch(2, wrap("b"), "pred", 0)

    def test_batch_gap_versions_match_unbatched(self):
        rep = loaded_rep()
        rep.rep_coalesce(2, wrap("a"), wrap("c"), 7)
        rep.commit(2)
        batch = rep.rep_neighbors_batch(3, wrap("c"), "pred", 2)
        single = rep.rep_predecessor(3, wrap("c"))
        assert batch[0] == single
        rep.abort(3)


class TestLocking:
    def test_conflicting_modify_raises_would_block(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("k"), 1, "K")
        with pytest.raises(WouldBlockError) as exc_info:
            rep.rep_insert(3, wrap("k"), 2, "K2")
        assert 2 in exc_info.value.blockers
        rep.abort(2)

    def test_lookup_locks_allow_sharing(self):
        rep = loaded_rep()
        rep.rep_lookup(2, wrap("a"))
        rep.rep_lookup(3, wrap("a"))  # no conflict
        rep.abort(2)
        rep.abort(3)

    def test_predecessor_locks_scanned_range(self):
        # DirRepPredecessor(x) locks [y..x]; an insert into that gap by
        # another transaction must block (phantom protection).
        rep = loaded_rep()
        rep.rep_predecessor(2, wrap("c"))  # locks [a..c]
        with pytest.raises(WouldBlockError):
            rep.rep_insert(3, wrap("b"), 1, "B")
        rep.abort(2)
        rep.rep_insert(3, wrap("b"), 1, "B")  # fine after release
        rep.commit(3)

    def test_commit_releases_locks(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("k"), 1, "K")
        rep.commit(2)
        rep.rep_insert(3, wrap("k"), 2, "K2")
        rep.commit(3)

    def test_lookup_many_refused_at_third_key_keeps_the_first_two(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("k"), 1, "K")  # RepModify(k, k) held by 2
        keys = [wrap("a"), wrap("c"), wrap("k"), wrap("z")]
        with pytest.raises(WouldBlockError) as exc_info:
            rep.rep_lookup_many(3, keys)
        assert exc_info.value.blockers == (2,)
        held = [(l.mode, l.key_range) for l in rep.locks.held_by(3)]
        assert held == [
            (LockMode.REP_LOOKUP, KeyRange.point(wrap("a"))),
            (LockMode.REP_LOOKUP, KeyRange.point(wrap("c"))),
        ]
        assert rep.locks.waiting_requests() == []
        rep.abort(2)
        rep.abort(3)
        assert rep.locks.is_idle()

    def test_lookup_many_takes_one_point_lock_per_key(self):
        rep = loaded_rep()
        keys = [wrap("c"), wrap("a"), wrap("c")]
        replies = rep.rep_lookup_many(2, keys)
        assert replies == [rep.store.lookup(k) for k in keys]
        assert [l.key_range for l in rep.locks.held_by(2)] == [
            KeyRange.point(k) for k in keys
        ]
        rep.abort(2)

    def test_coalesce_locks_whole_range(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("b"), 1, "B")
        rep.commit(2)
        rep.rep_coalesce(3, wrap("a"), wrap("c"), 5)
        with pytest.raises(WouldBlockError):
            rep.rep_lookup(4, wrap("b"))
        rep.abort(3)


class TestAbortUndo:
    def test_abort_reverses_insert(self):
        rep = loaded_rep()
        before = rep.store.snapshot()
        rep.rep_insert(2, wrap("b"), 1, "B")
        rep.abort(2)
        assert rep.store.snapshot() == before

    def test_abort_reverses_coalesce(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("b"), 1, "B")
        rep.commit(2)
        before = rep.store.snapshot()
        rep.rep_coalesce(3, wrap("a"), wrap("c"), 9)
        rep.abort(3)
        assert rep.store.snapshot() == before

    def test_abort_reverses_mixed_ops_in_order(self):
        rep = loaded_rep()
        before = rep.store.snapshot()
        rep.rep_insert(2, wrap("b"), 2, "B")
        rep.rep_coalesce(2, wrap("a"), wrap("c"), 9)
        rep.rep_insert(2, wrap("bb"), 10, "BB")
        rep.abort(2)
        assert rep.store.snapshot() == before
        rep.store.check_invariants()

    def test_aborted_txn_not_replayed(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("zz"), 1, "Z")
        rep.abort(2)
        rep.on_crash()
        rep.on_recover()
        assert not rep.contains(wrap("zz"))


class TestCrashRecovery:
    def test_recovery_restores_committed_state(self):
        rep = loaded_rep()
        before = rep.store.snapshot()
        rep.on_crash()
        assert rep.entry_count() == 0
        rep.on_recover()
        assert rep.store.snapshot() == before

    def test_uncommitted_work_lost_in_crash(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("b"), 1, "B")  # never committed
        rep.on_crash()
        rep.on_recover()
        assert not rep.contains(wrap("b"))
        assert rep.contains(wrap("a"))

    def test_prepare_votes_yes_for_seen_txn(self):
        rep = loaded_rep()
        rep.rep_insert(2, wrap("b"), 1, "B")
        assert rep.prepare(2) is True

    def test_in_doubt_resolved_by_decision_log(self):
        decisions = set()
        rep = DirectoryRepresentative(
            "A", decision_outcomes=lambda: frozenset(decisions)
        )
        rep.rep_insert(5, wrap("k"), 1, "K")
        rep.prepare(5)
        rep.on_crash()
        rep.on_recover()
        assert not rep.contains(wrap("k"))  # presumed abort
        decisions.add(5)
        rep.on_crash()
        rep.on_recover()
        assert rep.contains(wrap("k"))  # coordinator says commit

    def test_recovery_with_btree_store(self):
        rep = DirectoryRepresentative("A", store_factory=BTreeStore)
        rep.rep_insert(1, wrap("x"), 1, "X")
        rep.commit(1)
        before = rep.store.snapshot()
        rep.on_crash()
        rep.on_recover()
        assert rep.store.snapshot() == before


class TestReadOnlyVote:
    """``prepare(txn, True)``: what a wave's coordinator asks.  A replica
    the transaction only read drops out there; one it wrote votes as the
    classic protocol does."""

    def test_a_reader_releases_its_locks_logs_nothing_and_forgets(self):
        rep = loaded_rep()
        rep.rep_lookup(2, wrap("b"))
        rep.rep_neighbors_batch(2, wrap("b"), "succ", 2)  # locks [b..HIGH]
        appended = len(rep.wal)
        assert rep.prepare(2, True) == READ_ONLY
        assert len(rep.wal) == appended
        assert 2 not in rep._prepared
        assert rep.locks.is_idle()
        # Another transaction's conflicting RepModify is granted at once.
        rep.rep_insert(3, wrap("b"), 1, "B")
        rep.rep_coalesce(3, wrap("c"), HIGH, 4)
        assert rep.locks.stats.waits == 0
        rep.commit(3)

    def test_a_writer_still_votes_yes_and_logs_prepare(self):
        twins = [loaded_rep(), loaded_rep()]
        for rep, read_only_votes in zip(twins, (False, True)):
            rep.rep_lookup(2, wrap("a"))
            rep.rep_insert(2, wrap("b"), 1, "B")
            assert rep.prepare(2, read_only_votes) is True
            assert rep.wal.records[-1].kind == "prepare"
            assert 2 in rep._prepared
            with pytest.raises(WouldBlockError):
                rep.rep_lookup(3, wrap("b"))
        assert list(twins[0].wal.records) == list(twins[1].wal.records)

    def test_a_re_asked_prepare_is_read_only_again(self):
        """The reply was lost: the reader still holds no undo record,
        so it answers as it did, logging nothing and holding no lock."""
        rep = loaded_rep()
        rep.rep_lookup(2, wrap("a"))
        appended = len(rep.wal)
        assert rep.prepare(2, True) == READ_ONLY
        assert rep.prepare(2, True) == READ_ONLY
        assert len(rep.wal) == appended
        assert rep.locks.is_idle() and 2 not in rep._prepared

    def test_the_classic_prepare_keeps_a_reader_to_the_commit(self):
        rep = loaded_rep()
        rep.rep_lookup(2, wrap("b"))
        assert rep.prepare(2) is True
        assert rep.wal.records[-1].kind == "prepare"
        with pytest.raises(WouldBlockError):
            rep.rep_insert(3, wrap("b"), 1, "B")
        rep.commit(2)


class TestCheckpointing:
    def test_policy_triggers_checkpoint(self):
        rep = DirectoryRepresentative("A", checkpoint_policy=EveryNCommits(2))
        rep.rep_insert(1, wrap("a"), 1, "A")
        rep.commit(1)
        rep.rep_insert(2, wrap("b"), 1, "B")
        rep.commit(2)
        # After the 2nd commit the log should have been folded.
        kinds = [r.kind for r in rep.wal]
        assert kinds[0] == "checkpoint"

    def test_recovery_after_checkpoint(self):
        rep = DirectoryRepresentative("A", checkpoint_policy=EveryNCommits(1))
        rep.rep_insert(1, wrap("a"), 1, "A")
        rep.commit(1)
        rep.rep_insert(2, wrap("b"), 1, "B")
        rep.commit(2)
        before = rep.store.snapshot()
        rep.on_crash()
        rep.on_recover()
        assert rep.store.snapshot() == before

    def test_manual_checkpoint_requires_quiescence(self):
        rep = DirectoryRepresentative("A")
        rep.rep_insert(1, wrap("a"), 1, "A")
        with pytest.raises(RuntimeError):
            rep.checkpoint()
        rep.commit(1)
        rep.checkpoint()
        assert len(rep.wal) == 1
