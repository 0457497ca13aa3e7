"""Unit tests for write-ahead logging and recovery."""

import pytest

from repro.core.keys import HIGH, LOW, BoundedKey, wrap
from repro.storage.sorted_store import SortedStore
from repro.storage.wal import (
    OP_CHECKPOINT,
    OP_COALESCE,
    OP_COMMIT,
    OP_INSERT,
    WalRecord,
    WriteAheadLog,
)


def committed_insert(log, txn_id, key, version, value):
    log.log_insert(txn_id, wrap(key), version, value)
    log.log_commit(txn_id)


class TestAppend:
    def test_lsns_monotone(self):
        log = WriteAheadLog()
        r1 = log.log_insert(1, wrap("a"), 1, "A")
        r2 = log.log_commit(1)
        assert r2.lsn == r1.lsn + 1

    def test_iteration_and_len(self):
        log = WriteAheadLog()
        committed_insert(log, 1, "a", 1, "A")
        assert len(log) == 2
        assert [r.kind for r in log] == ["insert", "commit"]


class TestReplay:
    def test_committed_ops_replayed(self):
        log = WriteAheadLog()
        committed_insert(log, 1, "a", 1, "A")
        committed_insert(log, 2, "b", 1, "B")
        store = SortedStore()
        applied = log.replay_into(store)
        assert applied == 2
        assert store.lookup(wrap("a")).present
        assert store.lookup(wrap("b")).present

    def test_uncommitted_ops_skipped(self):
        log = WriteAheadLog()
        committed_insert(log, 1, "a", 1, "A")
        log.log_insert(2, wrap("b"), 1, "B")  # no commit: presumed abort
        store = SortedStore()
        log.replay_into(store)
        assert store.lookup(wrap("a")).present
        assert not store.lookup(wrap("b")).present

    def test_aborted_ops_skipped(self):
        log = WriteAheadLog()
        log.log_insert(1, wrap("a"), 1, "A")
        log.log_abort(1)
        store = SortedStore()
        log.replay_into(store)
        assert not store.lookup(wrap("a")).present

    def test_coalesce_replayed_in_order(self):
        log = WriteAheadLog()
        log.log_insert(1, wrap("a"), 1, "A")
        log.log_insert(1, wrap("b"), 1, "B")
        log.log_insert(1, wrap("c"), 1, "C")
        log.log_coalesce(1, wrap("a"), wrap("c"), 2)
        log.log_commit(1)
        store = SortedStore()
        log.replay_into(store)
        assert not store.lookup(wrap("b")).present
        assert store.lookup(wrap("b")).version == 2

    def test_replay_reproduces_live_store(self):
        # The golden property: replaying the log of committed transactions
        # into a fresh store reproduces the live store exactly.
        live = SortedStore()
        log = WriteAheadLog()
        for i, key in enumerate(["m", "d", "x", "f"]):
            log.log_insert(i, wrap(key), i + 1, key.upper())
            live.insert(wrap(key), i + 1, key.upper())
            log.log_commit(i)
        log.log_coalesce(9, wrap("d"), wrap("m"), 7)
        live.coalesce(wrap("d"), wrap("m"), 7)
        log.log_commit(9)
        recovered = SortedStore()
        log.replay_into(recovered)
        assert recovered.snapshot() == live.snapshot()

    def test_extra_committed_resolves_in_doubt(self):
        log = WriteAheadLog()
        log.log_insert(5, wrap("k"), 1, "K")
        log.log_prepare(5)  # prepared, never locally committed
        store = SortedStore()
        log.replay_into(store)
        assert not store.lookup(wrap("k")).present
        store2 = SortedStore()
        log.replay_into(store2, extra_committed={5})
        assert store2.lookup(wrap("k")).present


class TestInDoubt:
    def test_in_doubt_detection(self):
        log = WriteAheadLog()
        log.log_prepare(1)
        log.log_commit(1)
        log.log_prepare(2)  # in doubt
        log.log_prepare(3)
        log.log_abort(3)
        assert log.in_doubt_txns() == {2}

    def test_committed_txns(self):
        log = WriteAheadLog()
        committed_insert(log, 4, "x", 1, "X")
        log.log_insert(5, wrap("y"), 1, "Y")
        assert log.committed_txns() == {4}


class TestCheckpoint:
    def test_checkpoint_truncates(self):
        log = WriteAheadLog()
        committed_insert(log, 1, "a", 1, "A")
        store = SortedStore()
        store.insert(wrap("a"), 1, "A")
        log.log_checkpoint(store.snapshot())
        assert len(log) == 1
        assert log.records[0].kind == OP_CHECKPOINT

    def test_replay_from_checkpoint(self):
        log = WriteAheadLog()
        committed_insert(log, 1, "a", 1, "A")
        store = SortedStore()
        store.insert(wrap("a"), 1, "A")
        log.log_checkpoint(store.snapshot())
        committed_insert(log, 2, "b", 2, "B")
        recovered = SortedStore()
        log.replay_into(recovered)
        assert recovered.lookup(wrap("a")).present
        assert recovered.lookup(wrap("b")).present

    def test_lsn_continues_after_checkpoint(self):
        log = WriteAheadLog()
        committed_insert(log, 1, "a", 1, "A")
        store = SortedStore()
        log.log_checkpoint(store.snapshot())
        record = log.log_commit(9)
        assert record.lsn > 3


class TestSnapshotReplayInterplay:
    """Checkpoint-snapshot restore + tail replay vs continuous execution."""

    def _churned(self):
        """A live store and its log, with a checkpoint mid-history."""
        live = SortedStore()
        log = WriteAheadLog()
        for i, key in enumerate(["m", "d", "x"]):
            log.log_insert(i, wrap(key), i + 1, key.upper())
            live.insert(wrap(key), i + 1, key.upper())
            log.log_commit(i)
        log.log_checkpoint(live.snapshot())  # truncates to the snapshot
        log.log_insert(7, wrap("b"), 5, "B")
        live.insert(wrap("b"), 5, "B")
        log.log_commit(7)
        log.log_coalesce(8, wrap("b"), wrap("m"), 9)
        live.coalesce(wrap("b"), wrap("m"), 9)
        log.log_commit(8)
        return live, log

    def test_restored_snapshot_plus_tail_is_bit_identical(self):
        # Recovery = restore the checkpoint snapshot, replay the tail.
        # The result must equal continuous execution exactly: entries,
        # versions, values, and every gap version.
        live, log = self._churned()
        recovered = SortedStore()
        log.replay_into(recovered)
        assert recovered.snapshot() == live.snapshot()

    def test_replay_is_idempotent_across_recoveries(self):
        # Crash-during-recovery: a second (and third) replay of the same
        # log must land on the same bytes — replay is a pure function of
        # the log.
        live, log = self._churned()
        snapshots = []
        for _ in range(3):
            store = SortedStore()
            log.replay_into(store)
            snapshots.append(store.snapshot())
        assert snapshots[0] == snapshots[1] == snapshots[2] == live.snapshot()

    def test_replay_unchanged_by_serialization_after_checkpoint(self):
        live, log = self._churned()
        revived = WriteAheadLog.from_bytes(log.to_bytes())
        store = SortedStore()
        revived.replay_into(store)
        assert store.snapshot() == live.snapshot()


class TestPersistence:
    def test_bytes_roundtrip(self):
        log = WriteAheadLog()
        committed_insert(log, 1, "a", 1, "A")
        log.log_coalesce(2, wrap("a"), wrap("a"), 3)  # payload shape only
        data = log.to_bytes()
        restored = WriteAheadLog.from_bytes(data)
        assert [r.kind for r in restored] == [r.kind for r in log]
        # LSN counter survives: new records continue the sequence.
        nxt = restored.log_commit(2)
        assert nxt.lsn == len(log) + 1

    def test_restored_log_replays_identically(self):
        log = WriteAheadLog()
        committed_insert(log, 1, "a", 1, "A")
        committed_insert(log, 2, "b", 2, "B")
        a, b = SortedStore(), SortedStore()
        log.replay_into(a)
        WriteAheadLog.from_bytes(log.to_bytes()).replay_into(b)
        assert a.snapshot() == b.snapshot()


    def test_bytes_roundtrip_rebuilds_sentinel_and_normal_keys(self):
        # A restarted replica reads LOW, HIGH and user keys back out of
        # checkpoints and redo records; each must come back a
        # BoundedKey of the same kind, not a tuple holding its pair.
        live = SortedStore()
        live.insert(wrap("a"), 1, "A")
        log = WriteAheadLog()
        log.log_checkpoint(live.snapshot())
        committed_insert(log, 2, "b", 2, "B")
        committed_insert(log, 3, "c", 3, "C")
        log.log_coalesce(4, wrap("a"), wrap("c"), 4)
        log.log_coalesce(4, LOW, wrap("a"), 4)
        log.log_commit(4)
        log.log_coalesce(5, wrap("c"), HIGH, 5)
        log.log_commit(5)

        def keys(wal):
            found = []
            for r in wal:
                if r.kind == OP_CHECKPOINT:
                    found += [e.key for e in r.payload.entries]
                elif r.kind == OP_INSERT:
                    found.append(r.payload[0])
                elif r.kind == OP_COALESCE:
                    found += r.payload[:2]
            return [(type(k), k.is_low, k.is_high, k) for k in found]

        restored = WriteAheadLog.from_bytes(log.to_bytes())
        assert restored.records == log.records
        assert keys(restored) == keys(log)
        assert {k.is_low for _, _, _, k in keys(log)} == {True, False}
        assert {k.is_high for _, _, _, k in keys(log)} == {True, False}
        a, b = SortedStore(), SortedStore()
        log.replay_into(a)
        restored.replay_into(b)
        b.check_invariants()
        assert b.snapshot() == a.snapshot()
        assert [e.key for e in b.user_entries()] == [wrap("a"), wrap("c")]
        assert all(type(e.key) is BoundedKey for e in b.snapshot().entries)


class TestRecordShape:
    def test_record_is_frozen(self):
        record = WalRecord(1, 1, OP_COMMIT)
        with pytest.raises(AttributeError):
            record.lsn = 2
