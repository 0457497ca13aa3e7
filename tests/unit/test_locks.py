"""Unit tests for the Figure 7 range-lock table.

The first class pins the published compatibility matrix cell by cell; the
rest cover the table mechanics: FIFO fairness, re-entrancy, promotion on
release, the waits-for edges the deadlock detector consumes, the
scan-free uncontended grant and ``acquire_all``'s prefix semantics.
"""

from repro.core.keys import KeyRange
from repro.txn import locks
from repro.txn.locks import (
    AcquireStatus,
    LockMode,
    LockTable,
    conflicts,
)

LOOKUP = LockMode.REP_LOOKUP
MODIFY = LockMode.REP_MODIFY

# Two disjoint ranges and one that intersects the first.
R1 = KeyRange.of(1, 5)
R1_OVERLAP = KeyRange.of(4, 9)
R2 = KeyRange.of(10, 20)


class TestFigure7Matrix:
    """Each cell of the published compatibility relation."""

    def test_modify_vs_modify_intersecting_conflicts(self):
        assert conflicts(MODIFY, R1, MODIFY, R1_OVERLAP)

    def test_modify_vs_modify_disjoint_compatible(self):
        assert not conflicts(MODIFY, R1, MODIFY, R2)

    def test_modify_vs_lookup_intersecting_conflicts(self):
        assert conflicts(MODIFY, R1, LOOKUP, R1_OVERLAP)
        assert conflicts(LOOKUP, R1, MODIFY, R1_OVERLAP)

    def test_modify_vs_lookup_disjoint_compatible(self):
        assert not conflicts(MODIFY, R1, LOOKUP, R2)
        assert not conflicts(LOOKUP, R1, MODIFY, R2)

    def test_lookup_vs_lookup_always_compatible(self):
        assert not conflicts(LOOKUP, R1, LOOKUP, R1_OVERLAP)
        assert not conflicts(LOOKUP, R1, LOOKUP, R1)
        assert not conflicts(LOOKUP, R1, LOOKUP, R2)

    def test_conflict_is_symmetric(self):
        for ma in (LOOKUP, MODIFY):
            for mb in (LOOKUP, MODIFY):
                for ra, rb in ((R1, R1_OVERLAP), (R1, R2)):
                    assert conflicts(ma, ra, mb, rb) == conflicts(mb, rb, ma, ra)

    def test_touching_endpoint_counts_as_intersecting(self):
        assert conflicts(MODIFY, KeyRange.of(1, 5), MODIFY, KeyRange.of(5, 9))


class TestGrants:
    def test_first_acquire_granted(self):
        table = LockTable()
        assert table.acquire(1, MODIFY, R1).granted

    def test_compatible_locks_coexist(self):
        table = LockTable()
        assert table.acquire(1, LOOKUP, R1).granted
        assert table.acquire(2, LOOKUP, R1).granted
        assert table.acquire(3, MODIFY, R2).granted

    def test_conflicting_lock_waits(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        result = table.acquire(2, MODIFY, R1_OVERLAP)
        assert result.status is AcquireStatus.WAITING
        assert result.blockers == (1,)

    def test_nowait_mode_does_not_queue(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        result = table.acquire(2, MODIFY, R1, wait=False)
        assert not result.granted
        assert table.waiting_requests() == []

    def test_reader_blocks_writer(self):
        table = LockTable()
        table.acquire(1, LOOKUP, R1)
        assert not table.acquire(2, MODIFY, R1).granted

    def test_writer_blocks_reader(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        assert not table.acquire(2, LOOKUP, R1).granted


class TestReentrancy:
    def test_same_txn_relocks_freely(self):
        table = LockTable()
        assert table.acquire(1, MODIFY, R1).granted
        assert table.acquire(1, MODIFY, R1).granted
        assert table.acquire(1, LOOKUP, R1_OVERLAP).granted

    def test_upgrade_lookup_to_modify(self):
        table = LockTable()
        table.acquire(1, LOOKUP, R1)
        assert table.acquire(1, MODIFY, R1).granted

    def test_upgrade_blocked_by_other_reader(self):
        table = LockTable()
        table.acquire(1, LOOKUP, R1)
        table.acquire(2, LOOKUP, R1)
        result = table.acquire(1, MODIFY, R1)
        assert not result.granted
        assert result.blockers == (2,)


class TestFifoFairness:
    def test_later_reader_cannot_jump_queued_writer(self):
        table = LockTable()
        table.acquire(1, LOOKUP, R1)          # holder
        table.acquire(2, MODIFY, R1)           # queued writer
        result = table.acquire(3, LOOKUP, R1)  # must not starve the writer
        assert not result.granted
        assert 2 in result.blockers

    def test_disjoint_request_bypasses_queue(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.acquire(2, MODIFY, R1)  # queued
        assert table.acquire(3, MODIFY, R2).granted


class TestRelease:
    def test_release_promotes_fifo(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.acquire(2, MODIFY, R1)
        table.acquire(3, MODIFY, R1)
        granted = table.release_all(1)
        assert [g.txn_id for g in granted] == [2]
        assert table.holders() == {2}
        granted = table.release_all(2)
        assert [g.txn_id for g in granted] == [3]

    def test_release_grants_all_compatible_waiters(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.acquire(2, LOOKUP, R1)
        table.acquire(3, LOOKUP, R1)
        granted = table.release_all(1)
        assert {g.txn_id for g in granted} == {2, 3}

    def test_release_drops_queued_requests_too(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.acquire(2, MODIFY, R1)
        table.release_all(2)  # waiter gives up
        assert table.waiting_requests() == []
        assert table.holders() == {1}

    def test_idle_after_all_released(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.release_all(1)
        assert table.is_idle()


class TestIntrospection:
    def test_held_by(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.acquire(1, LOOKUP, R2)
        table.acquire(2, LOOKUP, R2)
        assert len(table.held_by(1)) == 2
        assert len(table.held_by(2)) == 1
        assert len(table.all_held()) == 3

    def test_waits_for_edges(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.acquire(2, MODIFY, R1)
        table.acquire(3, MODIFY, R1)
        edges = set(table.waits_for_edges())
        assert (2, 1) in edges
        # 3 waits for both the holder and the earlier queued request.
        assert (3, 1) in edges and (3, 2) in edges

    def test_stats_counters(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.acquire(2, MODIFY, R1)
        assert table.stats.acquisitions == 2
        assert table.stats.immediate_grants == 1
        assert table.stats.waits == 1
        table.stats.reset()
        assert table.stats.acquisitions == 0


class TestUncontendedGrant:
    """A grant scans nothing when no other transaction holds or waits."""

    @staticmethod
    def _count_conflicts(monkeypatch):
        calls = []
        real = locks.conflicts

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(locks, "conflicts", counting)
        return calls

    def test_own_locks_are_not_scanned(self, monkeypatch):
        table = LockTable()
        for i in range(1000):
            table.acquire(1, MODIFY, KeyRange.of(i, i))
        calls = self._count_conflicts(monkeypatch)
        assert table.acquire(1, MODIFY, KeyRange.of(5, 500)).granted
        assert table.acquire_all(1, LOOKUP, [KeyRange.of(2, 3)] * 10) == ()
        assert calls == []
        assert len(table.all_held()) == 1011

    def test_another_holder_is_scanned(self, monkeypatch):
        table = LockTable()
        table.acquire(1, LOOKUP, R1)
        table.acquire(2, LOOKUP, R2)
        calls = self._count_conflicts(monkeypatch)
        assert table.acquire(1, MODIFY, R1).granted
        assert len(calls) == 1  # 2's lock; 1's own is skipped

    def test_sole_holder_still_waits_behind_a_queued_conflict(self):
        table = LockTable()
        table.acquire(1, MODIFY, R1)
        table.acquire(2, MODIFY, R1)  # queued behind 1
        result = table.acquire(1, LOOKUP, R1_OVERLAP)
        assert not result.granted
        assert result.blockers == (2,)

    def test_grants_share_one_result(self):
        table = LockTable()
        assert table.acquire(1, LOOKUP, R1) is table.acquire(1, MODIFY, R2)

    def test_plain_pair_is_a_range(self):
        table = LockTable()
        low, high = R1
        assert table.acquire_all(1, MODIFY, [(low, high)]) == ()
        [lock] = table.all_held()
        assert type(lock.key_range) is KeyRange and lock.key_range == R1
        assert table.acquire(2, LOOKUP, (high, high), wait=False).blockers == (1,)


class TestAcquireAll:
    def test_grants_every_range(self):
        table = LockTable()
        assert table.acquire_all(1, LOOKUP, [R1, R2]) == ()
        assert [l.key_range for l in table.held_by(1)] == [R1, R2]
        assert table.stats.acquisitions == 2
        assert table.stats.immediate_grants == 2

    def test_empty_list_takes_nothing(self):
        table = LockTable()
        assert table.acquire_all(1, MODIFY, []) == ()
        assert table.is_idle()
        assert table.holders() == set()
        assert table.stats.acquisitions == 0

    def test_stops_at_first_refusal_keeping_the_prefix(self):
        table = LockTable()
        table.acquire(2, MODIFY, R2)
        far = KeyRange.of(30, 40)
        blockers = table.acquire_all(1, LOOKUP, [R1, R1_OVERLAP, R2, far])
        assert blockers == (2,)
        assert [l.key_range for l in table.held_by(1)] == [R1, R1_OVERLAP]
        assert table.waiting_requests() == []
        assert table.stats.acquisitions == 4  # 2's lock, then three tried
        assert table.stats.waits == 1

    def test_release_after_acquire_all_leaves_table_idle(self):
        table = LockTable()
        table.acquire_all(1, MODIFY, [R1, R2])
        table.release_all(1)
        assert table.is_idle()
        assert table.acquire(2, MODIFY, R1).granted
