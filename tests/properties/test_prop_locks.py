"""Property tests for the lock table.

Besides the table's own invariants, the indexed table is held to the
scanning table it replaced (:class:`ReferenceLockTable`, kept here as the
oracle): every step of a random trace must decide, queue, promote and
count exactly as the oracle does.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.keys import KeyRange, wrap
from repro.txn.locks import (
    AcquireResult,
    AcquireStatus,
    Lock,
    LockMode,
    LockRequest,
    LockTable,
    LockTableStats,
    conflicts,
)

modes = st.sampled_from([LockMode.REP_LOOKUP, LockMode.REP_MODIFY])
bounds = st.integers(min_value=0, max_value=30)
ranges = st.tuples(bounds, bounds).map(
    lambda ab: KeyRange(wrap(min(ab)), wrap(max(ab)))
)


class TestConflictRelation:
    @given(modes, ranges, modes, ranges)
    def test_symmetric(self, ma, ra, mb, rb):
        assert conflicts(ma, ra, mb, rb) == conflicts(mb, rb, ma, ra)

    @given(ranges, ranges)
    def test_lookup_never_conflicts_with_lookup(self, ra, rb):
        assert not conflicts(LockMode.REP_LOOKUP, ra, LockMode.REP_LOOKUP, rb)

    @given(modes, ranges, modes, ranges)
    def test_disjoint_never_conflicts(self, ma, ra, mb, rb):
        if not ra.intersects(rb):
            assert not conflicts(ma, ra, mb, rb)

    @given(ranges, ranges)
    def test_modify_conflicts_iff_intersecting(self, ra, rb):
        assert conflicts(LockMode.REP_MODIFY, ra, LockMode.REP_MODIFY, rb) == (
            ra.intersects(rb)
        )


# One random lock-request trace; the table must uphold its invariants.
request_traces = st.lists(
    st.tuples(st.integers(min_value=1, max_value=5), modes, ranges),
    min_size=1,
    max_size=30,
)


class TestTableInvariants:
    @given(request_traces)
    @settings(max_examples=100, deadline=None)
    def test_held_locks_never_mutually_conflict(self, trace):
        table = LockTable()
        for txn_id, mode, key_range in trace:
            table.acquire(txn_id, mode, key_range)
        held = table.all_held()
        for i, a in enumerate(held):
            for b in held[i + 1 :]:
                if a.txn_id != b.txn_id:
                    assert not conflicts(a.mode, a.key_range, b.mode, b.key_range)

    @given(request_traces)
    @settings(max_examples=100, deadline=None)
    def test_release_everything_leaves_table_idle(self, trace):
        table = LockTable()
        for txn_id, mode, key_range in trace:
            table.acquire(txn_id, mode, key_range)
        for txn_id in {t for t, _, _ in trace}:
            table.release_all(txn_id)
        assert table.is_idle()

    @given(request_traces)
    @settings(max_examples=100, deadline=None)
    def test_waiters_conflict_with_someone(self, trace):
        table = LockTable()
        for txn_id, mode, key_range in trace:
            table.acquire(txn_id, mode, key_range)
        # Every queued request must have at least one blocker edge.
        waiting = {r.txn_id for r in table.waiting_requests()}
        edge_waiters = {w for w, _ in table.waits_for_edges()}
        assert waiting == edge_waiters

    @given(request_traces)
    @settings(max_examples=60, deadline=None)
    def test_fifo_release_eventually_grants_everyone(self, trace):
        table = LockTable()
        pending = {}
        for txn_id, mode, key_range in trace:
            result = table.acquire(txn_id, mode, key_range)
            pending.setdefault(txn_id, 0)
        # Release transactions one at a time (in id order); everything
        # queued must eventually be granted or dropped with its owner.
        for txn_id in sorted(pending):
            table.release_all(txn_id)
        assert table.is_idle()


# -- equivalence with the scanning table ---------------------------------------


def _reference_conflicts(mode_a, range_a, mode_b, range_b):
    if mode_a is LockMode.REP_LOOKUP and mode_b is LockMode.REP_LOOKUP:
        return False
    return range_a.intersects(range_b)


class ReferenceLockTable:
    """The lock table as it was before the holder index: every grant
    scans every held lock and queued request, and every held lock is a
    :class:`Lock` object.  The oracle the indexed table must match."""

    def __init__(self) -> None:
        self._held: list[Lock] = []
        self._queue: list[LockRequest] = []
        self._seq = 0
        self.stats = LockTableStats()

    def acquire(self, txn_id, mode, key_range, wait=True):
        self.stats.acquisitions += 1
        blockers = self._blockers_for(txn_id, mode, key_range)
        if not blockers:
            self._held.append(Lock(txn_id, mode, key_range))
            self.stats.immediate_grants += 1
            return AcquireResult(AcquireStatus.GRANTED)
        if wait:
            self._queue.append(LockRequest(txn_id, mode, key_range, self._seq))
            self._seq += 1
        self.stats.waits += 1
        return AcquireResult(AcquireStatus.WAITING, blockers=tuple(blockers))

    def _blockers_for(self, txn_id, mode, key_range, queue_before=None):
        seen = {}
        for lock in self._held:
            if lock.txn_id != txn_id and _reference_conflicts(
                lock.mode, lock.key_range, mode, key_range
            ):
                seen.setdefault(lock.txn_id)
        for req in self._queue:
            if queue_before is not None and req.seq >= queue_before:
                break
            if req.txn_id != txn_id and _reference_conflicts(
                req.mode, req.key_range, mode, key_range
            ):
                seen.setdefault(req.txn_id)
        return list(seen)

    def release_all(self, txn_id):
        self._held = [l for l in self._held if l.txn_id != txn_id]
        self._queue = [r for r in self._queue if r.txn_id != txn_id]
        return self._promote_waiters()

    def _promote_waiters(self):
        granted = []
        still_waiting = []
        for req in self._queue:
            if self._blockers_for(req.txn_id, req.mode, req.key_range, req.seq):
                still_waiting.append(req)
            else:
                self._held.append(Lock(req.txn_id, req.mode, req.key_range))
                granted.append(req)
        self._queue = still_waiting
        return granted

    def all_held(self):
        return list(self._held)

    def held_by(self, txn_id):
        return [l for l in self._held if l.txn_id == txn_id]

    def waiting_requests(self):
        return list(self._queue)

    def holders(self):
        return {l.txn_id for l in self._held}

    def waits_for_edges(self):
        edges = []
        for req in self._queue:
            for blocker in self._blockers_for(
                req.txn_id, req.mode, req.key_range, req.seq
            ):
                edges.append((req.txn_id, blocker))
        return edges

    def is_idle(self):
        return not self._held and not self._queue


def _reference_acquire_all(table, txn_id, mode, key_ranges):
    """``acquire_all`` by definition: ``acquire(wait=False)`` per range
    up to the first refusal."""
    for key_range in key_ranges:
        result = table.acquire(txn_id, mode, key_range, wait=False)
        if not result.granted:
            return result.blockers
    return ()


# Ranges come from a narrow key space, so most pairs overlap.
# Each range also says whether the indexed table gets it as the plain
# ``(low, high)`` pair, the way a representative passes point ranges.
tagged_ranges = st.tuples(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
        lambda ab: KeyRange(wrap(min(ab)), wrap(max(ab)))
    ),
    st.booleans(),
)


def _table_steps(txn_count):
    txns = st.integers(min_value=1, max_value=txn_count)
    return st.one_of(
        st.tuples(st.just("acquire"), txns, modes, tagged_ranges, st.booleans()),
        # Queued requests are what the scan-free grant must not overlook.
        st.tuples(st.just("acquire"), txns, modes, tagged_ranges, st.just(True)),
        st.tuples(
            st.just("acquire_all"), txns, modes, st.lists(tagged_ranges, max_size=6)
        ),
        st.tuples(st.just("release"), txns),
    )


# Traces over 1-5 transactions: few transactions keep one of them the
# sole holder (the indexed table's scan-free case) for long stretches.
table_traces = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(_table_steps(n), min_size=10, max_size=40)
)


def _as_given(tagged):
    key_range, plain = tagged
    return (key_range[0], key_range[1]) if plain else key_range


def _assert_same_state(table, oracle):
    assert table.all_held() == oracle.all_held()
    for txn_id in range(1, 6):
        assert table.held_by(txn_id) == oracle.held_by(txn_id)
    assert table.waiting_requests() == oracle.waiting_requests()
    assert table.waits_for_edges() == oracle.waits_for_edges()
    assert table.holders() == oracle.holders()
    assert table.is_idle() == oracle.is_idle()
    assert table.stats == oracle.stats


class TestIndexedTableMatchesScanningTable:
    @given(table_traces)
    @settings(deadline=None)
    def test_every_step_decides_as_before(self, trace):
        table, oracle = LockTable(), ReferenceLockTable()
        for step in trace:
            kind, txn_id = step[0], step[1]
            if kind == "acquire":
                _, _, mode, tagged, wait = step
                got = table.acquire(txn_id, mode, _as_given(tagged), wait=wait)
                want = oracle.acquire(txn_id, mode, tagged[0], wait=wait)
                assert got.status is want.status
                assert got.blockers == want.blockers
            elif kind == "acquire_all":
                _, _, mode, tagged_list = step
                got = table.acquire_all(
                    txn_id, mode, [_as_given(t) for t in tagged_list]
                )
                want = _reference_acquire_all(
                    oracle, txn_id, mode, [t[0] for t in tagged_list]
                )
                assert got == want
            else:
                assert table.release_all(txn_id) == oracle.release_all(txn_id)
            _assert_same_state(table, oracle)
        for txn_id in range(1, 6):
            assert table.release_all(txn_id) == oracle.release_all(txn_id)
            _assert_same_state(table, oracle)
        assert table.is_idle()
