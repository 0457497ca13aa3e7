"""Type-specific range locking for directory representatives (Figure 7).

Each directory representative synchronizes the operations of concurrent
transactions with two lock classes generalized over *ranges of keys*:

* ``RepLookup(sigma, tau)`` — set by the inquiry operations DirRepLookup,
  DirRepPredecessor, and DirRepSuccessor on the range of keys they
  explicitly or implicitly access;
* ``RepModify(sigma, tau)`` — set by DirRepInsert and DirRepCoalesce on
  the keys of the entries they modify.

The compatibility relation (paper, Figure 7): locks are compatible except
that a RepModify may not intersect a range locked by *any* other
transaction's lock (lookup or modify), and a RepLookup may not intersect a
range RepModify-locked by another transaction.  Equivalently: two locks
conflict iff their ranges intersect and at least one of them is RepModify.
The ranges are closed intervals, so locking ``[k .. k]`` locks a single
key, and DirRepPredecessor(x) locks ``[y .. x]`` where y is the key it
returns — the *phantom-protection* trick that makes the neighbor scans
serializable.

Grants are FIFO-fair: a request must be compatible with every lock held by
other transactions *and* with every earlier-queued conflicting request, so
writers cannot starve behind a stream of readers.

The table keeps its granted locks as plain ``(txn_id, mode, key_range)``
tuples in grant order, indexed by a per-transaction holder count.  Only
another transaction's lock or a queued request can refuse a grant, so when
the queue is empty and no other transaction holds anything here — always
the case on a served replica, which has one transaction in flight — a
grant scans nothing and builds no object: it appends one tuple and returns
one shared :class:`AcquireResult`.  :class:`Lock` objects are built only
for introspection (:meth:`LockTable.held_by`, :meth:`LockTable.all_held`).
A range may be a :class:`~repro.core.keys.KeyRange` or the plain pair
``(low, high)``; the table only reads ``r[0]`` and ``r[1]``.

:meth:`LockTable.acquire_all` locks a message's whole list of ranges in one
call with *prefix* semantics: it is ``acquire(..., wait=False)`` on each
range in order up to the first refusal, whose blockers it returns; the
ranges before that refusal stay granted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.core.keys import KeyRange
from repro.txn.ids import TxnId


class LockMode(enum.Enum):
    """The two lock classes of Figure 7."""

    REP_LOOKUP = "RepLookup"
    REP_MODIFY = "RepModify"


def conflicts(
    mode_a: LockMode, range_a: KeyRange, mode_b: LockMode, range_b: KeyRange
) -> bool:
    """True iff two locks held by *different* transactions conflict.

    Figure 7: conflict iff the ranges intersect and at least one lock is
    RepModify.
    """
    if mode_a is LockMode.REP_LOOKUP and mode_b is LockMode.REP_LOOKUP:
        return False
    # KeyRange.intersects, read off the pairs: a range may be the plain
    # ``(low, high)`` tuple.
    return range_a[0] <= range_b[1] and range_b[0] <= range_a[1]


@dataclass(frozen=True, slots=True)
class Lock:
    """A granted lock: holder, mode, range."""

    txn_id: TxnId
    mode: LockMode
    key_range: KeyRange


@dataclass(frozen=True, slots=True)
class LockRequest:
    """A queued (not yet granted) lock request."""

    txn_id: TxnId
    mode: LockMode
    key_range: KeyRange
    seq: int  # queue arrival order


class AcquireStatus(enum.Enum):
    """Outcome of :meth:`LockTable.acquire`."""

    GRANTED = "granted"
    WAITING = "waiting"


@dataclass(frozen=True, slots=True)
class AcquireResult:
    """Grant decision plus, when waiting, the conflicting transactions."""

    status: AcquireStatus
    blockers: tuple[TxnId, ...] = ()

    @property
    def granted(self) -> bool:
        return self.status is AcquireStatus.GRANTED


#: The one result every grant returns (the dataclass is frozen).
_GRANTED = AcquireResult(AcquireStatus.GRANTED)


@dataclass
class LockTableStats:
    """Counters the concurrency benchmarks read."""

    acquisitions: int = 0
    immediate_grants: int = 0
    waits: int = 0

    def reset(self) -> None:
        self.acquisitions = 0
        self.immediate_grants = 0
        self.waits = 0


class LockTable:
    """The lock table of one directory representative.

    Strict two-phase locking is enforced by the transaction layer: locks
    are only released via :meth:`release_all` at commit or abort.
    """

    def __init__(self) -> None:
        # Granted locks in grant order, as ``(txn_id, mode, key_range)``.
        self._held: list[tuple[TxnId, LockMode, KeyRange]] = []
        # How many entries of ``_held`` each holding transaction has.
        self._holders: dict[TxnId, int] = {}
        self._queue: list[LockRequest] = []
        self._seq = 0
        self.stats = LockTableStats()

    # -- acquisition ---------------------------------------------------------

    def acquire(
        self,
        txn_id: TxnId,
        mode: LockMode,
        key_range: KeyRange,
        wait: bool = True,
    ) -> AcquireResult:
        """Request a lock; grant immediately or join the FIFO queue.

        A transaction's own locks never conflict with its new requests
        (re-entrancy, including RepLookup→RepModify upgrades on the same
        range, provided no other transaction holds a conflicting lock).

        With ``wait=False`` a conflicting request is *not* queued: the
        caller gets WAITING with the blocker set and decides what to do
        (the synchronous representative path raises WouldBlockError).
        """
        stats = self.stats
        stats.acquisitions += 1
        holders = self._holders
        # Only another transaction's lock or a queued request can block;
        # with neither, the grant needs no scan.
        if self._queue or (holders and (txn_id not in holders or len(holders) > 1)):
            blockers = self._blockers_for(txn_id, mode, key_range)
            if blockers:
                if wait:
                    self._queue.append(
                        LockRequest(txn_id, mode, key_range, self._seq)
                    )
                    self._seq += 1
                stats.waits += 1
                return AcquireResult(AcquireStatus.WAITING, blockers=tuple(blockers))
        self._held.append((txn_id, mode, key_range))
        if txn_id in holders:
            holders[txn_id] += 1
        else:
            holders[txn_id] = 1
        stats.immediate_grants += 1
        return _GRANTED

    def acquire_all(
        self, txn_id: TxnId, mode: LockMode, ranges: Sequence[KeyRange]
    ) -> tuple[TxnId, ...]:
        """Lock every range of ``ranges`` in order, without queueing.

        Exactly ``acquire(txn_id, mode, r, wait=False)`` for each ``r`` in
        turn, stopping at the first refusal: returns that refusal's
        blockers, or ``()`` when every range was granted.  The ranges
        before a refusal stay granted, and every range tried is counted
        in :attr:`stats`.  When no other transaction holds or waits for a
        lock here (always, on a served replica) the whole list is granted
        without a scan.
        """
        holders = self._holders
        if self._queue or (holders and (txn_id not in holders or len(holders) > 1)):
            for key_range in ranges:
                result = self.acquire(txn_id, mode, key_range, wait=False)
                if result is not _GRANTED:
                    return result.blockers
            return ()
        append = self._held.append
        count = 0
        for key_range in ranges:
            append((txn_id, mode, key_range))
            count += 1
        if count:
            if txn_id in holders:
                holders[txn_id] += count
            else:
                holders[txn_id] = count
            stats = self.stats
            stats.acquisitions += count
            stats.immediate_grants += count
        return ()

    def _blockers_for(
        self,
        txn_id: TxnId,
        mode: LockMode,
        key_range: KeyRange,
        queue_before: int | None = None,
    ) -> list[TxnId]:
        """Transactions this request must wait for (empty = grantable)."""
        seen: dict[TxnId, None] = {}
        for holder, held_mode, held_range in self._held:
            if holder != txn_id and conflicts(held_mode, held_range, mode, key_range):
                seen.setdefault(holder)
        for req in self._queue:
            if queue_before is not None and req.seq >= queue_before:
                break
            if req.txn_id != txn_id and conflicts(
                req.mode, req.key_range, mode, key_range
            ):
                # FIFO fairness: conflicting earlier waiters block us too.
                seen.setdefault(req.txn_id)
        return list(seen)

    # -- release ------------------------------------------------------------

    def release_all(self, txn_id: TxnId) -> list[LockRequest]:
        """Drop every lock and queued request of ``txn_id``.

        Returns the queued requests of *other* transactions that become
        grantable as a result (already granted and recorded as held); the
        caller wakes those transactions.
        """
        holders = self._holders
        if holders.pop(txn_id, None) is not None:
            if holders:
                self._held = [l for l in self._held if l[0] != txn_id]
            else:
                self._held.clear()
        if not self._queue:
            return []
        self._queue = [r for r in self._queue if r.txn_id != txn_id]
        return self._promote_waiters()

    def _promote_waiters(self) -> list[LockRequest]:
        """Grant queued requests that are now compatible, in FIFO order."""
        granted: list[LockRequest] = []
        still_waiting: list[LockRequest] = []
        holders = self._holders
        for req in self._queue:
            if self._blockers_for(req.txn_id, req.mode, req.key_range, req.seq):
                still_waiting.append(req)
            else:
                self._held.append((req.txn_id, req.mode, req.key_range))
                holders[req.txn_id] = holders.get(req.txn_id, 0) + 1
                granted.append(req)
        self._queue = still_waiting
        return granted

    # -- introspection -----------------------------------------------------------

    def held_by(self, txn_id: TxnId) -> list[Lock]:
        """Locks currently held by ``txn_id``."""
        return [_as_lock(*l) for l in self._held if l[0] == txn_id]

    def all_held(self) -> list[Lock]:
        """Every held lock, in grant order."""
        return [_as_lock(*l) for l in self._held]

    def waiting_requests(self) -> list[LockRequest]:
        """Every queued request, in FIFO order."""
        return list(self._queue)

    def holders(self) -> set[TxnId]:
        """Transactions currently holding at least one lock."""
        return set(self._holders)

    def holds(self, txn_id: TxnId) -> bool:
        """True if ``txn_id`` holds at least one lock."""
        return txn_id in self._holders

    def waits_for_edges(self) -> list[tuple[TxnId, TxnId]]:
        """(waiter, blocker) pairs for the deadlock detector."""
        edges: list[tuple[TxnId, TxnId]] = []
        for req in self._queue:
            for blocker in self._blockers_for(
                req.txn_id, req.mode, req.key_range, req.seq
            ):
                edges.append((req.txn_id, blocker))
        return edges

    def is_idle(self) -> bool:
        """True when no locks are held and nothing is queued."""
        return not self._holders and not self._queue


def _as_lock(txn_id: TxnId, mode: LockMode, key_range: KeyRange) -> Lock:
    """A held entry as a :class:`Lock`, its range a :class:`KeyRange`."""
    if type(key_range) is not KeyRange:
        key_range = KeyRange(*key_range)
    return Lock(txn_id, mode, key_range)
