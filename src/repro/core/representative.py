"""Directory representatives: one replica of the directory data.

A representative is "an instance of an abstract object that stores one copy
of the directory data" (section 3.1).  It provides the five operations of
Figure 6 — DirRepLookup, DirRepPredecessor, DirRepSuccessor, DirRepInsert,
and DirRepCoalesce — each of which acquires the range lock the paper
specifies, writes redo records to a write-ahead log before mutating the
store, and registers undo records so the transaction can abort.

Representatives are crash-aware services (see :mod:`repro.net.node`): a
node crash discards the volatile store, lock table, and undo state;
recovery rebuilds the store by replaying the committed prefix of the log,
resolving in-doubt prepared transactions against the coordinator's
decision log.

Beyond the paper's five operations, :meth:`rep_neighbors_batch` implements
the optimization sketched in section 4: "if each member of a read quorum
sends the results of three successive DirRepPredecessor and
DirRepSuccessor operations in a single message, the real predecessor and
real successor will often be located using one remote procedure call."
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from typing import Any, Callable

from repro.core.entries import Entry, LookupReply, NeighborReply
from repro.core.errors import SnapshotUnavailableError, WouldBlockError
from repro.core.keys import BoundedKey, KeyRange
from repro.core.versions import Version
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_TRACER
from repro.storage.interface import RepresentativeStore
from repro.storage.snapshot import CheckpointPolicy
from repro.storage.sorted_store import SortedStore
from repro.storage.wal import WriteAheadLog
from repro.txn.ids import TxnId
from repro.txn.locks import LockMode, LockTable
from repro.txn.undo import UndoCoalesce, UndoInsert, UndoRecord


def _latched(method):
    """Run a service method under the representative's physical latch.

    The plain wrapper is the only thing untraced representatives ever
    execute — identical cost to having no tracing support at all.  A
    traced variant (recording a ``rep:<name>.<method>`` span annotated
    with how many redo records the call appended) hangs off the wrapper
    as ``_traced_impl``; representatives built with a recording tracer
    bind it per instance in ``__init__``.
    """

    name = method.__name__

    def wrapper(self, *args, **kwargs):
        with self._latch:
            return method(self, *args, **kwargs)

    def traced(self, *args, **kwargs):
        with self._latch:
            with self.tracer.span(f"rep:{self.name}.{name}") as span:
                lsn_before = self.wal._next_lsn
                result = method(self, *args, **kwargs)
                appended = self.wal._next_lsn - lsn_before
                if appended:
                    span.set("wal_records", appended)
                return result

    wrapper.__name__ = traced.__name__ = method.__name__
    wrapper.__doc__ = traced.__doc__ = method.__doc__
    wrapper._traced_impl = traced
    return wrapper



class DirectoryRepresentative:
    """One replica of a replicated directory (service object).

    Parameters
    ----------
    name:
        The representative's name within its suite ("A", "B", ...).
    store_factory:
        Constructor for the backing store; defaults to
        :class:`~repro.storage.sorted_store.SortedStore`.
    locking:
        When False, range locking is skipped entirely.  Useful for the
        serial paper simulations where exactly one transaction runs at a
        time and lock bookkeeping is pure overhead.
    checkpoint_policy:
        When to fold the log into a checkpoint; default never.
    decision_outcomes:
        Callable returning the coordinator's committed transaction ids,
        used to resolve in-doubt transactions at recovery.
    tracer:
        Span tracer shared with the cluster; defaults to the no-op
        tracer.
    metrics:
        Cluster metrics registry.  When given, the WAL publishes append
        counters under ``rep.<name>.wal`` and the lock table's counters
        appear as the ``rep.<name>.locks`` provider.
    """

    def __init__(
        self,
        name: str,
        store_factory: Callable[[], RepresentativeStore] = SortedStore,
        locking: bool = True,
        checkpoint_policy: CheckpointPolicy | None = None,
        decision_outcomes: Callable[[], frozenset[int]] | None = None,
        tracer: Any = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            # Swap every latched service method for its traced variant on
            # this instance; untraced representatives keep the plain
            # class-level wrappers at zero added cost.
            for attr in dir(type(self)):
                traced = getattr(
                    getattr(type(self), attr, None), "_traced_impl", None
                )
                if traced is not None:
                    setattr(self, attr, traced.__get__(self))
        self._store_factory = store_factory
        self.store: RepresentativeStore = store_factory()
        self.locking = locking
        self.locks = LockTable()
        self.wal = WriteAheadLog(
            metrics=metrics, metrics_prefix=f"rep.{name}.wal"
        )
        if metrics is not None:
            # Reads self.locks dynamically: the table is replaced on crash.
            metrics.provider(
                f"rep.{name}.locks",
                lambda: {
                    "acquisitions": self.locks.stats.acquisitions,
                    "immediate_grants": self.locks.stats.immediate_grants,
                    "waits": self.locks.stats.waits,
                },
            )
        self._undo: dict[TxnId, list[UndoRecord]] = {}
        self._prepared: set[TxnId] = set()
        # Transactions that have performed any operation here since the
        # last crash; prepare() votes no for unknown transactions because
        # their effects (if any) were lost with the volatile state.
        self._seen_txns: set[TxnId] = set()
        self._checkpoint_policy = checkpoint_policy or CheckpointPolicy()
        self._commits_since_checkpoint = 0
        self._decision_outcomes = decision_outcomes or (lambda: frozenset())
        # Physical latch (as distinct from the logical range locks): each
        # service call runs under it, so multi-threaded clients (see
        # repro.sim.threads) can never observe a store mid-mutation.
        # Serial simulations pay one uncontended RLock acquire per call.
        self._latch = threading.RLock()

    # ------------------------------------------------------------------
    # locking helper
    # ------------------------------------------------------------------

    def _lock(self, txn_id: TxnId, mode: LockMode, key_range: KeyRange) -> None:
        """Acquire or raise WouldBlockError (never queue on this sync path)."""
        self._seen_txns.add(txn_id)
        if not self.locking:
            return
        result = self.locks.acquire(txn_id, mode, key_range, wait=False)
        if not result.granted:
            raise WouldBlockError(txn_id, result.blockers)

    def _note_undo(self, txn_id: TxnId, record: UndoRecord) -> None:
        self._undo.setdefault(txn_id, []).append(record)

    # ------------------------------------------------------------------
    # Figure 6 operations
    # ------------------------------------------------------------------

    @_latched
    def rep_lookup(self, txn_id: TxnId, key: BoundedKey) -> LookupReply:
        """DirRepLookup(x): entry or gap version for x.

        Locks RepLookup(x, x).
        """
        self._lock(txn_id, LockMode.REP_LOOKUP, KeyRange.point(key))
        return self.store.lookup(key)

    @_latched
    def rep_lookup_version(self, txn_id: TxnId, key: BoundedKey) -> Version:
        """Version-only DirRepLookup: the entry's or containing gap's version.

        Used by the zero-vote-hint read protocol (see
        :mod:`repro.core.hints`): version probes are tiny messages, so a
        client can validate a nearby hint's data against a read quorum
        without shipping values from the quorum.  Locks RepLookup(x, x).
        """
        self._lock(txn_id, LockMode.REP_LOOKUP, KeyRange.point(key))
        return self.store.lookup(key).version

    @_latched
    def rep_predecessor(self, txn_id: TxnId, key: BoundedKey) -> NeighborReply:
        """DirRepPredecessor(x): nearest entry below x plus the gap version.

        Locks RepLookup(y, x) where y is the key returned — the whole
        range implicitly observed to be empty, protecting against
        phantoms.
        """
        reply = self.store.predecessor(key)
        self._lock(txn_id, LockMode.REP_LOOKUP, KeyRange(reply.key, key))
        return reply

    @_latched
    def rep_successor(self, txn_id: TxnId, key: BoundedKey) -> NeighborReply:
        """DirRepSuccessor(x): nearest entry above x plus the gap version.

        Locks RepLookup(x, y) where y is the key returned.
        """
        reply = self.store.successor(key)
        self._lock(txn_id, LockMode.REP_LOOKUP, KeyRange(key, reply.key))
        return reply

    @_latched
    def rep_neighbors_batch(
        self, txn_id: TxnId, key: BoundedKey, direction: str, count: int
    ) -> list[NeighborReply]:
        """Up to ``count`` successive predecessors (or successors) of ``key``.

        The section 4 batching optimization: one message carries several
        neighbor results, so the suite's real-predecessor search usually
        needs a single RPC round per quorum member.  Locks RepLookup over
        the whole range scanned.
        """
        return self._neighbors(txn_id, key, direction, count)

    @_latched
    def rep_neighbors_many(
        self, txn_id: TxnId, searches: "list[tuple[BoundedKey, str, int]]"
    ) -> "list[list[NeighborReply]]":
        """:meth:`rep_neighbors_batch` for every search a wave has under
        way, in one message.

        ``searches`` lists ``(key, direction, count)``; replies are
        positional, each exactly what its own ``rep_neighbors_batch``
        would have returned, under the same locks.  A wave's deletes
        search both directions of every key this way
        (:mod:`repro.core.batch`), so a step of all their walks costs
        one message per read-quorum member.
        """
        return [self._neighbors(txn_id, *search) for search in searches]

    def _neighbors(
        self, txn_id: TxnId, key: BoundedKey, direction: str, count: int
    ) -> list[NeighborReply]:
        if direction not in ("pred", "succ"):
            raise ValueError(f"direction must be 'pred' or 'succ': {direction!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1: {count}")
        replies: list[NeighborReply] = []
        cursor = key
        for _ in range(count):
            if direction == "pred":
                if cursor.is_low:
                    break
                reply = self.store.predecessor(cursor)
            else:
                if cursor.is_high:
                    break
                reply = self.store.successor(cursor)
            replies.append(reply)
            cursor = reply.key
        if replies:
            if direction == "pred":
                scanned = KeyRange(replies[-1].key, key)
            else:
                scanned = KeyRange(key, replies[-1].key)
            self._lock(txn_id, LockMode.REP_LOOKUP, scanned)
        return replies

    @_latched
    def rep_insert(
        self, txn_id: TxnId, key: BoundedKey, version: Version, value: Any
    ) -> None:
        """DirRepInsert(x, v, z): create or overwrite the entry for x.

        Locks RepModify(x, x); logs redo before touching the store.
        """
        self._lock(txn_id, LockMode.REP_MODIFY, KeyRange.point(key))
        self.wal.log_insert(txn_id, key, version, value)
        result = self.store.insert(key, version, value)
        self._note_undo(
            txn_id,
            UndoInsert(
                key,
                replaced=result.replaced,
                split_gap_version=result.split_gap_version,
            ),
        )

    @_latched
    def rep_lookup_many(
        self, txn_id: TxnId, keys: "list[BoundedKey]"
    ) -> "list[LookupReply]":
        """DirRepLookup for a whole wave of keys in one message.

        The section 4 batching optimization applied to the grouped
        quorum round (:mod:`repro.core.batch`): instead of one
        ``rep_lookup`` message per key per quorum member, one message
        per member carries every distinct key in the wave, so a wave's
        read round costs R messages regardless of its size.  Locks
        RepLookup(x, x) per key; replies are positional.
        """
        replies: list[LookupReply] = []
        for key in keys:
            self._lock(txn_id, LockMode.REP_LOOKUP, KeyRange.point(key))
            replies.append(self.store.lookup(key))
        return replies

    @_latched
    def rep_insert_many(
        self, txn_id: TxnId, rows: "list[tuple[BoundedKey, Version, Any]]"
    ) -> None:
        """DirRepInsert for every folded final entry in one message.

        The write-side half of the grouped round's message batching: one
        message per write-quorum member installs the wave's final entry
        for every written key, and the redo records land in the WAL as
        one group (the group commit — a single prepare/commit pair then
        covers them all).  Locks RepModify(x, x) and notes an undo per
        key, exactly as :meth:`rep_insert` does.
        """
        for key, version, value in rows:
            self._lock(txn_id, LockMode.REP_MODIFY, KeyRange.point(key))
            self.wal.log_insert(txn_id, key, version, value)
            result = self.store.insert(key, version, value)
            self._note_undo(
                txn_id,
                UndoInsert(
                    key,
                    replaced=result.replaced,
                    split_gap_version=result.split_gap_version,
                ),
            )

    @_latched
    def rep_coalesce(
        self, txn_id: TxnId, low: BoundedKey, high: BoundedKey, version: Version
    ):
        """DirRepCoalesce(l, h, v): delete entries strictly inside (l, h).

        The covered gaps merge into one gap with version v.  Locks
        RepModify(l, h); returns the store's
        :class:`~repro.storage.interface.CoalesceResult`, whose removed
        segment feeds the paper's delete-overhead statistics.
        """
        return self._coalesce(txn_id, low, high, version)

    @_latched
    def rep_coalesce_many(
        self,
        txn_id: TxnId,
        ranges: "list[tuple[BoundedKey, BoundedKey, Version]]",
    ) -> list:
        """DirRepCoalesce for every range a wave's deletes found, in one
        message.

        ``ranges`` lists ``(low, high, version)``; each is locked,
        redo-logged, applied and given its own undo record exactly as
        :meth:`rep_coalesce` would, in order, and the results are
        positional.
        """
        return [self._coalesce(txn_id, *each) for each in ranges]

    def _coalesce(
        self, txn_id: TxnId, low: BoundedKey, high: BoundedKey, version: Version
    ):
        self._lock(txn_id, LockMode.REP_MODIFY, KeyRange(low, high))
        self.wal.log_coalesce(txn_id, low, high, version)
        result = self.store.coalesce(low, high, version)
        self._note_undo(txn_id, UndoCoalesce(low, high, result.removed))
        return result

    # ------------------------------------------------------------------
    # transaction protocol (called by the coordinator)
    # ------------------------------------------------------------------

    @_latched
    def prepare(self, txn_id: TxnId) -> bool:
        """Phase one of 2PC: vote yes iff the transaction's state survives.

        The representative votes yes only for transactions it has seen
        since its last crash: if the node crashed mid-transaction, that
        transaction's effects here were lost with the volatile store, so
        a yes vote would commit a torn write.
        """
        if txn_id not in self._seen_txns:
            return False
        self.wal.log_prepare(txn_id)
        self._prepared.add(txn_id)
        return True

    @_latched
    def commit(self, txn_id: TxnId) -> None:
        """Phase two: make the transaction's effects durable and visible."""
        self.wal.log_commit(txn_id)
        self._undo.pop(txn_id, None)
        self._prepared.discard(txn_id)
        self._seen_txns.discard(txn_id)
        if self.locking:
            self.locks.release_all(txn_id)
        self._commits_since_checkpoint += 1
        self._maybe_checkpoint()

    @_latched
    def abort(self, txn_id: TxnId) -> None:
        """Roll the transaction back: apply undo records in reverse."""
        for record in reversed(self._undo.pop(txn_id, [])):
            record.apply(self.store)
        self.wal.log_abort(txn_id)
        self._prepared.discard(txn_id)
        self._seen_txns.discard(txn_id)
        if self.locking:
            self.locks.release_all(txn_id)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        quiescent = not self._undo and (not self.locking or self.locks.is_idle())
        if quiescent and self._checkpoint_policy.should_checkpoint(
            self._commits_since_checkpoint, len(self.wal)
        ):
            self.checkpoint()

    @_latched
    def checkpoint(self) -> None:
        """Fold the current state into the log (must be quiescent)."""
        if self._undo:
            raise RuntimeError(
                f"representative {self.name} has active transactions; "
                "cannot checkpoint"
            )
        self.wal.log_checkpoint(self.store.snapshot())
        self._commits_since_checkpoint = 0

    # ------------------------------------------------------------------
    # replica lifecycle (snapshot export, log shipping, reconcile)
    # ------------------------------------------------------------------

    @_latched
    def rep_export_snapshot(self):
        """A consistent (snapshot, watermark) pair for replica bootstrap.

        The watermark is the LSN of the last log record the snapshot
        reflects; a joiner catches up by polling :meth:`rep_wal_since`
        from it.  Export refuses while transactions are in flight here —
        their uncommitted effects are in the store and would leak into
        the copy — so callers retry after the representative quiesces.
        """
        if self._undo:
            raise SnapshotUnavailableError(self.name, len(self._undo))
        return (self.store.snapshot(), self.wal.next_lsn - 1)

    @_latched
    def rep_wal_since(self, lsn: int):
        """Log records appended after ``lsn``, for shipping to a joiner.

        Returns ``(watermark, records)`` where ``watermark`` is the new
        high-water mark and ``records`` are plain
        ``(lsn, txn_id, kind, payload)`` tuples (wire-friendly).
        Checkpoint records are elided — a consumer polling from a valid
        watermark already holds everything a checkpoint folds up.  Raises
        :class:`~repro.core.errors.RecoveryError` when checkpoint
        truncation discarded records past ``lsn``; the caller must fall
        back to a fresh snapshot.
        """
        from repro.storage.wal import OP_CHECKPOINT

        records = self.wal.records_since(lsn)
        shipped = [
            (r.lsn, r.txn_id, r.kind, r.payload)
            for r in records
            if r.kind != OP_CHECKPOINT
        ]
        return (self.wal.next_lsn - 1, shipped)

    @_latched
    def rep_reconcile(self, pieces) -> tuple[int, int]:
        """Monotone-merge peer facts into this replica; returns counts.

        ``pieces`` are ``("entry", key, version, value)`` and
        ``("gap", low, high, version)`` tuples applied in order.  Every
        piece is guarded so the merge can only move this replica toward
        strictly newer information:

        * an entry is installed only when its version is strictly newer
          than whatever fact (entry or containing gap) this replica
          holds for the key — a stale or ghost entry never propagates;
        * a gap is adopted only over exactly its own interval, only when
          both bounding entries are stored here, and only when every
          fact strictly inside the interval is strictly older than the
          gap's version — an absence fact never outruns the interval
          that created it.

        Pieces whose range a live transaction has locked are skipped
        (counted, retried by the next sweep) rather than waited on, so
        reconciliation can never deadlock with client traffic.  Applied
        mutations are redo-logged under a fresh negative *admin*
        transaction id and sealed with a commit record, so a later crash
        replays them like any committed work.

        Returns ``(applied, skipped)`` — pieces merged vs. skipped for
        lock contention.  Pieces that are simply not newer count as
        neither.
        """
        admin_txn = -self.wal.next_lsn
        applied = 0
        skipped = 0
        wrote = False
        try:
            for piece in pieces:
                kind = piece[0]
                if kind == "entry":
                    _, key, version, value = piece
                    try:
                        self._lock(
                            admin_txn, LockMode.REP_MODIFY, KeyRange.point(key)
                        )
                    except WouldBlockError:
                        skipped += 1
                        continue
                    fact = self.store.lookup(key)
                    if version > fact.version:
                        self.wal.log_insert(admin_txn, key, version, value)
                        self.store.insert(key, version, value)
                        wrote = True
                        applied += 1
                elif kind == "gap":
                    _, low, high, version = piece
                    try:
                        self._lock(
                            admin_txn, LockMode.REP_MODIFY, KeyRange(low, high)
                        )
                    except WouldBlockError:
                        skipped += 1
                        continue
                    if not (
                        self.store.contains(low) and self.store.contains(high)
                    ):
                        continue
                    if not self._gap_dominates(low, high, version):
                        continue
                    self.wal.log_coalesce(admin_txn, low, high, version)
                    self.store.coalesce(low, high, version)
                    wrote = True
                    applied += 1
                else:
                    raise ValueError(f"unknown reconcile piece kind {kind!r}")
        finally:
            if wrote:
                self.wal.log_commit(admin_txn)
            if self.locking:
                self.locks.release_all(admin_txn)
            self._seen_txns.discard(admin_txn)
        return (applied, skipped)

    def _gap_dominates(self, low: BoundedKey, high: BoundedKey, version) -> bool:
        """True when every fact strictly inside (low, high) is < version.

        Walks the stored successor chain from ``low`` to ``high`` (both
        must be stored entries), checking each interior entry version and
        each covered gap version.  Equal versions do NOT dominate, which
        makes re-applying the same gap a no-op.
        """
        cursor = low
        while True:
            reply = self.store.successor(cursor)
            if reply.gap_version >= version:
                return False
            if reply.key >= high:
                return reply.key == high
            if reply.entry_version >= version:
                return False
            cursor = reply.key

    @_latched
    def rep_tiling_digest(self) -> str:
        """A digest of the full entry/gap tiling, for anti-entropy.

        Two replicas whose stores hold identical entries *and* identical
        gap versions produce identical digests; any divergence — a stale
        entry, a ghost, a lagging gap version — changes it.  Comparing
        digests is how the anti-entropy sweep finds pairs worth
        reconciling without shipping state.
        """
        snap = self.store.snapshot()
        canon = (
            tuple(
                (e.key.rank.value, e.key.payload, e.version, e.value)
                for e in snap.entries
            ),
            tuple(snap.gap_versions),
        )
        return hashlib.blake2b(
            pickle.dumps(canon), digest_size=16
        ).hexdigest()

    # ------------------------------------------------------------------
    # crash / recovery (see repro.net.node.CrashAware)
    # ------------------------------------------------------------------

    @_latched
    def on_crash(self) -> None:
        """Lose all volatile state: store, locks, undo, prepared set."""
        self.store = self._store_factory()
        self.locks = LockTable()
        self._undo = {}
        self._prepared = set()
        self._seen_txns = set()

    @_latched
    def on_recover(self) -> None:
        """Rebuild the store from the log.

        In-doubt prepared transactions are resolved against the
        coordinator's decision log: decided-commit ⇒ replayed; anything
        else ⇒ presumed abort (not replayed).
        """
        self.store = self._store_factory()
        in_doubt = self.wal.in_doubt_txns()
        resolved_commit = in_doubt & set(self._decision_outcomes())
        self.wal.replay_into(self.store, extra_committed=resolved_commit)

    # ------------------------------------------------------------------
    # introspection (tests, statistics, figures)
    # ------------------------------------------------------------------

    def entry_count(self) -> int:
        """Number of user entries currently stored."""
        return self.store.entry_count()

    def contains(self, key: BoundedKey) -> bool:
        """True if an entry for ``key`` is stored."""
        return self.store.contains(key)

    def entries_between(
        self, low: BoundedKey, high: BoundedKey
    ) -> tuple[Entry, ...]:
        """Entries strictly inside (low, high) — used by delete statistics."""
        return self.store.entries_between(low, high)

    def user_entries(self) -> tuple[Entry, ...]:
        """All non-sentinel entries."""
        return self.store.user_entries()

    def __repr__(self) -> str:
        return f"DirectoryRepresentative({self.name}, {self.entry_count()} entries)"
