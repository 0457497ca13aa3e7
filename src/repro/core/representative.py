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

A served wave (:mod:`repro.core.batch`) ends its transaction at a
representative in one of three ways beside the classic ``prepare``: its
last write here carries the vote (``vote=True`` on
:meth:`rep_write_many`), a replica it only
read votes read-only, or a wave that only reads is released with its
reply (``release=True`` on :meth:`rep_lookup_many`).  A transaction that has
voted here may do nothing more here.

Beyond the paper's five operations, :meth:`rep_neighbors_batch` implements
the optimization sketched in section 4: "if each member of a read quorum
sends the results of three successive DirRepPredecessor and
DirRepSuccessor operations in a single message, the real predecessor and
real successor will often be located using one remote procedure call."
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Callable, Sequence

from repro.core.entries import Entry, LookupReply, NeighborReply
from repro.core.errors import (
    SnapshotUnavailableError,
    WouldBlockError,
)
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
from repro.txn.twopc import READ_ONLY
from repro.txn.undo import UndoCoalesce, UndoInsert, UndoRecord


#: Beside every ``rep_*`` method, the service methods a traced
#: representative records, each as a ``rep:<name>.<method>`` span
#: annotated with how many redo records the call appended.
_TRACED = ("prepare", "commit", "abort", "checkpoint", "on_crash", "on_recover")


def _traced(rep: "DirectoryRepresentative", method: Callable) -> Callable:
    label = f"rep:{rep.name}.{method.__name__}"

    def traced(*args, **kwargs):
        with rep.tracer.span(label) as span:
            lsn_before = rep.wal._next_lsn
            result = method(rep, *args, **kwargs)
            appended = rep.wal._next_lsn - lsn_before
            if appended:
                span.set("wal_records", appended)
            return result

    return traced


class DirectoryRepresentative:
    """One replica of a replicated directory (service object).

    Parameters
    ----------
    name:
        The representative's name within its suite ("A", "B", ...).
    store_factory:
        Constructor for the backing store; defaults to
        :class:`~repro.storage.sorted_store.SortedStore`.
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
        checkpoint_policy: CheckpointPolicy | None = None,
        decision_outcomes: Callable[[], frozenset[int]] | None = None,
        tracer: Any = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.name = name
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.enabled:
            # Wrap each service method on this instance; untraced
            # representatives run the plain methods at zero added cost.
            for attr in dir(type(self)):
                if attr.startswith("rep_") or attr in _TRACED:
                    method = getattr(type(self), attr)
                    setattr(self, attr, _traced(self, method))
        self._store_factory = store_factory
        self.store: RepresentativeStore = store_factory()
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
        self._checkpoint_policy = checkpoint_policy or CheckpointPolicy()
        self._commits_since_checkpoint = 0
        self._decision_outcomes = decision_outcomes or (lambda: frozenset())

    # ------------------------------------------------------------------
    # locking helper
    # ------------------------------------------------------------------

    def _lock(
        self, txn_id: TxnId, mode: LockMode, ranges: "Sequence[KeyRange]"
    ) -> None:
        """Lock every range in order, or raise WouldBlockError at the
        first refusal (never queue on this sync path); the ranges before
        it stay locked.

        A point range is passed as the plain pair ``(key, key)``.

        Every Figure 6 operation comes through here, so this is where a
        transaction that has already voted is refused — past its lock
        point, anything more would be a write or lock the vote did not
        cover.  That is a coordinator fault, so it raises ``RuntimeError``,
        which no caller retries or falls back from.
        """
        if txn_id in self._prepared:
            raise RuntimeError(
                f"representative {self.name}: transaction {txn_id} has "
                "already voted"
            )
        blockers = self.locks.acquire_all(txn_id, mode, ranges)
        if blockers:
            raise WouldBlockError(txn_id, blockers)

    def _note_undo(self, txn_id: TxnId, record: UndoRecord) -> None:
        self._undo.setdefault(txn_id, []).append(record)

    # ------------------------------------------------------------------
    # Figure 6 operations
    # ------------------------------------------------------------------

    def rep_lookup(self, txn_id: TxnId, key: BoundedKey) -> LookupReply:
        """DirRepLookup(x): entry or gap version for x.

        Locks RepLookup(x, x).
        """
        self._lock(txn_id, LockMode.REP_LOOKUP, ((key, key),))
        return self.store.lookup(key)

    def rep_lookup_version(self, txn_id: TxnId, key: BoundedKey) -> Version:
        """Version-only DirRepLookup: the entry's or containing gap's version.

        Used by the zero-vote-hint read protocol (see
        :mod:`repro.core.hints`): version probes are tiny messages, so a
        client can validate a nearby hint's data against a read quorum
        without shipping values from the quorum.  Locks RepLookup(x, x).
        """
        self._lock(txn_id, LockMode.REP_LOOKUP, ((key, key),))
        return self.store.lookup(key).version

    def rep_predecessor(self, txn_id: TxnId, key: BoundedKey) -> NeighborReply:
        """DirRepPredecessor(x): nearest entry below x plus the gap version.

        Locks RepLookup(y, x) where y is the key returned — the whole
        range implicitly observed to be empty, protecting against
        phantoms.
        """
        reply = self.store.predecessor(key)
        self._lock(txn_id, LockMode.REP_LOOKUP, ((reply.key, key),))
        return reply

    def rep_successor(self, txn_id: TxnId, key: BoundedKey) -> NeighborReply:
        """DirRepSuccessor(x): nearest entry above x plus the gap version.

        Locks RepLookup(x, y) where y is the key returned.
        """
        reply = self.store.successor(key)
        self._lock(txn_id, LockMode.REP_LOOKUP, ((key, reply.key),))
        return reply

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

    def rep_neighbors_many(
        self, txn_id: TxnId, searches: "list[tuple[BoundedKey, str, int]]"
    ) -> "list[list[NeighborReply]]":
        """:meth:`rep_neighbors_batch` for every search a wave has under
        way, in one message.

        ``searches`` lists ``(key, direction, count)``; replies are
        positional, each exactly what its own ``rep_neighbors_batch``
        would have returned, under the same locks.  A wave's deletes
        take the first step of both directions of every key in its read
        round (:meth:`rep_lookup_many`'s ``searches``) and refill here
        (:mod:`repro.core.batch`), so a step of all their walks past a
        ghost costs one message per read-quorum member it ran dry.
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
                scanned = (replies[-1].key, key)
            else:
                scanned = (key, replies[-1].key)
            self._lock(txn_id, LockMode.REP_LOOKUP, (scanned,))
        return replies

    def rep_insert(
        self, txn_id: TxnId, key: BoundedKey, version: Version, value: Any
    ) -> None:
        """DirRepInsert(x, v, z): create or overwrite the entry for x.

        Locks RepModify(x, x); logs redo before touching the store.
        """
        self._insert(txn_id, key, version, value)

    def _insert(
        self,
        txn_id: TxnId,
        key: BoundedKey,
        version: Version,
        value: Any,
        copied_for: "tuple | None" = None,
    ) -> None:
        self._lock(txn_id, LockMode.REP_MODIFY, ((key, key),))
        self.wal.log_insert(txn_id, key, version, value)
        result = self.store.insert(key, version, value)
        self._note_undo(
            txn_id,
            UndoInsert(
                key,
                replaced=result.replaced,
                split_gap_version=result.split_gap_version,
                copied_for=copied_for,
            ),
        )

    def rep_lookup_many(
        self,
        txn_id: TxnId,
        keys: "list[BoundedKey]",
        searches: "Sequence[tuple[BoundedKey, str, int]]" = (),
        release: bool = False,
    ) -> "list[Any]":
        """DirRepLookup for a whole wave of keys in one message, then the
        first step of each of the wave's neighbour searches.

        The section 4 batching optimization applied to the grouped
        quorum round (:mod:`repro.core.batch`): instead of one
        ``rep_lookup`` message per key per quorum member, one message
        per member carries every distinct key in the wave, so a wave's
        read round costs R messages regardless of its size.  Locks
        RepLookup(x, x) on every key, in order, with one lock-table call
        before any lookup (a refusal leaves the keys before it locked).
        ``searches`` lists ``(key, direction, count)`` as
        :meth:`rep_neighbors_many` takes them, each run after the lookups
        under the locks it would have taken.  Replies are positional: one
        :class:`~repro.core.entries.LookupReply` per key, then one
        neighbour batch per search.

        With ``release`` (a wave that only reads sends it, however many
        keys, with no search), the call is the whole transaction here:
        every key's lock is taken, the keys read and the locks released
        before the reply leaves, refused or not, and nothing is logged.  No ``prepare`` or ``commit``
        follows.  It must be the transaction's first operation here, or
        releasing would drop locks it took before, so it is refused while
        the transaction holds a lock here; a re-sent one (its reply lost)
        finds none held and simply runs again.
        """
        if release and self.locks.holds(txn_id):
            raise RuntimeError(
                f"representative {self.name}: transaction {txn_id} is "
                "already under way here; a released read must be its only "
                "operation"
            )
        try:
            if keys:
                self._lock(
                    txn_id, LockMode.REP_LOOKUP, [(key, key) for key in keys]
                )
            lookup = self.store.lookup
            replies: list[Any] = [lookup(key) for key in keys]
            if searches:
                neighbors = self._neighbors
                replies += [neighbors(txn_id, *search) for search in searches]
            return replies
        finally:
            if release:
                self.locks.release_all(txn_id)

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

    def rep_write_many(
        self,
        txn_id: TxnId,
        ranges: "list[tuple[BoundedKey, BoundedKey, Version, tuple]]",
        rows: "list[tuple[BoundedKey, Version, Any]]",
        vote: bool = False,
    ) -> "list[tuple[tuple[Entry, ...], int]]":
        """Every write a wave sends this member at once: DirRepCoalesce
        for each range its deletes found, with the boundary copies each
        needs, then DirRepInsert for each folded final entry.

        ``ranges`` lists ``(low, high, version, bounds)``, ``bounds``
        being the range's non-sentinel bound entries as ``(key, version,
        value)``.  In order, each range is locked RepModify(low, high) —
        closed, so both bounds are covered — then every bound this
        replica does not hold is installed as :meth:`rep_insert` would
        (logged, with its undo record), and the range is coalesced as
        :meth:`rep_coalesce` would.  "Held" is present at any version,
        the rule Figure 13's probe applies.  A bound two ranges share
        is installed for the first.  Then each of ``rows`` is installed
        as :meth:`rep_insert` would, and the redo records land in the WAL
        as one group (the group commit — a single commit then covers them
        all).

        Replies are positional: per range, the entries its coalesce
        removed here and how many bounds it copied in, read from the
        transaction's undo records, so a message re-sent after its reply
        was lost answers as the first one did.

        With ``vote`` this is the transaction's last write here and
        carries its vote: the prepare record is logged behind the redo
        records and the reply is the yes vote, saving the ``prepare``
        round trip.  Once voted, the transaction takes nothing more here
        (:meth:`_lock`), except this same message re-sent after its
        reply was lost: it withdraws the vote, re-applies the writes
        (idempotent within the transaction) and votes again.
        """
        if vote:
            self._prepared.discard(txn_id)
        for item in ranges:
            self._coalesce(txn_id, *item)
        for row in rows:
            self._insert(txn_id, *row)
        if vote:
            self.wal.log_prepare(txn_id)
            self._prepared.add(txn_id)
        if not ranges:
            return []
        removed: dict[tuple, list[Entry]] = {item[:3]: [] for item in ranges}
        copied = dict.fromkeys(removed, 0)
        for record in self._undo.get(txn_id, ()):
            if isinstance(record, UndoCoalesce):
                entries = removed.get((record.low, record.high, record.version))
                if entries is not None:
                    entries.extend(record.removed.entries)
            elif isinstance(record, UndoInsert) and record.copied_for in copied:
                copied[record.copied_for] += 1
        return [
            (tuple(removed[item[:3]]), copied[item[:3]]) for item in ranges
        ]

    def _coalesce(
        self,
        txn_id: TxnId,
        low: BoundedKey,
        high: BoundedKey,
        version: Version,
        bounds: tuple = (),
    ):
        # A KeyRange, not a plain pair: it refuses reversed bounds
        # (ValueError) before anything is locked or logged.
        self._lock(txn_id, LockMode.REP_MODIFY, (KeyRange(low, high),))
        for key, entry_version, value in bounds:
            if not self.store.contains(key):
                self._insert(
                    txn_id, key, entry_version, value, (low, high, version)
                )
        self.wal.log_coalesce(txn_id, low, high, version)
        result = self.store.coalesce(low, high, version)
        self._note_undo(
            txn_id, UndoCoalesce(low, high, result.removed, version)
        )
        return result

    # ------------------------------------------------------------------
    # transaction protocol (called by the coordinator)
    # ------------------------------------------------------------------

    def prepare(self, txn_id: TxnId, read_only_votes: bool = False) -> bool | str:
        """Phase one of 2PC: log a prepare record and vote yes.

        A replica restarted since the transaction's first call here has
        lost its locks and effects; its reply carries the later
        incarnation, which the coordinator counts as a no vote
        (:meth:`~repro.txn.twopc.TwoPhaseCoordinator._phase`).

        With ``read_only_votes`` (a served wave's coordinator asks so), a
        transaction that wrote nothing here — no undo record — gets the
        :data:`~repro.txn.twopc.READ_ONLY` vote instead: its RepLookup
        locks are released now and nothing is logged.  That is two-phase
        locking after the lock point: the transaction takes no lock once
        ``prepare`` is sent, and its RepModify locks elsewhere stay held
        to the decision.  A re-asked ``prepare`` (the reply was lost)
        finds no undo record still and answers read-only again.  A member
        whose last write carried its vote (:meth:`rep_write_many`) is not
        asked at all.
        """
        if read_only_votes and txn_id not in self._undo:
            self.locks.release_all(txn_id)
            return READ_ONLY
        self.wal.log_prepare(txn_id)
        self._prepared.add(txn_id)
        return True

    def commit(self, txn_id: TxnId) -> None:
        """Phase two: make the transaction's effects durable and visible."""
        self.wal.log_commit(txn_id)
        self._undo.pop(txn_id, None)
        self._prepared.discard(txn_id)
        self.locks.release_all(txn_id)
        self._commits_since_checkpoint += 1
        self._maybe_checkpoint()

    def abort(self, txn_id: TxnId) -> None:
        """Roll the transaction back: apply undo records in reverse."""
        for record in reversed(self._undo.pop(txn_id, [])):
            record.apply(self.store)
        self.wal.log_abort(txn_id)
        self._prepared.discard(txn_id)
        self.locks.release_all(txn_id)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        quiescent = not self._undo and self.locks.is_idle()
        if quiescent and self._checkpoint_policy.should_checkpoint(
            self._commits_since_checkpoint, len(self.wal)
        ):
            self.checkpoint()

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
    # replica lifecycle (snapshot export, reconcile)
    # ------------------------------------------------------------------

    def rep_export_snapshot(self):
        """A consistent snapshot of this replica's store, for a join,
        an anti-entropy sweep or a reshard's read.

        Export refuses while transactions are in flight here — their
        uncommitted effects are in the store and would leak into the
        copy — so callers retry after the representative quiesces.
        """
        if self._undo:
            raise SnapshotUnavailableError(self.name, len(self._undo))
        return self.store.snapshot()

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
                        self._lock(admin_txn, LockMode.REP_MODIFY, ((key, key),))
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
                            admin_txn, LockMode.REP_MODIFY, (KeyRange(low, high),)
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
            self.locks.release_all(admin_txn)
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

    def on_crash(self) -> None:
        """Lose all volatile state: store, locks, undo, prepared set."""
        self.store = self._store_factory()
        self.locks = LockTable()
        self._undo = {}
        self._prepared = set()

    def on_recover(self) -> None:
        """Rebuild the store from the log.

        In-doubt prepared transactions are resolved against the
        coordinator's decision log: decided-commit ⇒ replayed; anything
        else ⇒ presumed abort (not replayed).  A transaction that comes
        back is the coordinator's to refuse (``DirectorySuite._round``).
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
