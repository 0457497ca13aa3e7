"""Grouped quorum rounds: many directory operations, one transaction.

The per-shard front door (:mod:`repro.service.server`) used to pay a
full multi-round quorum transaction per client operation — a read-quorum
lookup, a write-quorum install, and a two-phase commit, each a separate
RPC round trip, all for one key.  A shard that drains its queue in
*waves* can do much better: every operation in the wave shares one
transaction, one read-quorum selection, one write-quorum selection, and
one 2PC round — the Keyspace-style group commit, with the scatter-gather
engine (PR 4) making each shared round cost max-not-sum.

:func:`execute_batch` is that engine.  It accepts a wave of
:class:`BatchOp` items (any of :data:`BATCH_KINDS`: ``lookup`` /
``insert`` / ``update`` / ``upsert`` / ``delete`` / ``discard``) and
returns one :class:`BatchOutcome` per op, in order, with the paper's
per-op error contract intact: an ``insert`` of a present key still
yields :class:`KeyAlreadyPresentError`, an ``update`` or ``delete`` of
an absent key :class:`KeyNotPresentError` — as *outcomes*, never by
poisoning the neighbours in the same wave.

Equivalence with sequential execution is exact, not approximate:

* one ``rep_lookup_many`` round covers every distinct key against a
  single read quorum (one message per member, the paper's section 4
  batching optimization), and the per-op results are derived by
  *folding* the wave
  in arrival order over that snapshot — op ``i`` observes the presence,
  version, and value that ops ``0..i-1`` established, exactly as if each
  had committed before the next began;
* version numbers chain through
  :meth:`~repro.core.versions.VersionSpace.successor` per fold step, and
  since splitting a gap leaves both halves with the old gap's version,
  the number assigned to the *n*-th write of a key is identical to what
  *n* sequential transactions would have assigned;
* only the final folded entry per key is installed — one
  ``rep_insert_many`` message per write-quorum member carries them
  all — so the committed state matches the
  sequential run bit for bit (intermediate versions only ever existed
  transiently there too);
* a ``delete`` is a step of the fold.  Of a key the fold holds absent
  it is refused on the spot, for no message.  Of a present key it first
  *flushes* the entries buffered so far, because what follows reads the
  replicas, not the fold: Figure 13 from the neighbour search on
  (:meth:`~repro.core.suite.DirectorySuite._coalesce_around`, the body
  the classic delete runs) inside the shared transaction, with the
  version the fold already holds standing in for its lookup.  The walk
  then meets every entry a sequential run would have committed by that
  point — a real neighbour inserted earlier in the wave included — and
  so finds the same range and the same maximum gap version, whichever
  quorums it draws; the new gap's version is one more, as there.
  Afterwards the fold holds the deleted key *and every other wave key
  strictly inside the coalesced range* (absent ones: a present key
  would have ended the search) absent at that version, so a later
  insert among them chains ``successor()`` off the gap it would have
  found on the replicas;
* the wave's range locks are held to the single commit point, so the
  transaction is serializable as the whole sequence at once.

Availability failures are all-or-nothing per wave: the shared
transaction aborts cleanly (no partial effects — that is what 2PC is
for; a coalesce already applied is undone as a classic delete's is),
and the wave falls back to executing each op individually so
``-UNAVAILABLE`` surfaces per op rather than failing the neighbours
(counted on ``suite.batch.fallbacks``).  Operation counts and the
delete-overhead statistics are collected during the fold and applied
after the commit, so an aborted wave counts nothing twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.entries import LookupReply
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    QuorumUnavailableError,
    ReproError,
    TransactionError,
)

#: Operation kinds :func:`execute_batch` accepts — every keyed verb the
#: front door has.  ``discard`` is ``delete``'s lenient form: 1 if the
#: key was present, else 0, where ``delete`` raises.
BATCH_KINDS = ("lookup", "insert", "update", "upsert", "delete", "discard")


@dataclass(frozen=True, slots=True)
class BatchOp:
    """One operation inside a wave: ``kind`` ∈ :data:`BATCH_KINDS`."""

    kind: str
    key: Any
    value: Any = None


@dataclass(slots=True)
class BatchOutcome:
    """Per-op result: ``value`` on success, ``error`` on a logical miss.

    ``error`` carries the same exception the sequential public method
    would have raised (:class:`KeyAlreadyPresentError`,
    :class:`KeyNotPresentError`, or an availability error from the
    per-op fallback path); :meth:`unwrap` re-raises it.
    """

    op: BatchOp
    value: Any = None
    error: "ReproError | None" = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        if self.error is not None:
            raise self.error
        return self.value


@dataclass(slots=True)
class _Counts:
    """op_counts deltas accumulated during the fold, applied on commit."""

    lookups: int = 0
    inserts: int = 0
    updates: int = 0
    deletes: int = 0
    failed: int = 0
    #: ``delete_stats.record_delete`` arguments, one per coalesce.
    overheads: "list[tuple]" = field(default_factory=list)


def execute_batch(suite: Any, ops: Any) -> "list[BatchOutcome]":
    """Run a wave of ops as one grouped transaction; outcomes in order.

    See the module docstring for the equivalence argument.  On an
    availability failure the shared transaction aborts (leaving no
    partial effects) and every op re-executes individually, so per-op
    error results survive even a mid-wave quorum loss.
    """
    ops = [op if isinstance(op, BatchOp) else BatchOp(*op) for op in ops]
    for op in ops:
        if op.kind not in BATCH_KINDS:
            raise ValueError(
                f"unbatchable op kind {op.kind!r} (want one of {BATCH_KINDS})"
            )
    if not ops:
        return []
    bkeys = [suite._user_key(op.key) for op in ops]
    suite._batch_size.add(len(ops))
    suite._batch_ops.inc(len(ops))
    try:
        return _grouped(suite, ops, bkeys)
    except (QuorumUnavailableError, NetworkError, TransactionError):
        # The shared transaction aborted whole; 2PC guarantees no
        # partial effects, so individual re-execution cannot double-
        # apply anything.
        suite._batch_fallbacks.inc()
        return [_fallback(suite, op) for op in ops]


def _grouped(
    suite: Any, ops: "list[BatchOp]", bkeys: "list[Any]"
) -> "list[BatchOutcome]":
    outcomes = [BatchOutcome(op) for op in ops]
    counts = _Counts()
    with suite._op_span("batch", size=len(ops)), suite._transaction() as txn:
        state = _grouped_read(suite, txn, list(dict.fromkeys(bkeys)))
        # Final folded entry per written key, in first-write order,
        # not yet on any replica.
        writes: dict[Any, tuple[Any, Any]] = {}
        for op, bkey, outcome in zip(ops, bkeys, outcomes):
            present, version, value = state[bkey]
            if op.kind == "lookup":
                counts.lookups += 1
                outcome.value = (present, value)
                continue
            if op.kind in ("delete", "discard"):
                counts.deletes += 1
                if present:
                    # The walk and the coalesce read the replicas,
                    # which must hold what a sequential run would
                    # have left there by now.
                    _grouped_write(suite, txn, writes)
                    low, high, gap_version, overhead = (
                        suite._coalesce_around(txn, bkey, version)
                    )
                    counts.overheads.append(overhead)
                    for other in state:
                        if low < other < high:
                            state[other] = (False, gap_version, None)
                else:
                    # Refused from the fold state: no message at all.
                    counts.failed += 1
                    if op.kind == "delete":
                        outcome.error = KeyNotPresentError(op.key)
                if op.kind == "discard":
                    outcome.value = int(present)
                continue
            if op.kind == "insert" and present:
                counts.inserts += 1
                counts.failed += 1
                outcome.error = KeyAlreadyPresentError(op.key)
                continue
            if op.kind == "update" and not present:
                counts.updates += 1
                counts.failed += 1
                outcome.error = KeyNotPresentError(op.key)
                continue
            if op.kind == "upsert":
                # What SET's sequential insert-or-update would count.
                if present:
                    counts.updates += 1
                else:
                    counts.inserts += 1
            elif op.kind == "insert":
                counts.inserts += 1
            else:
                counts.updates += 1
            new_version = suite.version_space.successor(version)
            state[bkey] = (True, new_version, op.value)
            writes[bkey] = (new_version, op.value)
        _grouped_write(suite, txn, writes)
    # Applied only after the commit: an aborted wave leaves the fallback
    # path to do the (public-method) counting instead.
    suite.op_counts.lookups += counts.lookups
    suite.op_counts.inserts += counts.inserts
    suite.op_counts.updates += counts.updates
    suite.op_counts.deletes += counts.deletes
    suite.op_counts.failed += counts.failed
    for overhead in counts.overheads:
        suite.delete_stats.record_delete(*overhead)
    return outcomes


def _grouped_read(
    suite: Any, txn: Any, keys: "list[Any]"
) -> "dict[Any, list[Any]]":
    """One read round covering every distinct key in the wave.

    Sends a single ``rep_lookup_many`` message per member of a *single*
    read quorum (R messages total, regardless of wave size — the
    section 4 batching optimization), merges per key by highest version
    — the Figure 8 rule — and returns the mutable fold state
    ``{bkey: [present, version, value]}``.
    """
    quorum = suite._collect_quorum("read")
    best: dict[Any, LookupReply | None] = {bkey: None for bkey in keys}
    member_replies = suite._round(
        txn, [(rep, "rep_lookup_many", (list(keys),), len(keys)) for rep in quorum]
    )
    for replies in member_replies:
        for bkey, reply in zip(keys, replies):
            if reply.beats(best[bkey]):
                best[bkey] = reply
    state: dict[Any, list[Any]] = {}
    for bkey in keys:
        reply = best[bkey]
        assert reply is not None  # quorum is never empty
        state[bkey] = [reply.present, reply.version, reply.value]
    return state


def _grouped_write(
    suite: Any, txn: Any, writes: "dict[Any, tuple[Any, Any]]"
) -> None:
    """Install the buffered entries in one shared write quorum and empty
    the buffer; with nothing buffered, nothing is chosen or sent.

    One ``rep_insert_many`` message per member (W messages total): the
    wave's redo records reach each replica's WAL as a group, so the
    single shared 2PC round is a true group commit.
    """
    if not writes:
        return
    rows = [(bkey, *entry) for bkey, entry in writes.items()]
    writes.clear()
    quorum = suite._collect_quorum("write")
    suite._round(
        txn, [(rep, "rep_insert_many", (list(rows),), len(rows)) for rep in quorum]
    )


def _single(suite: Any, kind: str, key: Any, value: Any = None) -> Any:
    """One op of ``kind`` through the plain public path, errors raised.

    What a kind means *alone*: the front door runs a wave of one
    through here (the paper's Figure 8/9 algorithm, with read-repair
    and hedged reads), and a wave whose shared transaction aborted
    falls back to it op by op.
    """
    if kind == "lookup":
        return suite.lookup(key)
    if kind == "insert":
        return suite.insert(key, value)
    if kind == "update":
        return suite.update(key, value)
    if kind == "upsert":
        return suite._upsert(key, value)
    if kind == "delete":
        return suite.delete(key)
    if kind == "discard":
        try:
            suite.delete(key)
        except KeyNotPresentError:
            return 0
        return 1
    raise ValueError(f"unknown op kind {kind!r}")


def _fallback(suite: Any, op: BatchOp) -> BatchOutcome:
    """:func:`_single` with the error captured as the op's outcome."""
    outcome = BatchOutcome(op)
    try:
        outcome.value = _single(suite, op.kind, op.key, op.value)
    except ReproError as exc:
        outcome.error = exc
    return outcome
