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
:class:`BatchOp` items (``lookup`` / ``insert`` / ``update`` /
``upsert`` — deletes coalesce gaps via neighbor walks and stay on the
unbatched path) and returns one :class:`BatchOutcome` per op, in order,
with the paper's per-op error contract intact: an ``insert`` of a
present key still yields :class:`KeyAlreadyPresentError`, an ``update``
of an absent key :class:`KeyNotPresentError` — as *outcomes*, never by
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
* the wave's range locks are held to the single commit point, so the
  transaction is serializable as the whole sequence at once.

Availability failures are all-or-nothing per wave: the shared
transaction aborts cleanly (no partial effects — that is what 2PC is
for), and the wave falls back to executing each op individually so
``-UNAVAILABLE`` surfaces per op rather than failing the neighbours
(counted on ``suite.batch.fallbacks``).
"""

from __future__ import annotations

from dataclasses import dataclass
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
from repro.obs.spans import NULL_SPAN

#: Operation kinds :func:`execute_batch` accepts.  ``delete`` is absent
#: by design: its gap-coalescing neighbour walk reads keys the wave's
#: shared snapshot does not cover, so it runs unbatched.
BATCH_KINDS = ("lookup", "insert", "update", "upsert")


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
    failed: int = 0


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
    tracer = suite.tracer
    with tracer.span(
        "op:batch", size=len(ops), client=suite.rpc.origin
    ) if tracer.enabled else NULL_SPAN:
        with suite._transaction() as txn:
            unique: list[Any] = []
            seen: set = set()
            for bkey in bkeys:
                if bkey not in seen:
                    seen.add(bkey)
                    unique.append(bkey)
            state = _grouped_read(suite, txn, unique)
            writes: dict[Any, tuple[Any, Any]] = {}
            write_order: list[Any] = []
            for op, bkey, outcome in zip(ops, bkeys, outcomes):
                present, version, value = state[bkey]
                if op.kind == "lookup":
                    counts.lookups += 1
                    outcome.value = (present, value)
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
                if bkey not in writes:
                    write_order.append(bkey)
                writes[bkey] = (new_version, op.value)
            if writes:
                _grouped_write(
                    suite,
                    txn,
                    [(bkey, *writes[bkey]) for bkey in write_order],
                )
    # Applied only after the commit: an aborted wave leaves the fallback
    # path to do the (public-method) counting instead.
    suite.op_counts.lookups += counts.lookups
    suite.op_counts.inserts += counts.inserts
    suite.op_counts.updates += counts.updates
    suite.op_counts.failed += counts.failed
    return outcomes


def _grouped_read(
    suite: Any, txn: Any, keys: "list[Any]"
) -> "dict[Any, list[Any]]":
    """One read round covering every distinct key in the wave.

    Sends a single ``rep_lookup_many`` message per member of a *single*
    read quorum (R messages total, regardless of wave size — the
    section 4 batching optimization; serial fan-out degrades to one
    call per member), merges per key by highest version — the Figure 8
    rule — and returns the mutable fold state
    ``{bkey: [present, version, value]}``.
    """
    quorum = suite._collect_quorum("read")
    best: dict[Any, LookupReply | None] = {bkey: None for bkey in keys}
    if suite.fanout == "serial":
        member_replies = [
            suite._call(txn, rep, "rep_lookup_many", txn.txn_id, list(keys))
            for rep in quorum
        ]
    else:
        calls = [
            suite._rep_call(
                txn,
                rep,
                "rep_lookup_many",
                (list(keys),),
                payload_items=len(keys),
            )
            for rep in quorum
        ]
        member_replies = suite._gather_all(
            suite._scatter(txn, calls, "rep_lookup_many")
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
    suite: Any, txn: Any, rows: "list[tuple[Any, Any, Any]]"
) -> None:
    """Install every folded final entry in one shared write quorum.

    One ``rep_insert_many`` message per member (W messages total): the
    wave's redo records reach each replica's WAL as a group, so the
    single shared 2PC round is a true group commit.
    """
    quorum = suite._collect_quorum("write")
    if suite.fanout == "serial":
        for rep in quorum:
            suite._call(
                txn, rep, "rep_insert_many", txn.txn_id, list(rows)
            )
    else:
        calls = [
            suite._rep_call(
                txn,
                rep,
                "rep_insert_many",
                (list(rows),),
                payload_items=len(rows),
            )
            for rep in quorum
        ]
        suite._gather_all(suite._scatter(txn, calls, "rep_insert_many"))


def _single(suite: Any, kind: str, key: Any, value: Any = None) -> Any:
    """One op of ``kind`` through the plain public path, errors raised.

    What a kind means *alone*: the front door runs a wave of one
    through here (the paper's Figure 8/9 algorithm, with read-repair
    and hedged reads), and a wave whose shared transaction aborted
    falls back to it op by op.  Beside :data:`BATCH_KINDS` it knows the
    two kinds that never group: ``delete`` and its lenient form
    ``discard`` (1 if the key was present, else 0).
    """
    if kind == "lookup":
        return suite.lookup(key)
    if kind == "insert":
        return suite.insert(key, value)
    if kind == "update":
        return suite.update(key, value)
    if kind == "upsert":
        # Race-free: the caller owns the suite's only worker thread.
        try:
            return suite.insert(key, value)
        except KeyAlreadyPresentError:
            return suite.update(key, value)
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
