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
  it is refused on the spot, for no message.  Of a present key it is
  Figure 13 from the neighbour search on, inside the shared
  transaction, with the version the fold already holds standing in for
  its lookup — and the wave's deletes take those steps *together*
  (below).  Afterwards the fold holds the deleted key *and every other
  wave key strictly inside the coalesced range* (absent ones: a present
  key would have ended the search) absent at the new gap's version, so
  a later insert among them chains ``successor()`` off the gap it would
  have found on the replicas;
* the wave's range locks are held to the single commit point, so the
  transaction is serializable as the whole sequence at once.

**A wave's deletes walk once.**  Every round of a wave goes to one read
quorum and one write quorum, each drawn once (:class:`_Wave`), and the
deletes share their rounds as the lookups and installs do
(:func:`_walk_and_coalesce`): one ``rep_neighbors_many`` message per
read-quorum member carries every search of every delete, both
directions; one ``rep_lookup_many`` round judges all the candidates (a
ghost costs the searches still under way one more pair of rounds
between them); one ``rep_lookup_many`` per write-quorum member probes
every boundary entry, one ``rep_insert_many`` installs the copies found
missing, one ``rep_coalesce_many`` applies every range.  On fixed
quorums that is ``R + (2R + 2W) + 2PC`` for a wave of deletes, however
many.  Which deletes may go together is decided in three steps, and
this is why the result is still the sequential one:

1. *The presence pass* (:func:`_coalesce_independent`) replays the fold
   on presence alone, for no message.  Presence is a function of a
   key's own ops: the only thing another op could do to it is coalesce
   over it, and a coalesce removes only what was absent already.  The
   pass therefore knows every *walker* — a delete that will find its
   key present — and every key the wave will really write or delete
   (refused ops write nothing) before anything is sent.
2. *The shared search* runs, ahead of the fold and against the replicas
   as they stood before the wave, for every walker whose key the wave
   touches exactly once.  A walker is *independent* when no other key
   the wave writes or deletes lies in the closed neighbourhood
   ``[pred, succ]`` it found.  Then nothing the wave does before it
   could have changed what its search reads — its key, both real
   neighbours and every point between are untouched — so the search
   found the range, the boundary entries and the gap versions a
   sequential run would have found at its turn; and nothing the wave
   does after it reads or writes inside that neighbourhood except by
   lookup, which sees "absent" either way.  Two independent walkers
   have disjoint open ranges (each other's keys lie outside
   ``[pred, succ]``; at most they meet at a boundary neither deletes),
   so their coalesces commute with each other and with every other op:
   they are applied together, first, each at
   ``successor(max(gap versions its searches crossed, its entry's
   version))`` exactly as Figure 13 computes it.  The result is
   quorum-independent for the reason the classic delete's is: any read
   quorum meets the write quorum of whichever coalesce last covered
   each point of the range.
3. *A dependent walker* — a neighbour the wave inserted, rewrote or
   removed, a range another delete overlaps, its own key written
   earlier or later in the wave — keeps its place in arrival order.
   What it must read is the directory as the ops before it left it, and
   part of that exists only in the fold's write buffer: so it first
   *flushes* the buffer (``rep_insert_many`` to the wave's write
   quorum, which the wave's read quorum intersects), then runs the same
   grouped walk with itself alone, then updates the fold range-wide.
   Unflushed, the walk would pass a neighbour inserted a moment ago by,
   coalesce over it, and the entry — installed afterwards below the new
   gap's version — would read as absent.

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

from bisect import bisect_left, bisect_right
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
from repro.core.suite import _NeighborSearch
from repro.obs.spans import NULL_SPAN

#: Operation kinds :func:`execute_batch` accepts — every keyed verb the
#: front door has.  ``discard`` is ``delete``'s lenient form: 1 if the
#: key was present, else 0, where ``delete`` raises.
BATCH_KINDS = ("lookup", "insert", "update", "upsert", "delete", "discard")
_DELETES = frozenset(("delete", "discard"))


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
        wave = _Wave(suite, txn)
        state = {
            bkey: (reply.present, reply.version, reply.value)
            for bkey, reply in wave.lookup(list(dict.fromkeys(bkeys))).items()
        }
        # What the independent deletes left behind, coalesced already.
        coalesced = (
            {}
            if _DELETES.isdisjoint({op.kind for op in ops})
            else _coalesce_independent(wave, ops, bkeys, state)
        )
        # Final folded entry per written key, in first-write order,
        # not yet on any replica.
        writes: dict[Any, tuple[Any, Any]] = {}
        for op, bkey, outcome in zip(ops, bkeys, outcomes):
            present, version, value = state[bkey]
            if op.kind == "lookup":
                counts.lookups += 1
                outcome.value = (present, value)
                continue
            if op.kind in _DELETES:
                counts.deletes += 1
                if present:
                    done = coalesced.get(bkey)
                    if done is None:
                        # Dependent: its walk reads the replicas, which
                        # must hold what a sequential run would have
                        # left there by now.
                        wave.install(writes)
                        suite._batch_rewalks.inc()
                        done = _walk_and_coalesce(wave, {bkey: version})[bkey]
                    low, high, gap_version, overhead = done
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
        wave.install(writes)
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


class _Wave:
    """What every round of one wave shares: the transaction, and one
    read and one write quorum, each drawn when a round first needs it."""

    __slots__ = ("suite", "txn", "_quorums")

    def __init__(self, suite: Any, txn: Any) -> None:
        self.suite = suite
        self.txn = txn
        self._quorums: dict[str, list[str]] = {}

    def quorum(self, kind: str) -> "list[str]":
        members = self._quorums.get(kind)
        if members is None:
            members = self._quorums[kind] = self.suite._collect_quorum(kind)
        return members

    def round(self, kind: str, method: str, arg: list) -> "list[Any]":
        """``method(arg)`` to each member of the ``kind`` quorum, one
        message each whatever ``arg`` holds; values in member order."""
        return self.suite._round(
            self.txn,
            [(rep, method, (arg,), len(arg)) for rep in self.quorum(kind)],
        )

    def lookup(self, keys: "list[Any]") -> "dict[Any, LookupReply]":
        """One read round covering every key in ``keys``.

        A single ``rep_lookup_many`` message per read-quorum member (R
        messages, however many keys — the section 4 batching
        optimization), merged per key by highest version, the Figure 8
        rule.
        """
        best: dict[Any, LookupReply | None] = dict.fromkeys(keys)
        for replies in self.round("read", "rep_lookup_many", keys):
            for bkey, reply in zip(keys, replies):
                if reply.beats(best[bkey]):
                    best[bkey] = reply
        return best  # type: ignore[return-value]  # quorum is never empty

    def install(self, writes: "dict[Any, tuple[Any, Any]]") -> None:
        """Install the buffered entries on the write quorum and empty
        the buffer; with nothing buffered, nothing is chosen or sent.

        One ``rep_insert_many`` message per member (W messages total):
        the wave's redo records reach each replica's WAL as a group, so
        the single shared 2PC round is a true group commit.
        """
        if not writes:
            return
        rows = [(bkey, *entry) for bkey, entry in writes.items()]
        writes.clear()
        self.round("write", "rep_insert_many", rows)


def _coalesce_independent(
    wave: _Wave, ops: "list[BatchOp]", bkeys: "list[Any]", state: dict
) -> "dict[Any, tuple]":
    """Walk and coalesce, together and ahead of the fold, every delete
    of the wave that commutes with the rest of it.

    The presence pass replays the fold on presence alone — which is a
    function of each key's own ops, since a coalesce only ever removes
    what was absent already — and so names, for no message, the
    *walkers* (deletes that will find their key present) and every key
    the wave will really write or delete.  Walkers whose key the wave
    touches once search together, against the replicas as they stood
    before the wave; one is *independent* when no other touched key lies
    in the closed neighbourhood ``[pred, succ]`` it found.  Returns
    ``{key: (low, high, gap version, overhead)}`` for those; the fold
    meets every other walker in its turn.
    """
    present = {bkey: entry[0] for bkey, entry in state.items()}
    touched: dict[Any, int] = {}
    walkers = []
    for op, bkey in zip(ops, bkeys):
        kind, here = op.kind, present[bkey]
        if kind == "lookup":
            continue
        if kind in _DELETES:
            refused = not here
        else:
            refused = here if kind == "insert" else kind == "update" and not here
        if refused:
            continue
        if kind in _DELETES:
            walkers.append(bkey)
        present[bkey] = kind not in _DELETES
        touched[bkey] = touched.get(bkey, 0) + 1
    together = {
        bkey: state[bkey][1] for bkey in walkers if touched[bkey] == 1
    }
    if not together:
        return {}
    line = sorted(touched)

    def independent(pred: Any, succ: Any) -> bool:
        # Nothing touched but the walker itself, neighbours included.
        return bisect_right(line, succ.key) - bisect_left(line, pred.key) == 1

    coalesced = _walk_and_coalesce(wave, together, independent)
    wave.suite._batch_walk_deletes.add(len(coalesced))
    return coalesced


def _walk_and_coalesce(
    wave: _Wave, walkers: "dict[Any, Any]", keep: Any = None
) -> "dict[Any, tuple]":
    """Figure 13 from the neighbour search on, for every key of
    ``walkers`` (``{key: its entry's version}``) at once.

    Each round carries all of them: the searches step together
    (:func:`_search`); ``keep(pred, succ)``, when given, then says which
    walkers go on; one ``rep_lookup_many`` per write-quorum member
    probes every boundary entry, one ``rep_insert_many`` installs the
    copies found missing (on the members missing any), and one
    ``rep_coalesce_many`` per member applies every range — each at one
    more than the largest of the gap versions its own searches crossed
    and its entry's version, as :meth:`DirectorySuite._coalesce_around`
    computes it.  Returns ``{key: (low, high, new gap version,
    overhead)}``, ``overhead`` being what ``delete_stats.record_delete``
    is owed.

    The keys must not lie in one another's neighbourhoods: the ranges
    are then disjoint, and a missing boundary two of them share is
    installed once and counted for the first, as a sequential run
    would.
    """
    suite = wave.suite
    tracer = suite.tracer
    with tracer.span(
        "batch:walk", deletes=len(walkers)
    ) if tracer.enabled else NULL_SPAN:
        found = _search(wave, list(walkers))
        if keep is not None:
            found = {k: nbs for k, nbs in found.items() if keep(*nbs)}
        if not found:
            return {}
        boundaries = list(
            {nb.key: None for pred, succ in found.values() for nb in (succ, pred)}
        )
        probes = wave.round("write", "rep_lookup_many", boundaries)
        insertions = dict.fromkeys(found, 0)
        installs = []
        for rep, replies in zip(wave.quorum("write"), probes):
            held = {k for k, reply in zip(boundaries, replies) if reply.present}
            rows = []
            for bkey, (pred, succ) in found.items():
                for nb in (succ, pred):
                    if nb.key not in held:
                        held.add(nb.key)
                        rows.append((nb.key, nb.version, nb.value))
                        insertions[bkey] += 1
            if rows:
                installs.append((rep, "rep_insert_many", (rows,), len(rows)))
        suite._round(wave.txn, installs)
        ranges = [
            (
                pred.key,
                succ.key,
                suite.version_space.successor(
                    max(succ.max_gap_version, pred.max_gap_version, walkers[k])
                ),
            )
            for k, (pred, succ) in found.items()
        ]
        results = wave.round("write", "rep_coalesce_many", ranges)
        done = {}
        for i, (bkey, each) in enumerate(zip(found, ranges)):
            removed = [result[i].removed.entries for result in results]
            overhead = (
                [len(entries) for entries in removed],
                insertions[bkey],
                sum(1 for entries in removed for e in entries if e.key != bkey),
            )
            done[bkey] = (*each, overhead)
        return done


def _search(wave: _Wave, keys: "list[Any]") -> "dict[Any, tuple]":
    """The real predecessor and successor of every key in ``keys``:
    Figure 12, all searches stepping together.

    A step is at most two rounds however many searches are still under
    way: one ``rep_neighbors_many`` message to each read-quorum member
    with a stream run dry, then one ``rep_lookup_many`` round over the
    candidates.  A search whose candidate is present is over; one that
    met a ghost steps past it with the rest.  Returns
    ``{key: (pred, succ)}`` as :class:`~repro.core.entries.RealNeighbor`.
    """
    suite, txn = wave.suite, wave.txn
    readers = wave.quorum("read")
    searches = {
        bkey: [
            _NeighborSearch(suite, txn, readers, bkey, direction)
            for direction in ("succ", "pred")
        ]
        for bkey in keys
    }
    walking = [search for pair in searches.values() for search in pair]
    while walking:
        while True:
            dry = {
                rep: streams
                for rep in readers
                if (streams := [
                    s.streams[rep] for s in walking
                    if s.streams[rep].needs_fetch(s.cursor)
                ])
            }
            if not dry:
                break
            fetched = suite._round(
                txn,
                [
                    (
                        rep,
                        "rep_neighbors_many",
                        ([stream.fetch_args() for stream in streams],),
                        len(streams) * suite.neighbor_batch_size,
                    )
                    for rep, streams in dry.items()
                ],
            )
            for streams, batches in zip(dry.values(), fetched):
                for stream, batch in zip(streams, batches):
                    stream.absorb(batch)
        candidates = [search.candidate() for search in walking]
        verdicts = wave.lookup(list(dict.fromkeys(candidates)))
        for search, candidate in zip(walking, candidates):
            search.settle(candidate, verdicts[candidate])
        walking = [search for search in walking if search.real is None]
    return {
        bkey: (pred.real, succ.real) for bkey, (succ, pred) in searches.items()
    }


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
