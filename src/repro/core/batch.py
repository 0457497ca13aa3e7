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
  ``rep_write_many`` message per write-quorum member carries them
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
* the wave's range locks are all taken before any replica votes (the
  lock point), and its RepModify locks are held to the commit, so the
  transaction is serializable as the whole sequence at once.  A
  write-quorum member votes with the wave's closing write to it — one
  ``rep_write_many`` carrying every independent delete's coalesce and
  every final entry — and is asked no ``prepare``: nothing is sent to it
  after that write but the decision.  A write something may follow — a
  dependent delete's flush, or its own coalesce — is never marked; a
  wave whose writes all went before its closing write (a wave whose
  last write was a dependent delete's coalesce) asks its writers to
  ``prepare`` as before.  The write quorum is drawn inside the read
  quorum (:meth:`~repro.core.quorum.QuorumPolicy.choose`'s ``within``),
  so at R ≥ W every member written was read; a replica the
  wave only read answers ``prepare`` read-only
  (:data:`~repro.txn.twopc.READ_ONLY`): it releases its RepLookup locks
  there, logs nothing and gets no ``commit``, which is two-phase locking
  after the lock point; a wave that wrote nothing anywhere logs no
  decision and sends no phase two;
* a wave that only reads, however many keys, has no lock point to
  share: its read round asks each member to release the keys' locks
  with the reply, and no 2PC message is sent at all — R messages.  Each
  key's read is linearizable at the instant it reads, because every
  writer of that key holds its RepModify lock to its decision, and
  linearizability is local (Herlihy & Wing): a history is linearizable
  when each key's sub-history is.  Each request is its own op, so that
  is the client contract.  What is given up is the *wave*'s serial
  place: two of its reads may straddle a pair of writers, one read
  after the later writer and the other before the earlier one.  Only a
  writer that runs between the wave's messages can show that, which on
  the served stack none does (docs/CORRECTNESS.md, "The read-only
  release"; :mod:`repro.obs.history` referees the contract).

**A wave's deletes walk once, and read each neighbour once.**  Every
round of a wave goes to one read quorum and one write quorum, each drawn
once (:class:`_Wave`), and the deletes share their rounds as the lookups
and installs do (:func:`_walk`): the read round's ``rep_lookup_many``
carries the first step of every search of every key the wave deletes,
both directions, and its neighbour replies are what the walk reads.
Each member's reply for a search's cursor is also its lookup of the
search's candidate, under the lock the reply took, so the candidates are
judged from them for no message; a ghost costs a ``rep_neighbors_many``
refill only to the members whose stream it ran dry.  The closing
``rep_write_many`` to each write-quorum member then applies every range,
carrying each range's bound entries — the member installs any it lacks
first, under the range's RepModify lock, which is Figure 13's probe and
copy — before the wave's final entries and the member's vote.  At R = W
that is ``R + W + W`` for a wave of deletes and writes, however many,
when its deletes all went together and met no ghost: the read, the
closing write and the ``commit`` (at R > W each member only read adds
its read-only ``prepare``) — what a wave of inserts costs.  A delete the
fold refuses searched for nothing, at no message: its steps rode a read
that was sent anyway.  Which deletes may go together is decided in three
steps, and this is why the result is still the sequential one:

1. *The presence pass* (:func:`_coalesce_independent`) replays the fold
   on presence alone, for no message.  Presence is a function of a
   key's own ops: the only thing another op could do to it is coalesce
   over it, and a coalesce removes only what was absent already.  The
   pass therefore knows every *walker* — a delete that will find its
   key present — and every key the wave will really write or delete
   (refused ops write nothing) before anything is sent.
2. *The shared search* runs, ahead of the fold and against the replicas
   as they stood before the wave, for every walker whose key the wave
   touches exactly once.  Its first step is already in hand: nothing is
   written between the read round and this search, and both run in one
   transaction against one read quorum, so each member's neighbour
   batches in its read reply are exactly what a first
   ``rep_neighbors_many`` would have returned, under the same RepLookup
   locks, taken one round earlier and still before the lock point.
   Only this search reads those batches; a dependent walker (step 3)
   walks after a flush and reads the replicas afresh.  A walker is
   *independent* when no other key
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
   they are applied together, last, in the closing write, each at
   ``successor(max(gap versions its searches crossed, its entry's
   version))`` exactly as Figure 13 computes it.  Applying them last
   is safe because nothing before them reaches their ranges: an
   independent walker's ``pred`` and ``succ`` are present entries the
   wave does not touch, and a coalesce removes only entries strictly
   inside its real neighbours, so no coalesce of the wave removes them;
   a dependent walk (below) therefore stops at them from outside and
   never reads inside an independent range, and its own range meets
   one at a shared bound at most.  The final entries the same message
   installs lie outside every independent range's closed
   neighbourhood, so the message's order — ranges, then entries —
   changes nothing.  The result is quorum-independent for the reason
   the classic delete's is: any read quorum meets the write quorum of
   whichever coalesce last covered each point of the range.
3. *A dependent walker* — a neighbour the wave inserted, rewrote or
   removed, a range another delete overlaps, its own key written
   earlier or later in the wave — keeps its place in arrival order.
   What it must read is the directory as the ops before it left it, and
   part of that exists only in the fold's write buffer: so it first
   *flushes* the buffer (a ``rep_write_many`` of the buffered entries
   to the wave's write quorum, which the wave's read quorum
   intersects), then runs the same grouped walk with itself alone and
   coalesces its range at once (a ``rep_write_many`` with no entries),
   then updates the fold range-wide.
   Unflushed, the walk would pass a neighbour inserted a moment ago by,
   coalesce over it, and the entry — installed afterwards below the new
   gap's version — would read as absent.

Availability failures are all-or-nothing per wave: the shared
transaction aborts cleanly (no partial effects — that is what 2PC is
for; a coalesce already applied is undone as a classic delete's is),
and each op re-runs once as a wave of one, so ``-UNAVAILABLE`` surfaces
per op rather than failing the neighbours (counted on
``suite.batch.fallbacks``).  Operation counts and the delete-overhead
statistics are collected during the fold and applied after the commit,
so an aborted wave counts nothing twice.
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

#: Operation kinds :func:`execute_batch` accepts — every keyed verb the
#: front door has.  ``discard`` is ``delete``'s lenient form: 1 if the
#: key was present, else 0, where ``delete`` raises.
BATCH_KINDS = ("lookup", "insert", "update", "upsert", "delete", "discard")
_DELETES = frozenset(("delete", "discard"))
_ABORTS = (QuorumUnavailableError, NetworkError, TransactionError)
#: The ``op_counts`` field a classic call bumps even when it aborts (an
#: ``upsert`` counts what it turned out to be, so then only its failure).
_COUNTED = dict(lookup="lookups", insert="inserts", update="updates",
                delete="deletes", discard="deletes")


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
    :class:`KeyNotPresentError`, or the availability error that aborted
    the op's own wave of one); :meth:`unwrap` re-raises it.

    ``version`` is the entry-or-gap version the op observed or
    installed: what a lookup, a refused write or a refused delete found
    behind the key, a write's new version, or the version of the gap a
    delete left.  It is the witness a history checker orders the key's
    ops by; an op whose wave of one aborted has none.
    """

    op: BatchOp
    value: Any = None
    error: "ReproError | None" = None
    version: Any = None

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
    partial effects) and every op re-runs once as a wave of one, so
    per-op error results survive even a mid-wave quorum loss.
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
    except _ABORTS:
        # Aborted whole: 2PC leaves no partial effects, so re-running
        # each op cannot double-apply anything.
        suite._batch_fallbacks.inc()
    outcomes, counts = [], suite.op_counts
    for op, bkey in zip(ops, bkeys):
        try:
            outcomes += _grouped(suite, [op], [bkey])
        except _ABORTS as exc:
            if op.kind in _COUNTED:
                name = _COUNTED[op.kind]
                setattr(counts, name, getattr(counts, name) + 1)
            outcomes.append(BatchOutcome(op, error=exc))
    return outcomes


def _grouped(
    suite: Any, ops: "list[BatchOp]", bkeys: "list[Any]"
) -> "list[BatchOutcome]":
    if suite.tracer.enabled:
        with suite._op_span("batch", size=len(ops)):
            return _fold(suite, ops, bkeys)
    return _fold(suite, ops, bkeys)


def _fold(
    suite: Any, ops: "list[BatchOp]", bkeys: "list[Any]"
) -> "list[BatchOutcome]":
    outcomes = [BatchOutcome(op) for op in ops]
    counts = _Counts()
    keys = list(dict.fromkeys(bkeys))
    deleted = [bkey for op, bkey in zip(ops, bkeys) if op.kind in _DELETES]
    # A wave that only reads is released with its reply (module docstring).
    release = all(op.kind == "lookup" for op in ops)
    with suite._transaction(read_only_votes=True) as txn:
        wave = _Wave(suite, txn)
        state = {
            bkey: (reply.present, reply.version, reply.value)
            for bkey, reply in wave.lookup(
                keys, list(dict.fromkeys(deleted)), release
            ).items()
        }
        coalesced = {}
        if deleted:
            # The independent deletes' ranges, found already; they are
            # coalesced by the closing write.  A dependent walk follows
            # a flush, so it must read the replicas afresh.
            coalesced = _coalesce_independent(wave, ops, bkeys, state)
            wave.primed = {}
        # Final folded entry per written key, in first-write order,
        # not yet on any replica.
        writes: dict[Any, tuple[Any, Any]] = {}
        for op, bkey, outcome in zip(ops, bkeys, outcomes):
            present, version, value = state[bkey]
            outcome.version = version
            if op.kind == "lookup":
                counts.lookups += 1
                outcome.value = (present, value)
                continue
            if op.kind in _DELETES:
                counts.deletes += 1
                if present:
                    found = coalesced.get(bkey)
                    if found is None:
                        # Dependent: its walk reads the replicas, which
                        # must hold what a sequential run would have
                        # left there by now.
                        wave.write({}, writes)
                        suite._batch_rewalks.inc()
                        ranges = _walk(wave, {bkey: version})
                        counts.overheads += wave.write(ranges, {}).values()
                        found = ranges[bkey]
                    low, high, gap_version = found[:3]
                    outcome.version = gap_version
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
            outcome.version = new_version
            state[bkey] = (True, new_version, op.value)
            writes[bkey] = (new_version, op.value)
        counts.overheads += wave.write(coalesced, writes, final=True).values()
    # Applied only after the commit: an aborted wave leaves the counting
    # to its ops' waves of one.
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
    read and one write quorum, each drawn when a round first needs it —
    the write quorum inside the read quorum, which every wave draws
    first (:meth:`~repro.core.quorum.QuorumPolicy.choose`'s ``within``)."""

    __slots__ = ("suite", "txn", "_quorums", "primed")

    def __init__(self, suite: Any, txn: Any) -> None:
        self.suite = suite
        self.txn = txn
        self._quorums: dict[str, list[str]] = {}
        #: ``{(key, direction): [batch per read-quorum member]}``: the
        #: first step of each delete's search, read with the wave's keys
        #: (:meth:`lookup`); the shared search starts from them.
        self.primed: dict[tuple, list] = {}

    def quorum(self, kind: str) -> "list[str]":
        members = self._quorums.get(kind)
        if members is None:
            members = self._quorums[kind] = self.suite._collect_quorum(
                kind, self._quorums.get("read")
            )
        return members

    def round(
        self, kind: str, method: str, args: tuple, ends: "str | None" = None
    ) -> "list[Any]":
        """``method(*args)`` to each member of the ``kind`` quorum, one
        message each whatever the lists in ``args`` hold; values in
        member order.  ``ends`` is :meth:`DirectorySuite._round`'s."""
        items = sum(map(len, args))
        return self.suite._round(
            self.txn,
            [(rep, method, args, items) for rep in self.quorum(kind)],
            ends,
        )

    def lookup(
        self, keys: "list[Any]", deleted: "list[Any]", release: bool = False
    ) -> "dict[Any, LookupReply]":
        """One read round covering every key in ``keys``, and the first
        step of both neighbour searches of every key in ``deleted``.

        A single ``rep_lookup_many`` message per read-quorum member (R
        messages, however many keys — the section 4 batching
        optimization), merged per key by highest version, the Figure 8
        rule.  Each member's neighbour batches are kept in
        :attr:`primed`, in member order.  With ``release`` each member
        lets the transaction go with its reply.
        """
        size = self.suite.neighbor_batch_size
        searches = [
            (bkey, direction, size)
            for bkey in deleted
            for direction in ("succ", "pred")
        ]
        best: dict[Any, LookupReply | None] = dict.fromkeys(keys)
        rounds = self.round(
            "read", "rep_lookup_many", (keys, searches),
            "release" if release else None,
        )
        for replies in rounds:
            for bkey, reply in zip(keys, replies):
                if reply.beats(best[bkey]):
                    best[bkey] = reply
        if searches:
            self.primed = {
                search[:2]: [replies[i] for replies in rounds]
                for i, search in enumerate(searches, len(keys))
            }
        return best  # type: ignore[return-value]  # quorum is never empty

    def write(
        self,
        ranges: "dict[Any, tuple]",
        writes: "dict[Any, tuple[Any, Any]]",
        final: bool = False,
    ) -> "dict[Any, tuple]":
        """Coalesce ``ranges`` (``{deleted key: (low, high, version,
        bounds)}``, from :func:`_walk`), then install the buffered
        entries, on the write quorum, and empty the buffer; with nothing
        to write, nothing is chosen or sent.

        One ``rep_write_many`` message per member (W messages total):
        the redo records reach each replica's WAL as a group, so the
        single shared commit is a true group commit.  The wave's closing
        write is ``final``: nothing follows it, so each message carries
        its member's vote.  Returns ``{deleted key: overhead}``, what
        ``delete_stats.record_delete`` is owed: the entries each member's
        coalesce removed, and the copies installed for this range, as
        each member counted them.
        """
        if not (ranges or writes):
            return {}
        rows = [(bkey, *entry) for bkey, entry in writes.items()]
        writes.clear()
        results = self.round(
            "write", "rep_write_many", (list(ranges.values()), rows),
            "vote" if final else None,
        )
        done = {}
        for i, bkey in enumerate(ranges):
            removed = [result[i][0] for result in results]
            done[bkey] = (
                [len(entries) for entries in removed],
                sum(result[i][1] for result in results),
                sum(1 for entries in removed for e in entries if e.key != bkey),
            )
        return done


def _coalesce_independent(
    wave: _Wave, ops: "list[BatchOp]", bkeys: "list[Any]", state: dict
) -> "dict[Any, tuple]":
    """Walk, together and ahead of the fold, every delete of the wave
    that commutes with the rest of it.

    The presence pass replays the fold on presence alone — which is a
    function of each key's own ops, since a coalesce only ever removes
    what was absent already — and so names, for no message, the
    *walkers* (deletes that will find their key present) and every key
    the wave will really write or delete.  Walkers whose key the wave
    touches once search together, against the replicas as they stood
    before the wave; one is *independent* when no other touched key lies
    in the closed neighbourhood ``[pred, succ]`` it found.  Returns
    :func:`_walk`'s ranges for those, which the wave's closing write
    coalesces; the fold meets every other walker in its turn.
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

    found = _walk(wave, together, independent)
    wave.suite._batch_walk_deletes.add(len(found))
    return found


def _walk(
    wave: _Wave, walkers: "dict[Any, Any]", keep: Any = None
) -> "dict[Any, tuple]":
    """Figure 13's neighbour search and new gap version, for every key
    of ``walkers`` (``{key: its entry's version}``) at once.

    The searches step together (:func:`_search`); ``keep(pred, succ)``,
    when given, then says which walkers go on.  Returns ``{key: (low,
    high, version, bounds)}``, the range :meth:`_Wave.write` coalesces:
    its new gap's version is one more than the largest of the gap
    versions its own searches crossed and its entry's version, as
    :meth:`DirectorySuite._coalesce_around` computes it, and ``bounds``
    are its non-sentinel bound entries, which the write installs first
    where a member lacks them (Figure 13's boundary copies, with no
    probe round of their own).

    The keys must not lie in one another's neighbourhoods: the ranges
    are then disjoint, and a missing boundary two of them share is
    installed once and counted for the first, as a sequential run
    would.
    """
    suite = wave.suite
    tracer = suite.tracer
    if tracer.enabled:
        with tracer.span("batch:walk", deletes=len(walkers)):
            found = _search(wave, list(walkers))
    else:
        found = _search(wave, list(walkers))
    successor = suite.version_space.successor
    return {
        k: (
            pred.key,
            succ.key,
            successor(
                max(succ.max_gap_version, pred.max_gap_version, walkers[k])
            ),
            tuple(
                (nb.key, nb.version, nb.value)
                for nb in (succ, pred)
                if not (nb.key.is_low or nb.key.is_high)
            ),
        )
        for k, (pred, succ) in found.items()
        if keep is None or keep(pred, succ)
    }


def _search(wave: _Wave, keys: "list[Any]") -> "dict[Any, tuple]":
    """The real predecessor and successor of every key in ``keys``:
    Figure 12, all searches stepping together.

    A search whose first step rode the read round starts from it
    (:attr:`_Wave.primed`).  A step sends one ``rep_neighbors_many``
    message to each read-quorum member with a stream run dry, carrying
    every search that needs it, and none to the rest.  Each candidate is
    then judged from the
    neighbour replies in hand (:meth:`_NeighborSearch.verdict`): every
    member's reply for the cursor is its lookup of the candidate, under
    the lock the reply took, so no lookup round is sent.  A search whose
    candidate is present is over; one that met a ghost steps past it,
    and costs a refill only where a member's stream ran dry.  Returns
    ``{key: (pred, succ)}`` as :class:`~repro.core.entries.RealNeighbor`.
    """
    suite, txn = wave.suite, wave.txn
    readers = wave.quorum("read")
    primed = wave.primed
    searches: dict[Any, list[_NeighborSearch]] = {}
    for bkey in keys:
        pair = searches[bkey] = []
        for direction in ("succ", "pred"):
            search = _NeighborSearch(suite, readers, bkey, direction)
            for stream, batch in zip(
                search.streams.values(), primed.get((bkey, direction), ())
            ):
                stream.absorb(batch)
            pair.append(search)
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
        for search in walking:
            candidate = search.candidate()
            search.settle(candidate, search.verdict(candidate))
        walking = [search for search in walking if search.real is None]
    return {
        bkey: (pred.real, succ.real) for bkey, (succ, pred) in searches.items()
    }


def _single(suite: Any, kind: str, key: Any, value: Any = None) -> Any:
    """One op of ``kind`` through the plain public path, errors raised.

    What a kind means *alone* — the paper's Figure 8/9/13 algorithms,
    with read-repair: the reference every wave, of one op or many, is
    checked against (the sequential twins of the tests).  Its callers
    are the simulation driver, trace replay and the shard benchmarks'
    per-op control (``benchmarks/conftest.py::classic_wave``); nothing
    under ``repro.service`` or ``repro.shard`` runs it.
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
