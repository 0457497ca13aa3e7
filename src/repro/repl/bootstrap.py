"""Online replica join: one reconcile against every up peer.

The paper assumes a fixed representative suite and leans on quorum
intersection to ride out crashes; a replica that loses its *log* as well
as its store (a disk swap, an operator wipe) is outside that model — it
holds nothing, so counting its votes again without refilling it would
break the intersection argument.  :class:`ReplicaJoin` brings such a
replica back online while client operations keep flowing, in two moves:

1. **Start** — recover the joiner's node and mark it ``JOINING``: from
   this instant the suite counts it as a non-voting write recipient, so
   every write committed from now on reaches it directly.
2. **Reconcile and cut over** — once the up voting peers make a read
   quorum, export the joiner's store and every one of theirs, and ship
   the joiner whatever each peer holds that is newer
   (:func:`reconcile_replica`): everything for a wiped joiner, only what
   changed while it was down for one that merely crashed.  Every peer,
   not one donor: a write quorum need not contain any particular peer,
   but it meets every read quorum, so only the union of a read quorum
   of peers certifies completeness.  The merge is *monotone* (a shipped fact lands only where it is
   strictly newer), which is what makes it safe to run concurrently
   with live writes: a write landing between export and install is
   never overwritten by the older snapshot.  Then flip the joiner back
   to voting; from then on quorum intersection covers it again.

The second move is :meth:`ReplicaJoin.step`, and it is all-or-nothing:
a busy peer (:class:`SnapshotUnavailableError`), a lost message or a
down peer (:class:`NetworkError`), or too few voting peers up to make a
read quorum, leaves the joiner ``JOINING`` for the next step.  The simulation driver calls
it between client operations, a server from an admin verb, so a join
never blocks the workload it is racing.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import NetworkError, SnapshotUnavailableError
from repro.core.keys import LOW
from repro.repl.lifecycle import ReplicaState
from repro.storage.interface import MergedTiling, StoreSnapshot

#: Reconcile pieces: ``("entry", key, version, value)`` installs an entry
#: where strictly newer; ``("gap", low, high, version)`` installs a gap
#: version where it strictly dominates the interval.
Piece = tuple


def divergent_pieces(
    source: StoreSnapshot, target: StoreSnapshot
) -> list[Piece]:
    """Pieces of ``source`` that are strictly newer somewhere in ``target``.

    The anti-entropy filter: walking both tilings, emit a source entry
    only when it beats the target's fact (entry or covering gap) at that
    key, and a source gap only when some target fact strictly inside its
    interval is older than it.  Shipping only what *can* win keeps sweep
    traffic proportional to divergence, and the monotone guards in
    ``rep_reconcile`` re-check every piece at apply time, so racing live
    writes stays safe.

    Ghosts never propagate through this filter: a ghost entry is, by
    definition, dominated by some gap version, so on a replica holding
    the gap the ghost's version never beats the covering-gap fact.
    """
    merged = MergedTiling({"source": source, "target": target})
    pieces: list[Piece] = []
    for key in merged.keys:
        facts = merged.facts(key)
        mine = facts["source"]
        if mine.present and mine.version > facts["target"].version:
            pieces.append(("entry", key, mine.version, mine.value))
    # One source gap spans the merged intervals up to the next source
    # key; ``inside`` gathers the target facts met within it.
    low, inside = LOW, []
    for a, b in merged.intervals():
        gaps = merged.gaps_above(a)
        inside.append(gaps["target"])
        if b.is_high or merged.facts(b)["source"].present:
            if gaps["source"] > min(inside):
                pieces.append(("gap", low, b, gaps["source"]))
            low, inside = b, []
        else:
            inside.append(merged.facts(b)["target"].version)
    return pieces


def admin_call(suite: Any, rep: str, method: str, *args: Any, payload_items: int = 1) -> Any:
    """One lifecycle RPC to a representative, through the suite's endpoint.

    Goes through ``suite.rpc`` (not ``network.local_service``), so join
    and anti-entropy traffic is real traffic: it works on either clock,
    pays simulated latency, and is subject to installed fault models
    like every client call.
    """
    place = suite.placements[rep]
    return suite.rpc.call(
        place.node_id,
        place.service_name,
        method,
        *args,
        payload_items=payload_items,
    )


def ship_pieces(suite: Any, target: str, pieces: list[Piece], repairs: Any) -> int:
    """One ``rep_reconcile`` message carrying ``pieces`` to ``target``.

    Returns how many the target's monotone guards let land, after adding
    them to ``repairs`` (the caller's ``repl.reconcile.repairs`` counter).
    """
    applied, _skipped = admin_call(
        suite,
        target,
        "rep_reconcile",
        pieces,
        payload_items=max(1, len(pieces)),
    )
    repairs.inc(applied)
    return applied


def reconcile_replica(
    suite: Any,
    source_snap: StoreSnapshot,
    target_snap: StoreSnapshot,
    target: str,
    repairs: Any,
) -> int:
    """Ship ``target`` whatever ``source_snap`` holds that is newer.

    The one export → diff → ship step between two replicas *of one
    suite*: the caller has exported both snapshots, this diffs them
    (:func:`divergent_pieces`) and sends the difference, if any, in one
    message.  Version numbers are only comparable within a suite, which
    is why :mod:`repro.shard.reshard` does not come through here: its
    source and target are different suites, so its cutover compares
    presence and value and heals through suite operations instead.
    """
    pieces = divergent_pieces(source_snap, target_snap)
    return ship_pieces(suite, target, pieces, repairs) if pieces else 0


def wipe_replica(cluster: Any, rep: str) -> None:
    """Erase a crashed replica's durable log — the amnesiac-rejoin setup.

    Models total storage loss (the scenario bootstrap exists for): the
    node must already be crashed, and its next recovery replays an empty
    log into an empty store.  The log *object* is kept (its metrics
    provider stays bound) and its LSN counter keeps counting, so the
    admin transaction ids ``rep_reconcile`` derives from it are never
    reused.
    """
    node_id = cluster.suite.placements[rep].node_id
    if cluster.network.is_up(node_id):
        raise RuntimeError(f"refusing to wipe live replica {rep}; crash it first")
    cluster.representatives[rep].wal.records.clear()


class ReplicaJoin:
    """Incremental state machine joining one replica into a live suite.

    Construct, call :meth:`start` once, then call :meth:`step`
    repeatedly (e.g. once per client operation) until it returns True.
    A step that cannot finish — a peer busy or down, a message lost, no
    read quorum of voting peers up — changes nothing and is simply tried again; the
    joiner stays ``JOINING`` (see :mod:`repro.repl.lifecycle`), so the
    suite withholds its votes throughout.
    """

    def __init__(
        self, cluster: Any, replica: str, detector: Any = None
    ) -> None:
        if replica not in cluster.suite.placements:
            raise ValueError(f"unknown replica {replica!r}")
        self.cluster = cluster
        self.suite = cluster.suite
        self.replica = replica
        self.detector = detector
        metrics = cluster.metrics
        self._joins = metrics.counter("repl.joins")
        self._repairs = metrics.counter("repl.reconcile.repairs")
        #: "idle" -> "joining" -> "done"
        self.phase = "idle"

    # -- public surface ----------------------------------------------------

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def start(self) -> None:
        """Recover the joiner's node and mark it JOINING (non-voting).

        Membership flips *before* the first export, so every write
        committed from this instant on reaches the joiner directly —
        the overlap with the exported snapshots is what makes the
        handoff gapless, and the monotone merge makes it safe.
        """
        if self.phase != "idle":
            raise RuntimeError(f"join already started (phase={self.phase})")
        network = self.suite.network
        node_id = self.suite.placements[self.replica].node_id
        if not network.is_up(node_id):
            network.recover(node_id)
        self.suite.membership.set_state(self.replica, ReplicaState.JOINING)
        if self.detector is not None:
            self.detector.recover(node_id)
        self.phase = "joining"

    def step(self) -> bool:
        """Reconcile against every up voting peer, then restore the vote.

        The joiner is exported once and each peer once; each peer's diff
        against the joiner's export (a wiped joiner's empty store makes
        it the peer's whole store) goes out in one ``rep_reconcile``.
        Diffing every peer against the same export may ship a fact twice,
        which the monotone merge ignores.  All of it happens in one step
        (no client operation interleaves in the simulated driver).  Any
        failure, or no read quorum of voting peers up, leaves the joiner
        ``JOINING`` to try again next step.  True when the join is done.
        """
        if self.phase == "idle":
            self.start()
        if self.phase == "done":
            return True
        suite = self.suite
        # The joiner holds no vote, so every eligible member is a peer.
        # Together they must make a read quorum: every write quorum meets
        # one, so their union holds every committed write.
        peers = suite._eligible()
        config = suite.config
        if sum(config.votes[p] for p in peers) < config.read_quorum:
            return False
        try:
            joiner_snap = admin_call(suite, self.replica, "rep_export_snapshot")
            for peer in peers:
                peer_snap = admin_call(suite, peer, "rep_export_snapshot")
                reconcile_replica(
                    suite, peer_snap, joiner_snap, self.replica, self._repairs
                )
        except (SnapshotUnavailableError, NetworkError):
            return False
        suite.membership.set_state(self.replica, ReplicaState.UP)
        if self.detector is not None:
            self.detector.recover(suite.placements[self.replica].node_id)
        self._joins.inc()
        self.phase = "done"
        return True

    def run(self, max_steps: int = 10_000) -> None:
        """Drive :meth:`step` to completion (tests, admin verbs).

        Raises :class:`NetworkError` — an availability failure, like a
        lost quorum — when ``max_steps`` steps found no moment at which
        a read quorum of voting peers was up and every up one could be
        reconciled.
        """
        for _ in range(max_steps):
            if self.step():
                return
        raise NetworkError(
            f"join of {self.replica} did not finish in {max_steps} steps"
        )
