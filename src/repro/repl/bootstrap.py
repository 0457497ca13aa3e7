"""Online replica bootstrap: snapshot pull, log shipping, cutover.

The paper assumes a fixed representative suite and leans on quorum
intersection to ride out crashes; a replica that loses its *log* as well
as its store (a disk swap, an operator wipe) is outside that model — it
holds nothing, so counting its votes again without refilling it would
break the intersection argument.  :class:`ReplicaJoin` brings such a
replica back online while client operations keep flowing:

1. **Snapshot** — pick a donor (any up, voting peer), export its store
   and the joiner's, and ship the joiner what the donor holds that is
   newer (:func:`reconcile_replica`): everything for a wiped joiner,
   only what changed while it was down for one that merely crashed.
   The merge is *monotone* (a shipped fact lands only where it is
   strictly newer), which is what makes it safe to run concurrently
   with live writes: from the moment the join starts, the suite counts
   the joiner as a non-voting write recipient, so a write landing
   between export and install is never overwritten by the older
   snapshot.  The donor's export carries the watermark catch-up polls
   from.
2. **Catch-up** — poll the donor's write-ahead log from the watermark,
   buffering records per transaction and shipping a transaction's
   redo pieces only once its commit record appears (presumed abort:
   undecided or aborted transactions ship nothing).  If the donor
   checkpoints past our watermark (:class:`RecoveryError`) or goes
   down, fall back to a fresh snapshot.
3. **Cutover** — once a poll comes back near-empty, run the snapshot
   phase's step against *every* up voting peer (not just the donor: a
   write quorum need not contain the donor, so the donor's log alone
   can miss committed data) and flip the joiner's membership back to
   voting.  From then on quorum intersection covers it again.

The machine is *incremental*: :meth:`ReplicaJoin.step` does one bounded
slice of work — the simulation driver calls it between client
operations, a server calls it from an admin verb — so a join never
blocks the workload it is racing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any

from repro.core.errors import (
    NetworkError,
    RecoveryError,
    SnapshotUnavailableError,
)
from repro.repl.lifecycle import ReplicaState
from repro.storage.interface import StoreSnapshot
from repro.storage.wal import OP_ABORT, OP_COALESCE, OP_COMMIT, OP_INSERT

#: Reconcile pieces: ``("entry", key, version, value)`` installs an entry
#: where strictly newer; ``("gap", low, high, version)`` installs a gap
#: version where it strictly dominates the interval.  One flat tagged
#: list (not two) so log-shipped pieces keep their LSN order.
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
    keys = [e.key for e in target.entries]
    entry_versions = [e.version for e in target.entries]
    gaps = list(target.gap_versions)

    def min_fact_in(low: Any, high: Any) -> Any:
        # Everything the target stores strictly inside (low, high):
        # entries with low < key < high, plus every gap segment
        # overlapping the open interval (gap j spans keys[j]..keys[j+1];
        # it overlaps iff keys[j] < high and keys[j+1] > low, i.e.
        # lo - 1 <= j < hi).  The range is never empty: the interval is
        # inside [LOW, HIGH] and the sentinels bound the tiling.
        lo = bisect_right(keys, low)
        hi = bisect_left(keys, high)
        facts = entry_versions[lo:hi] + gaps[lo - 1 : hi]
        return min(facts)

    pieces: list[Piece] = []
    for entry in source.entries:
        if entry.key.is_sentinel:
            continue
        if entry.version > target.lookup(entry.key).version:
            pieces.append(("entry", entry.key, entry.version, entry.value))
    for i, gap_version in enumerate(source.gap_versions):
        low = source.entries[i].key
        high = source.entries[i + 1].key
        if gap_version > min_fact_in(low, high):
            pieces.append(("gap", low, high, gap_version))
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
    provider stays bound) and its LSN counter keeps counting, so a donor
    shipping records never sees LSNs reused.
    """
    node_id = cluster.suite.placements[rep].node_id
    if cluster.network.is_up(node_id):
        raise RuntimeError(f"refusing to wipe live replica {rep}; crash it first")
    cluster.representatives[rep].wal.records.clear()


class ReplicaJoin:
    """Incremental state machine joining one replica into a live suite.

    Construct, call :meth:`start` once, then call :meth:`step`
    repeatedly (e.g. once per client operation) until it returns True.
    Every phase tolerates donor loss, lossy links, and checkpoint
    truncation by retrying or falling back to a fresh snapshot; the
    joiner's membership state (see :mod:`repro.repl.lifecycle`) tracks
    the phase so the suite withholds its read votes throughout.
    """

    #: A catch-up poll at or below this many records counts as "caught
    #: up" and triggers cutover.  Zero would never fire under a steady
    #: write load; any small bound is safe because the joiner receives
    #: every post-start write directly (it is a non-voting write
    #: recipient) and cutover reconciles against every up peer anyway.
    CUTOVER_BATCH = 8

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
        self._catchup_records = metrics.counter("repl.catchup.records")
        self._repairs = metrics.counter("repl.reconcile.repairs")
        #: "idle" -> "snapshot" -> "catchup" -> "done"
        self.phase = "idle"
        self.donor: str | None = None
        self.watermark = 0
        #: Undecided donor transactions: txn_id -> pieces, in LSN order.
        self._pending: dict[int, list[Piece]] = {}
        #: Decided pieces not yet merged into the joiner (a reconcile
        #: RPC that was dropped leaves them here for the next step).
        self._outbox: list[Piece] = []

    # -- public surface ----------------------------------------------------

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def start(self) -> None:
        """Recover the joiner's node and mark it JOINING (non-voting).

        Membership flips *before* the first snapshot export, so every
        write committed from this instant on reaches the joiner
        directly — the overlap with the snapshot is what makes the
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
        self.phase = "snapshot"

    def step(self) -> bool:
        """One bounded slice of join work; True when the join is done."""
        if self.phase == "idle":
            self.start()
        if self.phase == "snapshot":
            self._step_snapshot()
        elif self.phase == "catchup":
            self._step_catchup()
        return self.phase == "done"

    def run(self, max_steps: int = 10_000) -> None:
        """Drive :meth:`step` to completion (tests, admin verbs)."""
        for _ in range(max_steps):
            if self.step():
                return
        raise RuntimeError(
            f"join of {self.replica} did not finish in {max_steps} steps"
        )

    # -- phases ------------------------------------------------------------

    def _reconcile_from(self, peer: str) -> int:
        """Ship the joiner whatever ``peer`` holds that it lacks.

        The one step both the snapshot phase and cutover are made of:
        export both stores, diff, send the difference.  A wiped joiner's
        empty store makes the difference the peer's whole store; one that
        merely crashed is sent what changed while it was down.  Returns
        the peer's watermark (the LSN its export reflects).
        """
        suite = self.suite
        joiner_snap, _ = admin_call(suite, self.replica, "rep_export_snapshot")
        peer_snap, watermark = admin_call(suite, peer, "rep_export_snapshot")
        reconcile_replica(
            suite, peer_snap, joiner_snap, self.replica, self._repairs
        )
        return watermark

    def _step_snapshot(self) -> None:
        """Reconcile against the first willing donor; log-ship from there."""
        # The joiner holds no vote, so every eligible member is a peer.
        for donor in self.suite._eligible():
            try:
                watermark = self._reconcile_from(donor)
            except (SnapshotUnavailableError, NetworkError):
                continue  # busy, down, or a dropped message; next donor
            self.donor = donor
            self.watermark = watermark
            self.suite.membership.set_state(
                self.replica, ReplicaState.CATCHING_UP
            )
            self.phase = "catchup"
            return
        # No donor this step (all busy or unreachable): retry next step.

    def _step_catchup(self) -> None:
        """Ship one batch of donor log records; cut over when caught up."""
        suite = self.suite
        try:
            watermark, records = admin_call(
                suite,
                self.donor,
                "rep_wal_since",
                self.watermark,
                payload_items=1,
            )
        except RecoveryError:
            self._fall_back_to_snapshot()  # donor checkpointed past us
            return
        except NetworkError:
            donor_node = suite.placements[self.donor].node_id
            if not suite.network.is_up(donor_node):
                self._fall_back_to_snapshot()  # donor died; pick another
            return  # transient loss: retry the same donor next step
        self.watermark = watermark
        if records:
            self._catchup_records.inc(len(records))
            self._outbox.extend(self._absorb(records))
        if self._outbox:
            try:
                ship_pieces(
                    suite, self.replica, self._outbox, self._repairs
                )
            except NetworkError:
                return  # outbox kept; retried next step
            self._outbox = []
        if len(records) <= self.CUTOVER_BATCH:
            self._try_cutover()

    def _absorb(self, records: list[tuple]) -> list[Piece]:
        """Fold shipped records into per-transaction buffers.

        Returns the pieces of transactions whose commit record arrived,
        in LSN order (safe to interleave across transactions: strict
        two-phase locking on the donor means concurrently logged
        transactions touched disjoint ranges).  Aborted transactions
        drop their buffers; undecided ones wait for a later poll.
        """
        ready: list[Piece] = []
        for _lsn, txn_id, kind, payload in records:
            if kind == OP_INSERT:
                key, version, value = payload
                self._pending.setdefault(txn_id, []).append(
                    ("entry", key, version, value)
                )
            elif kind == OP_COALESCE:
                low, high, version = payload
                self._pending.setdefault(txn_id, []).append(
                    ("gap", low, high, version)
                )
            elif kind == OP_COMMIT:
                ready.extend(self._pending.pop(txn_id, []))
            elif kind == OP_ABORT:
                self._pending.pop(txn_id, None)
        return ready

    def _fall_back_to_snapshot(self) -> None:
        """Restart from a fresh snapshot (donor lost or truncated)."""
        self._pending.clear()
        self._outbox = []
        self.donor = None
        self.watermark = 0
        self.suite.membership.set_state(self.replica, ReplicaState.JOINING)
        self.phase = "snapshot"

    def _try_cutover(self) -> None:
        """Reconcile against every up voting peer, then restore the vote.

        The donor's log alone cannot certify completeness — a write
        quorum need not contain the donor — so cutover merges whatever
        any peer knows that the joiner does not.  All exports happen in
        one step (no client operation interleaves in the simulated
        driver), and any failure leaves the join in catch-up to try
        again next step.
        """
        suite = self.suite
        try:
            for peer in suite._eligible():
                self._reconcile_from(peer)
        except (SnapshotUnavailableError, NetworkError):
            return  # retry cutover on a later step
        suite.membership.set_state(self.replica, ReplicaState.UP)
        if self.detector is not None:
            self.detector.recover(suite.placements[self.replica].node_id)
        self._joins.inc()
        self.phase = "done"
