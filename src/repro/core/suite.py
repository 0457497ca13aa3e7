"""Directory suites: the paper's replication algorithm (section 3.2).

A directory suite combines a set of directory representatives, a vote
assignment, and quorum sizes R and W into one replicated directory with
the operations DirSuiteLookup (Figure 8), DirSuiteInsert (Figure 9),
DirSuiteUpdate, and DirSuiteDelete (Figure 13), the latter built on the
RealPredecessor / RealSuccessor searches of Figure 12.

Every public operation runs as one distributed transaction: representative
operations acquire the Figure 7 range locks as they go (strict two-phase
locking), and the operation commits with two-phase commit across every
representative it touched.  Network failures (crashed or partitioned
representatives, insufficient votes) abort the transaction, leaving no
partial effects.

The suite front-end issues remote procedure calls through an
:class:`~repro.net.rpc.RpcEndpoint`; representative placement is a simple
name → (node, service) map.  The suite additionally collects the paper's
three delete-overhead statistics (see :mod:`repro.core.stats`) and
supports the section 4 batching optimization for neighbor searches
(``neighbor_batch_size > 1``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.config import SuiteConfig
from repro.core.entries import (
    LookupReply,
    NeighborReply,
    RealNeighbor,
    SuiteLookupReply,
)
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    NodeDownError,
    ReproError,
    SentinelKeyError,
    TransactionAbortedError,
)
from repro.core.keys import LOW, BoundedKey, wrap
from repro.core.quorum import QuorumPolicy, RandomQuorumPolicy
from repro.core.stats import DeleteOverheadStats, RunningStat, SuiteOpCounts
from repro.core.versions import VersionSpace, UNBOUNDED
from repro.net.network import Network
from repro.net.rpc import RpcCall
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.repl.lifecycle import SuiteMembership
from repro.storage.interface import MergedTiling
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction


@dataclass(frozen=True, slots=True)
class Placement:
    """Where one representative lives."""

    node_id: str
    service_name: str


class DirectorySuite:
    """A replicated directory implemented with weighted voting.

    Parameters
    ----------
    config:
        Vote assignment and quorum sizes.
    placements:
        Representative name → (node, service) location map; must cover
        every name in ``config``.
    network / rpc / txn_manager:
        The :class:`~repro.net.network.Network` the representatives are
        hosted on (simulated or asyncio), the per-client calling
        endpoint it issued, and the transaction manager sharing that
        endpoint.
    quorum_policy:
        How quorum members are chosen; defaults to the paper's uniform
        random selection.
    rng:
        Randomness source for quorum selection (seed it for reproducible
        simulations).
    version_space:
        Version-number arithmetic; defaults to unbounded integers.
    neighbor_batch_size:
        How many predecessor/successor results one RPC carries during the
        real-neighbor searches (1 = the paper's unbatched pseudocode;
        3 = the batching suggested in section 4).
    read_repair:
        When True, a lookup that observes a stale or missing entry on a
        read-quorum member pushes the current entry back to it (within
        the same transaction).  An extension in the spirit of section
        5's "an inventive reader will find many improvements": it raises
        copy density, which shrinks the delete operation's
        insertions-while-coalescing overhead (see
        benchmarks/bench_read_repair.py).
    tracer:
        Span tracer shared with the cluster (defaults to the no-op
        tracer).  With a recording tracer every public operation records
        an ``op:<kind>`` root span, with ``quorum:`` and ``rpc:`` spans
        nested below it.
    metrics:
        Cluster metrics registry; defaults to the network's.  The suite
        publishes its operation counts, delete-overhead statistics, and
        quorum-selection counters/size histograms into it.
    fanout:
        How quorum RPC rounds are issued.  ``"serial"`` (default) is the
        paper-faithful baseline: a round goes out as rounds of one, each
        charged a full round trip, bit-identical accounting to the
        pre-fan-out code.  ``"parallel"`` scatters each round at once
        and pays the *max* arrival over the batch.  Either way a round
        waits for every member it sent to.

    A failure detector is wired in with :meth:`attach_detector`, and
    in-transaction re-issue of timed-out RPCs by setting
    :attr:`rpc_retries`; both matter only where messages can be lost.
    """

    def __init__(
        self,
        config: SuiteConfig,
        placements: dict[str, Placement],
        network: Network,
        rpc: Any,
        txn_manager: TransactionManager,
        quorum_policy: QuorumPolicy | None = None,
        rng: random.Random | None = None,
        version_space: VersionSpace = UNBOUNDED,
        neighbor_batch_size: int = 1,
        read_repair: bool = False,
        tracer: Any = None,
        metrics: MetricsRegistry | None = None,
        fanout: str = "serial",
    ) -> None:
        missing = set(config.names) - set(placements)
        if missing:
            raise ValueError(f"placements missing for representatives: {missing}")
        if neighbor_batch_size < 1:
            raise ValueError("neighbor_batch_size must be >= 1")
        if fanout not in ("serial", "parallel"):
            raise ValueError(f"fanout must be serial or parallel; got {fanout!r}")
        self.config = config
        self.placements = dict(placements)
        # Name → node id, the form a quorum census asks the network in.
        self._node_of = {
            name: place.node_id for name, place in self.placements.items()
        }
        #: Lifecycle states (see :mod:`repro.repl.lifecycle`): a replica
        #: mid-bootstrap receives every write but contributes no votes.
        #: ``membership.all_up`` guards every consultation, keeping the
        #: no-join-in-progress path bit-identical to the static suite.
        self.membership = SuiteMembership(config.names)
        #: Where the representatives live: fault injection, traffic
        #: accounting and partitions reach through here, on either clock.
        self.network = network
        #: The network's clock (simulated ticks or wall-clock seconds).
        self.clock = network.clock
        self.rpc = rpc
        self.txn_manager = txn_manager
        self.quorum_policy = quorum_policy or RandomQuorumPolicy()
        self.rng = rng or random.Random()
        self.version_space = version_space
        self.neighbor_batch_size = neighbor_batch_size
        self.read_repair = read_repair
        self.repairs_performed = 0
        self.delete_stats = DeleteOverheadStats()
        self.op_counts = SuiteOpCounts()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else network.metrics
        #: In-transaction re-issues of a representative RPC that times out
        #: on a lossy network (see :meth:`_round` for why re-issue is
        #: safe).  0: a perfect network loses nothing to re-issue, and
        #: lossy runs set their own budget (the driver sets 2).
        self.rpc_retries = 0
        self.fanout = fanout
        # The commit protocol's rounds fan out as the suite's own do.
        txn_manager.coordinator.parallel = fanout != "serial"
        self._fanout_width = RunningStat()
        #: Transaction id of the most recently begun suite transaction.
        #: A retrying front-end reads it after a failed attempt to probe
        #: the 2PC decision log for the attempt's true outcome.
        self.last_txn_id = None
        self._detector = None
        self._register_metrics()

    def close(self) -> None:
        """Release the suite's network (see the Directory lifecycle).

        Idempotent: a no-op on a simulated network; an asyncio transport
        stops its event loop and the loop's thread.
        """
        self.network.close()

    def __enter__(self) -> "DirectorySuite":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def attach_detector(self, detector: Any) -> None:
        """Wire a :class:`~repro.net.detector.FailureDetector` in.

        The suite feeds it evidence from every representative RPC
        (down / timeout / success) and the quorum policy screens its
        suspects during selection.
        """
        self._detector = detector
        self.quorum_policy.bind_detector(
            detector, node_of=lambda rep: self.placements[rep].node_id
        )

    def _register_metrics(self) -> None:
        """Publish the suite's stat surfaces into the registry.

        Providers read the *current* attribute each snapshot, so code
        that swaps in fresh collectors (the simulation driver resets
        ``delete_stats`` between phases) stays readable.
        """
        metrics = self.metrics
        metrics.provider(
            "suite.ops",
            lambda: {
                "lookups": self.op_counts.lookups,
                "inserts": self.op_counts.inserts,
                "updates": self.op_counts.updates,
                "deletes": self.op_counts.deletes,
                "failed": self.op_counts.failed,
                "total": self.op_counts.total,
            },
        )
        metrics.provider(
            "suite.delete_overhead", lambda: self.delete_stats.as_table()
        )
        metrics.gauge("suite.read_repairs", lambda: self.repairs_performed)
        # Quorum-size distributions are plain RunningStats updated without
        # locking on the (very hot) collection path — the same convention
        # as op_counts and delete_stats — and *adopted* by the registry's
        # histograms, so snapshots see them live.  Selections per kind is
        # the histogram's sample count, exposed as a gauge.
        self._quorum_members = {}
        for kind in ("read", "write"):
            stat = RunningStat()
            self._quorum_members[kind] = stat
            metrics.histogram(f"suite.quorum.{kind}.members", stat=stat)
            metrics.gauge(
                f"suite.quorum.{kind}.selections", lambda s=stat: s.n
            )
        # Group-commit telemetry (see repro.core.batch): wave sizes,
        # total batched ops, and waves that re-ran op by op, as waves of
        # one, after an availability abort.
        self._batch_size = RunningStat()
        metrics.histogram("suite.batch.size", stat=self._batch_size)
        metrics.gauge("suite.batch.waves", lambda: self._batch_size.n)
        self._batch_ops = metrics.counter("suite.batch.ops")
        self._batch_fallbacks = metrics.counter("suite.batch.fallbacks")
        # How a wave's deletes shared their walk: deletes that searched
        # and coalesced together (one sample per wave that had any to
        # try), and deletes that had to walk alone, in arrival order.
        self._batch_walk_deletes = RunningStat()
        metrics.histogram(
            "suite.batch.walk_deletes", stat=self._batch_walk_deletes
        )
        metrics.gauge("suite.batch.walks", lambda: self._batch_walk_deletes.n)
        self._batch_rewalks = metrics.counter("suite.batch.rewalks")
        # Fan-out telemetry: one width sample per round (always 1 in
        # serial mode).
        metrics.histogram("suite.fanout.width", stat=self._fanout_width)
        metrics.provider("repl.membership", lambda: self.membership.counts())
        self.quorum_policy.bind_metrics(metrics)

    # ------------------------------------------------------------------
    # public API (user payload keys)
    # ------------------------------------------------------------------

    def lookup(self, key: Any) -> tuple[bool, Any]:
        """DirSuiteLookup: (present?, value).

        The internal version number is deliberately not exposed — "a user
        would ignore this number" (paper, footnote 4).
        """
        bkey = self._user_key(key)
        self.op_counts.lookups += 1
        with self._op_span("lookup", key=key), self._transaction() as txn:
            reply = self._suite_lookup(txn, bkey)
        return reply.present, reply.value

    def insert(self, key: Any, value: Any) -> None:
        """DirSuiteInsert: add a new entry; error if the key is present."""
        bkey = self._user_key(key)
        self.op_counts.inserts += 1
        with self._op_span("insert", key=key, value=value), self._transaction() as txn:
            self._suite_insert(txn, bkey, value, expect_present=False)

    def update(self, key: Any, value: Any) -> None:
        """DirSuiteUpdate: overwrite an entry; error if the key is absent."""
        bkey = self._user_key(key)
        self.op_counts.updates += 1
        with self._op_span("update", key=key, value=value), self._transaction() as txn:
            self._suite_insert(txn, bkey, value, expect_present=True)

    def size(self) -> int:
        """Number of entries present, via a RealSuccessor walk.

        Part of the :class:`~repro.core.interface.Directory` contract.
        Walks Figure 12's real-successor chain from LOW to HIGH inside
        one transaction, so the count is a consistent quorum-backed
        snapshot: each step is a full neighbor search plus confirming
        lookup, skipping ghosts exactly as delete's range search does.
        O(n) quorum reads — a measurement/administration operation, not
        a hot-path one.
        """
        with self._op_span("size"), self._transaction() as txn:
            count = 0
            cursor = LOW
            while True:
                neighbor = self._real_neighbor(txn, cursor, "succ")
                if neighbor.key.is_high:
                    return count
                count += 1
                cursor = neighbor.key

    def execute_batch(self, ops: Any) -> "list[Any]":
        """Run a wave of ops as one grouped quorum transaction.

        ``ops`` is an iterable of :class:`repro.core.batch.BatchOp` (or
        ``(kind, key[, value])`` tuples); returns one
        :class:`~repro.core.batch.BatchOutcome` per op, in order, with
        sequential-execution semantics — see :mod:`repro.core.batch`
        for the engine and its equivalence argument.
        """
        from repro.core.batch import execute_batch

        return execute_batch(self, ops)

    def delete(self, key: Any) -> None:
        """DirSuiteDelete: remove an entry; error if the key is absent."""
        bkey = self._user_key(key)
        self.op_counts.deletes += 1
        with self._op_span("delete", key=key), self._transaction() as txn:
            *_, overhead = self._suite_delete(txn, bkey)
        self.delete_stats.record_delete(*overhead)

    def _upsert(self, key: Any, value: Any) -> None:
        """``SET`` alone: insert-or-update as one transaction, counted as
        whichever it turned out to be — what a wave's fold does for it."""
        bkey = self._user_key(key)
        with self._op_span("upsert", key=key, value=value), self._transaction() as txn:
            if self._suite_insert(txn, bkey, value, expect_present=None):
                self.op_counts.updates += 1
            else:
                self.op_counts.inserts += 1

    # ------------------------------------------------------------------
    # transaction plumbing
    # ------------------------------------------------------------------

    def _transaction(self, read_only_votes: bool = False) -> "_SuiteTransaction":
        return _SuiteTransaction(self, read_only_votes)

    def _op_span(self, op: str, **attrs: Any) -> Any:
        """The ``op:<op>`` root span of one public operation."""
        tracer = self.tracer
        if not tracer.enabled:
            return NULL_SPAN
        return tracer.span(f"op:{op}", **attrs, client=self.rpc.origin)

    def _user_key(self, key: Any) -> BoundedKey:
        bkey = wrap(key)
        if bkey.is_sentinel:
            raise SentinelKeyError(bkey)
        return bkey

    def _available(self) -> list[str]:
        """Representatives that are up and reachable right now.

        One census of the network per call, in ``placements`` order.
        """
        return self.network.census(self.rpc.origin, self._node_of)

    def _eligible(self) -> list[str]:
        """Available representatives whose votes may count right now.

        With no join in progress this *is* :meth:`_available` (the flag
        check is the whole cost, keeping the static-suite path
        bit-identical); mid-join it additionally drops members still
        bootstrapping, whose stale stores must not supply votes.
        """
        available = self._available()
        if self.membership.all_up:
            return available
        return self.membership.voting(available)

    def _collect_quorum(
        self, kind: str, within: "list[str] | None" = None
    ) -> list[str]:
        """CollectReadQuorum / CollectWriteQuorum; ``within`` nests the
        draw in another quorum (:meth:`QuorumPolicy.choose`).

        Mid-join, a write quorum is additionally *widened* with every
        available non-voting (bootstrapping) member: they receive the
        write — so no operation committed during a join can miss the
        joiner — but their votes are not what satisfied W, so quorum
        intersection still rests on fully-caught-up replicas only.
        """
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(f"quorum:{kind}") as span:
                members = self.quorum_policy.choose(
                    kind, self._eligible(), self.config, self.rng, within
                )
                span.set("members", list(members))
        else:
            members = self.quorum_policy.choose(
                kind, self._eligible(), self.config, self.rng, within
            )
        self._quorum_members[kind].add(len(members))
        if kind == "write" and not self.membership.all_up:
            available = set(self._available())
            members = members + [
                name
                for name in self.membership.non_voting()
                if name in available and name not in members
            ]
        return members

    # ------------------------------------------------------------------
    # quorum rounds
    # ------------------------------------------------------------------

    def _round(
        self, txn: Transaction, calls: list[tuple], ends: str | None = None
    ) -> list[Any]:
        """Issue one quorum round; return its values in ``calls`` order.

        ``calls`` lists ``(rep, method, args[, payload_items])``, ``args``
        without the transaction id.  This is where ``fanout`` is decided
        for every round: parallel sends the round as one scatter and
        waits for every member; serial sends it as scatters of one, each
        gathered before the next is issued, and stops at the first
        failure.  Either way the failure raised is the first in issue
        order, after the clock has advanced to its scatter's envelope.
        An empty round sends nothing.

        Each scatter's side channels are absorbed before its gather.
        Detector evidence is fed for every member (a timeout strike per
        lost exchange, down/ok for the final outcome).  Every member
        whose call executed — a lost reply's too — is enlisted if it is
        not already, with its reply's incarnation, so 2PC reaches each
        representative that may hold locks or undo state; one that never
        executed holds nothing.  This is where a round notices a restart
        (:meth:`~repro.txn.twopc.TwoPhaseCoordinator._phase` does the same
        for ``prepare``): a later reply from a later incarnation — a
        replica that lost the transaction's locks and effects — fails with
        ``TransactionAbortedError``, raised in issue order.

        A member that times out is re-issued up to ``rpc_retries`` times
        within its scatter before the timeout surfaces (and aborts the
        transaction).  Re-issue is safe because every Figure 6 operation
        is *idempotent within its transaction*: a second ``rep_insert``
        overwrites with identical content (and its undo records cancel
        pairwise on abort), a second ``rep_coalesce`` finds the range
        already merged, and reads under held locks are stable — so a
        reply lost after the effect applied cannot double-apply anything.

        ``ends`` marks a round that ends the transaction at its members
        (:mod:`repro.core.batch`); it sends each call a trailing ``True``.
        ``"vote"``: each call is its member's last write and carries its
        vote, so a member that answers is recorded in ``txn.voted`` and
        is sent no ``prepare``.  ``"release"``: each member reads and
        releases in the one call, so none is enlisted and 2PC has no one
        to reach.
        """
        if not calls:
            return []
        placements = self.placements
        txn_id = txn.txn_id
        retries = self.rpc_retries
        participants = txn.participants
        flag = () if ends is None else (True,)
        members = []
        for rep, method, args, *payload in calls:
            place = placements[rep]
            members.append(RpcCall(
                place.node_id, place.service_name, method,
                (txn_id, *args, *flag), {}, payload[0] if payload else 1,
                retries, rep,
            ))
        if self.fanout == "serial":
            scatters = [[member] for member in members]
            width = 1
        else:
            scatters = [members]
            width = len(members)
        label = calls[0][1]
        scatter = self.rpc.scatter
        add_width = self._fanout_width.add
        detector = self._detector
        # A released read leaves nothing behind to enlist.
        if ends == "release":
            participants = None
        voted = txn.voted if ends == "vote" else None
        values = []
        for group in scatters:
            batch = scatter(group, label)
            add_width(width)
            for reply in batch.replies:
                if detector is not None:
                    node_id = reply.call.node_id
                    for _ in range(reply.timeouts):
                        detector.record_timeout(node_id)
                    if reply.error is None:
                        detector.record_ok(node_id)
                    elif isinstance(reply.error, NodeDownError):
                        detector.record_down(node_id)
                if participants is not None and reply.effect_applied:
                    call = reply.call
                    if call.key not in participants:
                        txn.enlist(
                            call.key, call.node_id, call.service_name,
                            reply.incarnation,
                        )
                    elif participants[call.key].incarnation != reply.incarnation:
                        reply.error = reply.error or TransactionAbortedError(
                            txn_id, f"representative {call.key} restarted"
                        )
            for reply in batch.complete_all():
                if reply.error is not None:
                    raise reply.error
                if voted is not None:
                    voted.add(reply.call.key)
                values.append(reply.value)
        return values

    # ------------------------------------------------------------------
    # Figure 8: DirSuiteLookup
    # ------------------------------------------------------------------

    def _suite_lookup(self, txn: Transaction, key: BoundedKey) -> SuiteLookupReply:
        """Send DirRepLookup to a read quorum; keep the highest version."""
        quorum = self._collect_quorum("read")
        calls = [(rep, "rep_lookup", (key,)) for rep in quorum]
        replies = dict(zip(quorum, self._round(txn, calls)))
        best: LookupReply | None = None
        for reply in replies.values():
            if reply.beats(best):
                best = reply
        assert best is not None  # quorum is never empty
        if self.read_repair and best.present and not key.is_sentinel:
            self._repair_stale(txn, key, best, replies)
        return SuiteLookupReply(best.present, best.version, best.value)

    def _repair_stale(
        self,
        txn: Transaction,
        key: BoundedKey,
        best: LookupReply,
        replies: dict[str, LookupReply],
    ) -> None:
        """Push the current entry onto stale read-quorum members.

        Copying *current* data at its *current* version preserves the
        monotonicity invariant (no version is invented), so repair is
        always safe; it simply raises the entry's copy density.
        """
        stale = [
            rep for rep, reply in replies.items()
            if reply.version < best.version
        ]
        self._round(
            txn,
            [
                (rep, "rep_insert", (key, best.version, best.value))
                for rep in stale
            ],
        )
        self.repairs_performed += len(stale)

    # ------------------------------------------------------------------
    # Figure 9: DirSuiteInsert (and DirSuiteUpdate, its analog)
    # ------------------------------------------------------------------

    def _suite_insert(
        self,
        txn: Transaction,
        key: BoundedKey,
        value: Any,
        expect_present: "bool | None",
    ) -> bool:
        """Shared body of DirSuiteInsert / DirSuiteUpdate.

        Looks the key up in a read quorum, derives the new version number
        (one greater than the highest version previously associated with
        the key — whether that was an entry or a gap), and installs the
        entry in a write quorum.  ``expect_present=None`` accepts either
        (insert-or-update); returns whether the key was present.
        """
        reply = self._suite_lookup(txn, key)
        if reply.present and expect_present is False:
            raise KeyAlreadyPresentError(key.payload)
        if not reply.present and expect_present:
            raise KeyNotPresentError(key.payload)
        quorum = self._collect_quorum("write")
        version = self.version_space.successor(reply.version)
        # Writes always wait on the full quorum: W votes must land.
        self._round(
            txn, [(rep, "rep_insert", (key, version, value)) for rep in quorum]
        )
        return reply.present

    # ------------------------------------------------------------------
    # Figure 12: RealPredecessor / RealSuccessor
    # ------------------------------------------------------------------

    def _real_neighbor(
        self, txn: Transaction, key: BoundedKey, direction: str
    ) -> RealNeighbor:
        """Locate the real predecessor ("pred") or successor ("succ") of key.

        The real predecessor of x is "the entry with the largest key less
        than x that appears in a write quorum of representatives"; the
        search walks candidate keys outward, skipping *ghosts* — candidates
        whose suite-level lookup says they are no longer present — and
        accumulates the largest gap version number seen, which bounds the
        version numbers of all stale data in the walked range.

        With ``neighbor_batch_size`` > 1, each representative returns
        several successive neighbors per RPC (section 4's optimization);
        the walk then usually costs one RPC round per quorum member.
        """
        assert direction in ("pred", "succ")
        quorum = self._collect_quorum("read")
        search = _NeighborSearch(self, quorum, key, direction)
        while search.real is None:
            self._refill_streams(txn, quorum, search.streams, search.cursor)
            candidate = search.candidate()
            search.settle(candidate, self._suite_lookup(txn, candidate))
        return search.real

    def _refill_streams(
        self,
        txn: Transaction,
        quorum: list[str],
        streams: dict[str, "_NeighborStream"],
        cursor: BoundedKey,
    ) -> None:
        """One batched-neighbor fetch per stream that needs one, as a round.

        Brings every stream's cache up to covering ``cursor`` before the
        walk consults it.  Repeats until no stream is dry (a refill can
        come back still short of the cursor when batched items were
        consumed unevenly).
        """
        while True:
            needy = [
                rep for rep in quorum if streams[rep].needs_fetch(cursor)
            ]
            if not needy:
                return
            batches = self._round(
                txn,
                [
                    (
                        rep,
                        "rep_neighbors_batch",
                        streams[rep].fetch_args(),
                        self.neighbor_batch_size,
                    )
                    for rep in needy
                ],
            )
            for rep, items in zip(needy, batches):
                streams[rep].absorb(items)

    # ------------------------------------------------------------------
    # Figure 13: DirSuiteDelete
    # ------------------------------------------------------------------

    def _suite_delete(self, txn: Transaction, key: BoundedKey) -> tuple:
        """DirSuiteDelete: look ``key`` up, then coalesce around it."""
        lookup = self._suite_lookup(txn, key)
        if not lookup.present:
            raise KeyNotPresentError(key.payload)
        return self._coalesce_around(txn, key, lookup.version)

    def _coalesce_around(
        self, txn: Transaction, key: BoundedKey, key_version: Any
    ) -> tuple:
        """Delete a present ``key`` by coalescing from real predecessor to
        successor — Figure 13 after its lookup, one delete at a time (a
        wave runs the same steps for all of its deletes at once:
        :func:`repro.core.batch._walk` and ``_Wave.write``).  Returns the
        coalesced range, the new gap's version, and the arguments
        ``delete_stats.record_delete`` is owed once the transaction has
        committed.

        Steps (Figure 13):

        1. find the real successor and real predecessor of the key;
        2. compute the new gap's version number: one greater than the
           maximum of every gap version encountered during the searches
           and the deleted entry's own version (so no stale data anywhere
           in the coalesced range can outrank the new gap);
        3. install the real predecessor/successor on write-quorum members
           that lack them (counted as "insertions while coalescing");
        4. coalesce the range on every write-quorum member, which also
           removes any ghosts (counted as "deletions while coalescing").
        """
        quorum = self._collect_quorum("write")
        succ = self._real_neighbor(txn, key, "succ")
        pred = self._real_neighbor(txn, key, "pred")
        version = max(succ.max_gap_version, pred.max_gap_version, key_version)

        # Probe each (member, neighbour) pair and install the copies found
        # missing.  Serial takes one pair at a time, so an install follows
        # its own probe (the order the lossy pins drew their faults in);
        # otherwise one round probes every pair and a second installs.
        pairs = [(rep, nb) for rep in quorum for nb in (succ, pred)]
        steps = [[pair] for pair in pairs] if self.fanout == "serial" else [pairs]
        insertions = 0
        for step in steps:
            probes = self._round(
                txn, [(rep, "rep_lookup", (nb.key,)) for rep, nb in step]
            )
            missing = [
                pair for pair, found in zip(step, probes) if not found.present
            ]
            self._round(
                txn,
                [
                    (rep, "rep_insert", (nb.key, nb.version, nb.value))
                    for rep, nb in missing
                ],
            )
            insertions += len(missing)

        new_gap_version = self.version_space.successor(version)
        per_rep_coalesced: list[int] = []
        ghost_deletions = 0
        results = self._round(
            txn,
            [
                (rep, "rep_coalesce", (pred.key, succ.key, new_gap_version))
                for rep in quorum
            ],
        )
        for result in results:
            per_rep_coalesced.append(len(result.removed.entries))
            ghost_deletions += sum(
                1 for e in result.removed.entries if e.key != key
            )
        overhead = (per_rep_coalesced, insertions, ghost_deletions)
        return pred.key, succ.key, new_gap_version, overhead

    # ------------------------------------------------------------------
    # debugging / test support
    # ------------------------------------------------------------------

    def merged_tiling(self) -> MergedTiling:
        """The up representatives' stores as one :class:`MergedTiling`.

        Test and audit support: it peeks at every replica directly.
        """
        network = self.network
        return MergedTiling(
            {
                name: network.local_service(
                    place.node_id, place.service_name
                ).store
                for name, place in self.placements.items()
                if network.is_up(place.node_id)
            }
        )

    def authoritative_state(self) -> dict[Any, Any]:
        """The directory's true contents: every key the up
        representatives together hold present, with its value."""
        return self.merged_tiling().state()


class _NeighborSearch:
    """One Figure 12 search in progress.

    Holds a :class:`_NeighborStream` per read-quorum member, the cursor
    the walk has reached, and the largest gap version any member has
    reported on the way.  Who fills the streams and who judges the
    candidates is the caller's business: :meth:`_real_neighbor` fills
    them for one search and looks each candidate up in a round of its
    own (Figure 12), a wave fills them for all of its searches at once
    and judges each candidate from the replies in hand (:meth:`verdict`,
    :mod:`repro.core.batch`).
    """

    def __init__(
        self,
        suite: DirectorySuite,
        quorum: list[str],
        key: BoundedKey,
        direction: str,
    ) -> None:
        self.direction = direction
        self.streams = {
            rep: _NeighborStream(suite.neighbor_batch_size, key, direction)
            for rep in quorum
        }
        self.cursor = key
        self.max_gap_version = suite.version_space.lowest
        #: The real neighbor, once a candidate has proved present.
        self.real: RealNeighbor | None = None

    def candidate(self) -> BoundedKey:
        """The nearest key beyond the cursor that any member stores.

        Every stream must already reach the cursor (see
        :meth:`_NeighborStream.needs_fetch`).
        """
        nearest = max if self.direction == "pred" else min
        candidate: BoundedKey | None = None
        for stream in self.streams.values():
            reply = stream.reply_for(self.cursor)
            self.max_gap_version = max(self.max_gap_version, reply.gap_version)
            candidate = (
                reply.key if candidate is None else nearest(candidate, reply.key)
            )
        assert candidate is not None  # quorum is never empty
        return candidate

    def verdict(self, candidate: BoundedKey) -> LookupReply:
        """DirSuiteLookup(``candidate``) read off the neighbour replies
        already in hand, for no message.

        Each member's reply for the cursor is its DirRepLookup of the
        candidate: the entry, if the member's neighbour is the
        candidate; else the candidate lies in the member's gap next to
        the cursor, and the lookup would return that gap's version.  The
        reply's RepLookup lock covers ``[cursor, neighbour]``, so nothing
        has changed there since.  Merged in quorum order by
        :meth:`LookupReply.beats` — Figure 8's rule, ties included.
        """
        best: LookupReply | None = None
        for stream in self.streams.values():
            reply = stream.reply_for(self.cursor)
            here = (
                LookupReply(True, reply.entry_version, reply.value)
                if reply.key == candidate
                else LookupReply(False, reply.gap_version)
            )
            if here.beats(best):
                best = here
        assert best is not None  # quorum is never empty
        return best

    def settle(self, candidate: BoundedKey, reply: Any) -> None:
        """Take the suite-level verdict on ``candidate``: the real
        neighbor if it is present, else a ghost for the cursor to move
        past."""
        if reply.present:
            self.real = RealNeighbor(
                key=candidate,
                value=reply.value,
                version=reply.version,
                max_gap_version=self.max_gap_version,
            )
        else:
            self.cursor = candidate


class _NeighborStream:
    """Cursor over one representative's successive neighbors of a key.

    Holds what ``neighbor_batch_size``-result refills returned and serves
    ``reply_for(k)`` — the representative's immediate neighbor of ``k`` —
    from that cache; the walk refills a stream (one round per step, see
    :meth:`DirectorySuite._refill_streams`) whenever it
    :meth:`needs_fetch`.  Gap versions come out exactly as an unbatched
    DirRepPredecessor/DirRepSuccessor would return them, because for any
    probe key k between two of this representative's entries the gap (and
    its version) is the same one the batch already crossed.
    """

    def __init__(self, batch_size: int, start: BoundedKey, direction: str) -> None:
        self.batch_size = batch_size
        self.direction = direction
        self._items: list[NeighborReply] = []
        self._fetch_from = start
        self._exhausted = False
        self._pos = 0

    def fetch_args(self) -> tuple:
        """Wire arguments (after the txn id) for the next refill RPC.

        Raises if the stream is already past its sentinel — a refill
        can then never be needed.
        """
        if self._exhausted:
            raise ReproError(
                f"neighbor stream past the {self.direction} sentinel"
            )  # pragma: no cover - the sentinels always terminate the walk
        return (self._fetch_from, self.direction, self.batch_size)

    def absorb(self, batch: list[NeighborReply]) -> None:
        """Append one refill's results to the cache."""
        self._items.extend(batch)
        if batch:
            last = batch[-1].key
            self._fetch_from = last
            if last.is_low or last.is_high:
                self._exhausted = True
        else:
            self._exhausted = True

    def reply_for(self, probe: BoundedKey) -> NeighborReply | None:
        """This representative's immediate neighbor of ``probe``, or None
        if the cache does not reach that far yet.

        Advances past items on the wrong side of ``probe`` (consumed
        positions) without consuming the match.  ``probe`` must move
        monotonically (downward for "pred", upward for "succ"), which the
        suite's walk guarantees.
        """
        while self._pos < len(self._items):
            item = self._items[self._pos]
            if self.direction == "pred":
                if item.key < probe:
                    return item
            else:
                if item.key > probe:
                    return item
            self._pos += 1
        return None

    def needs_fetch(self, probe: BoundedKey) -> bool:
        """True if the stream must be refilled before ``reply_for(probe)``."""
        return self.reply_for(probe) is None


class _SuiteTransaction:
    """Context manager: begin, then commit on success / abort on error.

    ``read_only_votes`` is the commit protocol's: a wave's transaction
    (:mod:`repro.core.batch`) lets replicas it only read drop out at
    prepare, asks no ``prepare`` of those whose last write carried their
    vote (``txn.voted``), and commits with nothing to send when a
    released read enlisted no one; every classic operation keeps the
    full two phases.
    """

    def __init__(self, suite: DirectorySuite, read_only_votes: bool) -> None:
        self.suite = suite
        self.read_only_votes = read_only_votes
        self.txn: Transaction | None = None

    def __enter__(self) -> Transaction:
        self.txn = self.suite.txn_manager.begin()
        self.suite.last_txn_id = self.txn.txn_id
        return self.txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self.txn is not None
        if exc_type is None:
            self.suite.txn_manager.commit(self.txn, self.read_only_votes)
            return False
        self.suite.op_counts.failed += 1
        try:
            self.suite.txn_manager.abort(self.txn)
        except NetworkError:  # pragma: no cover - abort is best-effort
            pass
        return False  # propagate the original error
