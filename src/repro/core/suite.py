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
    RpcTimeoutError,
    SentinelKeyError,
)
from repro.core.keys import LOW, BoundedKey, wrap
from repro.core.quorum import QuorumPolicy, RandomQuorumPolicy
from repro.core.stats import DeleteOverheadStats, RunningStat, SuiteOpCounts
from repro.core.versions import VersionSpace, UNBOUNDED
from repro.net.network import Network
from repro.net.rpc import RpcBatch, RpcCall, RpcEndpoint
from repro.net.transport import SimTransport, Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPAN, NULL_TRACER
from repro.repl.lifecycle import SuiteMembership
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
    transport / rpc / txn_manager:
        The cluster substrate: a :class:`~repro.net.transport.Transport`
        (simulated or asyncio), the per-client calling endpoint it
        issued, and the transaction manager sharing that endpoint.  A
        bare :class:`~repro.net.network.Network` is also accepted and
        wrapped in a :class:`~repro.net.transport.SimTransport`.
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
    detector:
        Optional :class:`~repro.net.detector.FailureDetector` (also
        attachable later via :meth:`attach_detector`).  Every
        representative RPC feeds it up/down/timeout evidence and quorum
        selection screens its suspects, so retries avoid known-bad
        representatives.
    rpc_retries:
        How many times a representative RPC that timed out is re-issued
        within the same transaction before the timeout aborts it (safe —
        the Figure 6 operations are idempotent within a transaction; see
        :meth:`_call`).  0, the default, keeps the perfect-network fast
        path.
    fanout:
        How quorum RPC rounds are issued.  ``"serial"`` (default) is the
        paper-faithful baseline: one call at a time, each charged a full
        round trip, bit-identical accounting to the pre-fan-out code.
        ``"parallel"`` scatters each round concurrently and pays the
        *max* arrival over the batch.  ``"hedged"`` additionally
        over-requests reads to ``hedge_extra`` spare representatives and
        completes on the first vote-sufficient replies; stragglers are
        awaited only for lock-release accounting at commit/abort (safe —
        quorum reads are idempotent, and every representative that
        executed a call is still enlisted for two-phase commit).
    hedge_extra:
        How many spare representatives a hedged read over-requests
        beyond the read quorum (only consulted when ``fanout="hedged"``).
    """

    def __init__(
        self,
        config: SuiteConfig,
        placements: dict[str, Placement],
        transport: "Transport | Network",
        rpc: Any,
        txn_manager: TransactionManager,
        quorum_policy: QuorumPolicy | None = None,
        rng: random.Random | None = None,
        version_space: VersionSpace = UNBOUNDED,
        neighbor_batch_size: int = 1,
        read_repair: bool = False,
        tracer: Any = None,
        metrics: MetricsRegistry | None = None,
        detector: Any = None,
        rpc_retries: int = 0,
        fanout: str = "serial",
        hedge_extra: int = 1,
    ) -> None:
        missing = set(config.names) - set(placements)
        if missing:
            raise ValueError(f"placements missing for representatives: {missing}")
        if neighbor_batch_size < 1:
            raise ValueError("neighbor_batch_size must be >= 1")
        if fanout not in ("serial", "parallel", "hedged"):
            raise ValueError(
                f"fanout must be serial, parallel, or hedged; got {fanout!r}"
            )
        if hedge_extra < 0:
            raise ValueError("hedge_extra must be >= 0")
        self.config = config
        self.placements = dict(placements)
        #: Lifecycle states (see :mod:`repro.repl.lifecycle`): a replica
        #: mid-bootstrap receives every write but contributes no votes.
        #: ``membership.all_up`` guards every consultation, keeping the
        #: no-join-in-progress path bit-identical to the static suite.
        self.membership = SuiteMembership(config.names)
        if isinstance(transport, Network):
            transport = SimTransport(transport)
        self.transport = transport
        #: The transport's clock (simulated ticks or wall-clock seconds).
        self.clock = transport.clock
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
        self.metrics = metrics if metrics is not None else transport.metrics
        #: In-transaction retries for a representative RPC that times out
        #: on a lossy network (see :meth:`_call` for why re-issue is
        #: safe).  0 keeps the perfect-network fast path.
        self.rpc_retries = rpc_retries
        self.fanout = fanout
        # The commit protocol's rounds fan out as the suite's own do.
        txn_manager.coordinator.parallel = fanout != "serial"
        self.hedge_extra = hedge_extra
        #: Net ticks hedged gathers returned before their stragglers,
        #: minus any straggler wait paid back at commit/abort (never
        #: negative in aggregate; see :meth:`_await_stragglers`).
        self.straggler_ticks_saved = 0.0
        self._fanout_width = RunningStat()
        #: Transaction id of the most recently begun suite transaction.
        #: A retrying front-end reads it after a failed attempt to probe
        #: the 2PC decision log for the attempt's true outcome.
        self.last_txn_id = None
        self._detector = None
        self._register_metrics()
        if detector is not None:
            self.attach_detector(detector)

    @property
    def network(self) -> Network:
        """The simulated network, when this suite runs on one.

        Simulation-only tooling (fault injection, traffic accounting,
        partitions) reaches through here; on a non-simulated transport
        there is no network to reach.
        """
        network = getattr(self.transport, "network", None)
        if network is None:
            raise AttributeError(
                f"{type(self.transport).__name__} has no simulated "
                "network; this surface is simulation-only"
            )
        return network

    def close(self) -> None:
        """Release the suite's substrate (see the Directory lifecycle).

        Delegates to the transport, whose ``close`` is idempotent; for
        the simulated transport this is a no-op, for the asyncio
        transport it stops the representative servers and the loop.
        """
        self.transport.close()

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
        # Fan-out telemetry.  Registered unconditionally (the metrics
        # catalog is mode-independent); in serial mode the histogram
        # simply stays empty and the gauge reads 0.
        # Group-commit telemetry (see repro.core.batch): wave sizes,
        # total batched ops, and waves that fell back to per-op
        # execution after an availability abort.
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
        metrics.histogram("suite.fanout.width", stat=self._fanout_width)
        metrics.gauge(
            "suite.fanout.straggler_ticks_saved",
            lambda: self.straggler_ticks_saved,
        )
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

    def _transaction(self) -> "_SuiteTransaction":
        return _SuiteTransaction(self)

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
        """Representatives that are up and reachable right now."""
        transport = self.transport
        origin = self.rpc.origin
        names = []
        for name, place in self.placements.items():
            if transport.is_up(place.node_id) and transport.reachable(
                origin, place.node_id
            ):
                names.append(name)
        return names

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

    def _collect_quorum(self, kind: str) -> list[str]:
        """CollectReadQuorum / CollectWriteQuorum.

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
                    kind, self._eligible(), self.config, self.rng
                )
                span.set("members", list(members))
        else:
            members = self.quorum_policy.choose(
                kind, self._eligible(), self.config, self.rng
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

    def _call(self, txn: Transaction, rep: str, method: str, *args: Any, **kw: Any) -> Any:
        """RPC to one representative, enlisting it in the transaction.

        A timed-out call is re-issued up to ``rpc_retries`` times before
        the timeout surfaces (and aborts the transaction).  Re-issue is
        safe because every Figure 6 operation is *idempotent within its
        transaction*: a second ``rep_insert`` overwrites with identical
        content (and its undo records cancel pairwise on abort), a second
        ``rep_coalesce`` finds the range already merged, and reads under
        held locks are stable — so a reply lost after the effect applied
        cannot double-apply anything.

        With a failure detector attached, the call's outcome doubles as
        liveness evidence: NodeDownError marks the host suspect at once,
        timeouts accumulate strikes, success clears both.
        """
        place = self.placements[rep]
        txn.enlist(rep, place.node_id, place.service_name)
        detector = self._detector
        if detector is None and not self.rpc_retries:
            return self.rpc.call(
                place.node_id, place.service_name, method, *args, **kw
            )
        try:
            for attempt in range(1 + self.rpc_retries):
                # Published (not passed as a kwarg, which would forward to
                # the remote method) so traced rpc: spans can mark retries.
                self.rpc.attempt = attempt
                try:
                    result = self.rpc.call(
                        place.node_id, place.service_name, method, *args, **kw
                    )
                except RpcTimeoutError:
                    if detector is not None:
                        detector.record_timeout(place.node_id)
                    if attempt >= self.rpc_retries:
                        raise
                except NodeDownError:
                    if detector is not None:
                        detector.record_down(place.node_id)
                    raise
                else:
                    if detector is not None:
                        detector.record_ok(place.node_id)
                    return result
        finally:
            self.rpc.attempt = 0

    # ------------------------------------------------------------------
    # scatter-gather engine (fanout = "parallel" / "hedged")
    # ------------------------------------------------------------------

    def _rep_call(
        self, txn: Transaction, rep: str, method: str,
        args: tuple, payload_items: int = 1,
    ) -> RpcCall:
        """Build one batch member addressed to representative ``rep``."""
        place = self.placements[rep]
        return RpcCall(
            node_id=place.node_id,
            service_name=place.service_name,
            method=method,
            args=(txn.txn_id, *args),
            payload_items=payload_items,
            retries=self.rpc_retries,
            key=rep,
        )

    def _scatter(
        self, txn: Transaction, calls: list[RpcCall], label: str
    ) -> RpcBatch:
        """Issue one fan-out round and absorb its side channels.

        Detector evidence is fed for every member (a timeout strike per
        lost exchange, down/ok for the final outcome), and every member
        whose call actually executed — including ones that then timed
        out on a lost reply — is enlisted in the transaction, so 2PC
        reaches each representative that may hold locks or undo state.
        A member that never executed (down target, every request lost)
        holds nothing and stays un-enlisted.
        """
        batch = self.rpc.scatter(calls, label=label)
        self._fanout_width.add(batch.width)
        detector = self._detector
        for reply in batch.replies:
            node_id = reply.call.node_id
            if detector is not None:
                for _ in range(reply.timeouts):
                    detector.record_timeout(node_id)
                if reply.ok:
                    detector.record_ok(node_id)
                elif isinstance(reply.error, NodeDownError):
                    detector.record_down(node_id)
            if reply.effect_applied:
                place = self.placements[reply.call.key]
                txn.enlist(reply.call.key, place.node_id, place.service_name)
        return batch

    def _gather_all(self, batch: RpcBatch) -> list[Any]:
        """Wait for the whole batch; return values in issue order.

        The first failure (in issue order, matching what the serial loop
        would have surfaced) is raised after the clock has advanced to
        the batch envelope.
        """
        for reply in batch.complete_all():
            if reply.error is not None:
                raise reply.error
        return [reply.value for reply in batch.replies]

    def _round(self, txn: Transaction, calls: list[tuple]) -> list[Any]:
        """Issue one quorum round; return its values in ``calls`` order.

        ``calls`` lists ``(rep, method, args[, payload_items])``, ``args``
        without the transaction id.  This is where ``fanout`` is decided
        for every round but the hedged read: serial walks the list one
        :meth:`_call` at a time and stops at the first failure; parallel
        and hedged send it as one scatter, wait for every member, and
        raise the first failure in issue order — the one the walk would
        have met.  An empty round sends nothing.
        """
        if not calls:
            return []
        if self.fanout == "serial":
            values = []
            for rep, method, args, *payload_items in calls:
                values.append(
                    self._call(
                        txn, rep, method, txn.txn_id, *args,
                        payload_items=payload_items[0] if payload_items else 1,
                    )
                )
            return values
        return self._gather_all(
            self._scatter(
                txn, [self._rep_call(txn, *call) for call in calls], calls[0][1]
            )
        )

    def _hedged_read(
        self, txn: Transaction, quorum: list[str], key: BoundedKey
    ) -> dict[str, LookupReply]:
        """A read round that returns on the first R-sufficient replies.

        The quorum and its :meth:`_hedge_extras` are scattered together;
        the clock stops at the earliest vote-sufficient prefix, the ticks
        not spent waiting for stragglers are credited to
        ``straggler_ticks_saved``, and the transaction's
        ``straggler_deadline`` is pushed out so commit/abort settles the
        outstanding exchanges (see :meth:`_await_stragglers`).
        """
        batch = self._scatter(
            txn,
            [
                self._rep_call(txn, rep, "rep_lookup", (key,))
                for rep in quorum + self._hedge_extras(quorum)
            ],
            "rep_lookup",
        )
        waited, sufficient = batch.complete_first(
            self.config.read_quorum,
            lambda reply: self.config.votes[reply.call.key],
        )
        if not sufficient:
            # The quorum alone carries R votes, so a member failed.
            raise next(r.error for r in batch.replies if r.error is not None)
        deadline = batch.lock_deadline
        now = self.clock.now()
        if deadline > now:
            self.straggler_ticks_saved += deadline - now
            txn.straggler_deadline = max(txn.straggler_deadline, deadline)
        return {reply.call.key: reply.value for reply in waited}

    def _hedge_extras(self, quorum: list[str]) -> list[str]:
        """Spare representatives a hedged read over-requests.

        Available, vote-carrying representatives outside the quorum, in
        placement order, capped at ``hedge_extra``.
        """
        chosen = set(quorum)
        extras = [
            name
            for name in self._eligible()
            if name not in chosen and self.config.votes[name] > 0
        ]
        return extras[: self.hedge_extra]

    def _await_stragglers(self, txn: Transaction) -> None:
        """Sit out a hedged read's outstanding exchanges.

        Called before commit *and* abort: representatives that executed
        a hedged read's call hold read locks until their replies (or
        timeouts) land, so the client cannot start resolving the
        transaction earlier than the last such instant.  Ticks waited
        here are paid back out of ``straggler_ticks_saved``, keeping the
        metric an honest net saving.  A no-op whenever other work
        already carried the clock past the deadline.
        """
        deadline = txn.straggler_deadline
        clock = self.clock
        if deadline <= clock.now():
            return
        wait = deadline - clock.now()
        tracer = self.tracer
        with tracer.span(
            "fanout:straggler-wait", width=0, waited=wait
        ) if tracer.enabled else NULL_SPAN:
            clock.advance_to(deadline)
        self.straggler_ticks_saved -= wait

    # ------------------------------------------------------------------
    # Figure 8: DirSuiteLookup
    # ------------------------------------------------------------------

    def _suite_lookup(self, txn: Transaction, key: BoundedKey) -> SuiteLookupReply:
        """Send DirRepLookup to a read quorum; keep the highest version.

        In parallel/hedged modes the quorum is scattered concurrently;
        a hedged read additionally over-requests spare representatives
        and settles on the first vote-sufficient replies (any highest-
        version verdict carried by >= R votes intersects every write
        quorum, so which sufficient subset answers first is immaterial).
        """
        quorum = self._collect_quorum("read")
        if self.fanout == "hedged":
            replies = self._hedged_read(txn, quorum, key)
        else:
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
        search = _NeighborSearch(self, txn, quorum, key, direction)
        while search.real is None:
            if self.fanout != "serial":
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
        """Fan out one batched-neighbor fetch per stream that needs one.

        Brings every stream's cache up to covering ``cursor`` before the
        walk consults it, so the per-step fetches that the serial walk
        issues one at a time land as a single scatter.  Repeats until no
        stream is dry (a refill can come back still short of the cursor
        when batched items were consumed unevenly).
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
        :func:`repro.core.batch._walk_and_coalesce`).  Returns the
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

    def authoritative_state(self) -> dict[Any, Any]:
        """The directory's true contents, resolved key by key.

        For every key appearing on any representative, run a full-votes
        read (all available representatives) and keep the highest-version
        verdict.  Test-only: it peeks at every replica directly.
        """
        transport = self.transport
        reps = [
            transport.local_service(place.node_id, place.service_name)
            for place in self.placements.values()
            if transport.is_up(place.node_id)
        ]
        state: dict[Any, Any] = {}
        for bkey in {entry.key for rep in reps for entry in rep.user_entries()}:
            best: LookupReply | None = None
            for rep in reps:
                reply = rep.store.lookup(bkey)
                if reply.beats(best):
                    best = reply
            if best is not None and best.present:
                state[bkey.payload] = best.value
        return state


class _NeighborSearch:
    """One Figure 12 search in progress.

    Holds a :class:`_NeighborStream` per read-quorum member, the cursor
    the walk has reached, and the largest gap version any member has
    reported on the way.  Who fills the streams and who looks the
    candidates up is the caller's business: :meth:`_real_neighbor` does
    both for one search, a wave does both for all of its searches at
    once (:mod:`repro.core.batch`).
    """

    def __init__(
        self,
        suite: DirectorySuite,
        txn: Transaction,
        quorum: list[str],
        key: BoundedKey,
        direction: str,
    ) -> None:
        self.direction = direction
        self.streams = {
            rep: _NeighborStream(suite, txn, rep, key, direction)
            for rep in quorum
        }
        self.cursor = key
        self.max_gap_version = suite.version_space.lowest
        #: The real neighbor, once a candidate has proved present.
        self.real: RealNeighbor | None = None

    def candidate(self) -> BoundedKey:
        """The nearest key beyond the cursor that any member stores."""
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

    Fetches ``neighbor_batch_size`` results per RPC and serves
    ``reply_for(k)`` — the representative's immediate neighbor of ``k`` —
    from the cache.  Gap versions come out exactly as an unbatched
    DirRepPredecessor/DirRepSuccessor would return them, because for any
    probe key k between two of this representative's entries the gap (and
    its version) is the same one the batch already crossed.
    """

    def __init__(
        self,
        suite: DirectorySuite,
        txn: Transaction,
        rep: str,
        start: BoundedKey,
        direction: str,
    ) -> None:
        self.suite = suite
        self.txn = txn
        self.rep = rep
        self.direction = direction
        self._items: list[NeighborReply] = []
        self._fetch_from = start
        self._exhausted = False
        self._pos = 0

    def _fetch(self) -> None:
        batch: list[NeighborReply] = self.suite._call(
            self.txn,
            self.rep,
            "rep_neighbors_batch",
            self.txn.txn_id,
            *self.fetch_args(),
            payload_items=self.suite.neighbor_batch_size,
        )
        self.absorb(batch)

    def fetch_args(self) -> tuple:
        """Wire arguments (after the txn id) for the next refill RPC.

        Raises if the stream is already past its sentinel — a refill
        can then never be needed.
        """
        if self._exhausted:
            raise ReproError(
                f"neighbor stream past the {self.direction} sentinel"
            )  # pragma: no cover - the sentinels always terminate the walk
        return (
            self._fetch_from,
            self.direction,
            self.suite.neighbor_batch_size,
        )

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

    def _scan(self, probe: BoundedKey) -> NeighborReply | None:
        """Cached immediate neighbor of ``probe``, or None if not cached.

        Advances the cursor past items on the wrong side of ``probe``
        (already-consumed positions) without consuming the match.
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
        """True if answering ``reply_for(probe)`` would trigger an RPC.

        Used by the parallel walk to refill every dry stream in one
        scatter before consulting any of them.
        """
        return self._scan(probe) is None

    def reply_for(self, probe: BoundedKey) -> NeighborReply:
        """This representative's immediate neighbor of ``probe``.

        ``probe`` must move monotonically (downward for "pred", upward
        for "succ"), which the suite's walk guarantees.
        """
        while True:
            item = self._scan(probe)
            if item is not None:
                return item
            self._fetch()


class _SuiteTransaction:
    """Context manager: begin, then commit on success / abort on error."""

    def __init__(self, suite: DirectorySuite) -> None:
        self.suite = suite
        self.txn: Transaction | None = None

    def __enter__(self) -> Transaction:
        self.txn = self.suite.txn_manager.begin()
        self.suite.last_txn_id = self.txn.txn_id
        return self.txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self.txn is not None
        # Hedged reads may have left exchanges in flight; their
        # representatives hold locks until those land, so settle them
        # before resolving the transaction either way.
        self.suite._await_stragglers(self.txn)
        if exc_type is None:
            self.suite.txn_manager.commit(self.txn)
            return False
        self.suite.op_counts.failed += 1
        try:
            self.suite.txn_manager.abort(self.txn)
        except NetworkError:  # pragma: no cover - abort is best-effort
            pass
        return False  # propagate the original error
