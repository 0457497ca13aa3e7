"""A sharded directory: N independent replica suites behind one front-end.

The paper's algorithm replicates one directory.  :class:`ShardedDirectory`
scales it *out*: the key space is split by a :class:`~repro.shard.maps.ShardMap`
across N shards, each shard a complete, independent
:class:`~repro.cluster.DirectoryCluster` (its own representatives, quorums,
write-ahead logs, and transaction manager), and every operation is routed
to the one shard owning its key.  Because shards share no state, they never
coordinate — cross-shard parallelism is free by construction.

Honest accounting is the point of the design:

* every shard's nodes live on ONE shared :class:`~repro.net.network.Network`
  (one clock, one traffic ledger — served or simulated), so message
  counts and latencies add up exactly as they would unsharded;
* sequential routing charges every operation its full cost on the shared
  clock — a single-shard ``ShardedDirectory`` is bit-identical (messages,
  rounds, ticks, final state) to an unsharded
  :class:`~repro.core.suite.DirectorySuite`;
* :meth:`ShardedDirectory.execute_wave` models an open pool of clients
  issuing one *wave* of independent operations concurrently: each shard's
  share of the wave is one grouped ``execute_batch`` transaction — the
  algorithm the service front door runs per shard — started at the
  wave's start instant, and the clock settles at the slowest shard's
  finish — max-not-sum, the same rule the scatter-gather engine uses
  for parallel quorum rounds.

``ShardedDirectory`` implements the :class:`~repro.core.interface.Directory`
protocol and additionally quacks like both a ``DirectoryCluster`` (merged
``representatives``, shared ``network``, ``make_auditor``) and a
``DirectorySuite`` (``txn_manager``, ``op_counts``, ``attach_detector``),
so the simulation driver, the retrying front-end, and the auditors run
unchanged on top of it.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import BATCH_KINDS, BatchOp, BatchOutcome
from repro.core.errors import ConfigurationError, StaleEpochError
from repro.core.interface import register_directory
from repro.net.network import Network
from repro.shard.maps import ShardMap, resolve_shard_map


class _ShardedTxnManager:
    """The slice of the per-shard transaction managers the driver and the
    retrying front-end consume, merged.

    Shards have independent managers whose transaction ids collide
    (both start at 1), so merged views key pending completions by
    ``(shard, txn_id)`` and ``decision_log`` binds to the *last-routed*
    shard — the one whose transaction a retrying front-end is probing
    via ``last_txn_id``.
    """

    def __init__(self, sharded: "ShardedDirectory") -> None:
        self._sharded = sharded

    def resolve_pending(self) -> int:
        return sum(
            cluster.suite.txn_manager.resolve_pending()
            for cluster in self._sharded.clusters
        )

    @property
    def pending_completions(self) -> dict[Any, Any]:
        merged: dict[Any, Any] = {}
        for index, cluster in enumerate(self._sharded.clusters):
            for txn_id, entry in (
                cluster.suite.txn_manager.pending_completions.items()
            ):
                merged[(index, txn_id)] = entry
        return merged

    @property
    def decision_log(self) -> Any:
        shard = self._sharded.last_routed_shard
        return self._sharded.clusters[shard].suite.txn_manager.decision_log


class ShardedDirectory:
    """N independent replica suites routed by a shard map.

    Build one with :meth:`create`: the constructor takes what it wires,
    one cluster per shard the map routes to, every one on ``network``.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        clusters: Sequence[DirectoryCluster],
        network: Network,
        metrics: Any,
        base_spec: ClusterSpec,
    ) -> None:
        self.shard_map = shard_map
        self.clusters = list(clusters)
        #: The network every shard shares: fault injection, partitions
        #: and traffic stats reach through here, on either clock.
        self.network = network
        #: The ROOT registry: shard metrics appear under ``shard<i>.``,
        #: cross-shard metrics (``shard.routed``, retry counters)
        #: unprefixed.
        self.metrics = metrics
        # The per-shard recipe: a live split stamps out its brand-new
        # shard suite on the same substrate (add_shard).
        self._base_spec = base_spec
        #: Operations routed to each shard (by shard index).
        self.routed = [0] * len(self.clusters)
        #: Shard that served the most recent operation; ``txn_manager``'s
        #: decision-log facade and ``last_txn_id`` follow it.
        self.last_routed_shard = 0
        self.txn_manager = _ShardedTxnManager(self)
        # One aggregate op-count / delete-overhead ledger shared by every
        # shard suite, so ``suite.op_counts.total`` means the whole
        # directory (the driver also *assigns* fresh collectors through
        # the properties below, which re-share them).
        first = self.clusters[0].suite
        for cluster in self.clusters[1:]:
            cluster.suite.op_counts = first.op_counts
            cluster.suite.delete_stats = first.delete_stats
        #: Every epoch's map, keyed by epoch; routing reads ``shard_map``,
        #: redirects (:meth:`require_epoch`) consult the history.
        self.map_history: dict[int, ShardMap] = {shard_map.epoch: shard_map}
        #: The in-flight migration, when a reshard is running.
        self.resharder: Any = None
        #: Completed migrations (``ReshardRecord``), oldest first.
        self.reshard_log: list[Any] = []
        self._detector: Any = None
        self._closed = False
        self.metrics.provider(
            "shard.routed",
            lambda: {f"s{i}": n for i, n in enumerate(self.routed)},
        )
        self.metrics.gauge("shard.count", lambda: len(self.clusters))
        self.metrics.gauge("shard.epoch", lambda: self.shard_map.epoch)
        self._migrations = self.metrics.counter("reshard.migrations")
        self._moved_keys = self.metrics.counter("reshard.moved_keys")

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        spec: "str | Any | ClusterSpec" = "3-2-2",
        shards: int | None = None,
        shard_map: "str | ShardMap" = "range",
    ) -> "ShardedDirectory":
        """Build ``shards`` identical clusters on one shared network.

        ``spec`` describes each shard exactly as
        :meth:`DirectoryCluster.create` takes it — a :class:`ClusterSpec`
        or the ``"x-y-z"`` shorthand.  The spec is restamped per shard
        (:meth:`ClusterSpec.for_shard`): node ids gain an ``s<i>:``
        prefix, the quorum seed is offset per shard, and metrics land in
        a ``shard<i>``-scoped view of the shared registry.

        ``shard_map`` is ``"range"`` (uniform float split of ``[0, 1)``),
        ``"hash"``, or a :class:`ShardMap`; ``shards`` defaults to the
        map's count, else 4.
        """
        base = spec if isinstance(spec, ClusterSpec) else ClusterSpec(spec)
        resolved_map = resolve_shard_map(shard_map, shards)
        base.suite_config()  # refused before a network (or its thread) exists
        network = base.resolve_network()
        root_metrics = (
            base.metrics if base.metrics is not None else network.metrics
        )
        clusters = [
            DirectoryCluster.create(
                base.for_shard(i, network, root_metrics.scoped(f"shard{i}"))
            )
            for i in range(resolved_map.shards)
        ]
        return cls(resolved_map, clusters, network, root_metrics, base)

    # -- substrate ----------------------------------------------------------

    @property
    def clock(self) -> Any:
        """The shared network's clock (simulated ticks or wall seconds)."""
        return self.network.clock

    #: :attr:`network` under its old name.  No caller under ``src/``: it
    #: stays only because ``benchmarks/perf/counted.py`` and
    #: ``benchmarks/perf/layers.py`` read it.
    transport = property(lambda self: self.network)

    def close(self) -> None:
        """Release the shared network (see the Directory lifecycle).

        Idempotent, including mid-reshard: an in-flight migration that
        has not cut over yet is aborted first (the old epoch stays
        authoritative); one already past cutover finishes its DRAIN, so
        no half-installed routing state survives the close either way.
        """
        if self._closed:
            return
        self._closed = True
        if self.resharder is not None and not self.resharder.done:
            if self.resharder.phase == "drain":
                # Past cutover the new epoch is already installed; only
                # the source-side cleanup remains, so finish it.
                self.resharder.run()
            else:
                self.resharder.abort()
        self.network.close()

    def __enter__(self) -> "ShardedDirectory":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- routing ------------------------------------------------------------

    @property
    def shards(self) -> int:
        return len(self.clusters)

    def shard(self, index: int) -> DirectoryCluster:
        """The full per-shard cluster (for crash/recover scripting)."""
        return self.clusters[index]

    def shard_for(self, key: Any) -> int:
        """Owning shard index for ``key`` (no routing counter bump)."""
        return self.shard_map.shard_of(key)

    def note_routed(self, index: int, n: int = 1) -> None:
        """Record ``n`` operations routed to shard ``index``.

        Every router calls it: :meth:`_route` per op, :meth:`execute_wave`
        per shard group, and the asyncio front door — which routes with
        :meth:`shard_for` and its own per-shard waves — as each wave runs
        (from its one serving thread, the only writer), so
        ``shard.routed`` stays live in service mode too.
        """
        self.routed[index] += n
        self.last_routed_shard = index

    def _route(self, key: Any) -> Any:
        index = self.shard_for(key)
        self.note_routed(index)
        return self.clusters[index].suite

    # -- the Directory surface ----------------------------------------------

    def lookup(self, key: Any) -> tuple[bool, Any]:
        return self._route(key).lookup(key)

    def insert(self, key: Any, value: Any) -> None:
        return self._route(key).insert(key, value)

    def update(self, key: Any, value: Any) -> None:
        return self._route(key).update(key, value)

    def delete(self, key: Any) -> None:
        return self._route(key).delete(key)

    def size(self) -> int:
        return sum(cluster.suite.size() for cluster in self.clusters)

    # -- resharding ----------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current shard-map epoch (0 until the first reshard)."""
        return self.shard_map.epoch

    def install_map(self, new_map: ShardMap) -> None:
        """Flip routing to the successor epoch (the Resharder's CUTOVER)."""
        if new_map.epoch != self.shard_map.epoch + 1:
            raise ConfigurationError(
                f"cannot install epoch {new_map.epoch} over "
                f"{self.shard_map.epoch}; epochs advance by exactly one"
            )
        if new_map.shards > len(self.clusters):
            raise ConfigurationError(
                f"map epoch {new_map.epoch} routes {new_map.shards} shards "
                f"but only {len(self.clusters)} exist"
            )
        self.shard_map = new_map
        self.map_history[new_map.epoch] = new_map

    def require_epoch(self, key: Any, epoch: int) -> None:
        """Validate a client-cached epoch for one keyed operation.

        A stale epoch is fine as long as it still routes ``key`` to the
        same shard the current map does — most keys never move.  When
        the routings differ (or the epoch is unknown), raises
        :class:`StaleEpochError` carrying the *current* epoch; the
        service front door turns that into a ``-MOVED`` redirect.
        """
        current = self.shard_map.epoch
        if epoch == current:
            return
        claimed = self.map_history.get(epoch)
        if claimed is None or (
            claimed.shard_of(key) != self.shard_map.shard_of(key)
        ):
            raise StaleEpochError(current, key=key)

    def begin_split(self, boundary: Any) -> Any:
        """Start migrating ``[boundary, old_high)`` out of the shard that
        owns ``boundary`` onto a brand-new, empty shard, added here.
        Returns the :class:`~repro.shard.reshard.Resharder`; pump its
        ``step()`` with client traffic interleaved."""
        from repro.shard.reshard import Resharder

        if self.resharder is not None and not self.resharder.done:
            raise ConfigurationError(
                "a reshard is already in flight; finish or abort it first"
            )
        new_map = self.shard_map.split(boundary)
        self.add_shard()
        self.resharder = Resharder(self, new_map)
        return self.resharder

    def reshard_status(self) -> dict[str, Any]:
        """Epoch and migration state for ``RESHARD STATUS`` / ``repro top``."""
        status: dict[str, Any] = {
            "epoch": self.epoch,
            "active": False,
            "migrations": len(self.reshard_log),
        }
        if self.resharder is not None and not self.resharder.done:
            status["active"] = True
            status.update(self.resharder.status())
        return status

    def add_shard(self) -> DirectoryCluster:
        """Grow the directory by one empty shard suite on the shared
        substrate (a split's target).  The new shard receives no traffic
        until a successor map routing to it is installed."""
        index = len(self.clusters)
        cluster = DirectoryCluster.create(
            self._base_spec.for_shard(
                index, self.network, self.metrics.scoped(f"shard{index}")
            )
        )
        first = self.clusters[0].suite
        cluster.suite.op_counts = first.op_counts
        cluster.suite.delete_stats = first.delete_stats
        cluster.suite.rpc_retries = first.rpc_retries
        if self._detector is not None:
            cluster.suite.attach_detector(self._detector)
        self.clusters.append(cluster)
        self.routed.append(0)
        return cluster

    def remove_shard(self) -> None:
        """Take back the shard :meth:`add_shard` added last, and its
        nodes: an aborted split's target, which no map ever routed to.
        So the next split's target is new and empty too.  Its metrics
        stay registered under its ``shard<i>`` scope, which the next
        shard at that index takes over."""
        cluster = self.clusters.pop()
        self.routed.pop()
        for placement in cluster.suite.placements.values():
            self.network.remove_node(placement.node_id)

    def note_migrated(self, record: Any) -> None:
        """Metrics bump for one completed migration (Resharder calls it)."""
        self._migrations.inc()
        self._moved_keys.inc(record.moved)

    # -- wave execution ------------------------------------------------------

    def execute_wave(self, ops: Iterable[Any]) -> list[BatchOutcome]:
        """Run one wave of independent client operations concurrently.

        ``ops`` are :class:`~repro.core.batch.BatchOp` items or
        ``(kind, key[, value])`` tuples of any kind in
        :data:`~repro.core.batch.BATCH_KINDS`, each from a different
        client; every kind is checked before any shard runs, so a bad
        one raises ``ValueError`` with no effect.  Operations group by
        owning shard, and each shard's group is one grouped
        ``execute_batch`` transaction — what the service front door
        runs for a shard's wave — started at the wave's start instant.
        The wave finishes at the *slowest* group's finish: the
        max-not-sum rule the scatter-gather engine applies to parallel
        quorum rounds, here applied across shards.  Rewinding the clock
        to the start needs ``clock.travel``, so this runs on the
        simulated clock only (``WallClock`` has no ``travel``).

        That clock models shards running in parallel.  ``repro serve``
        has one serving thread, whose shards take turns (docs/SERVICE.md,
        "Concurrency"), so ``BENCH_shard.json``'s speedups do not predict it.

        Returns one :class:`~repro.core.batch.BatchOutcome` per op, in
        input order; per-op failures are captured there, not raised:
        concurrent clients don't abort each other.
        """
        op_list = [
            op if isinstance(op, BatchOp) else BatchOp(*op) for op in ops
        ]
        for op in op_list:
            if op.kind not in BATCH_KINDS:
                raise ValueError(f"unknown wave operation kind {op.kind!r}")
        groups: dict[int, list[int]] = {}
        for slot, op in enumerate(op_list):
            groups.setdefault(self.shard_for(op.key), []).append(slot)

        results: list[BatchOutcome] = [None] * len(op_list)  # type: ignore[list-item]
        clock = self.network.clock
        start = finish = clock.now()
        for index in sorted(groups):
            slots = groups[index]
            clock.travel(start)
            self.note_routed(index, len(slots))
            outcomes = self.clusters[index].suite.execute_batch(
                [op_list[slot] for slot in slots]
            )
            for slot, outcome in zip(slots, outcomes):
                results[slot] = outcome
            finish = max(finish, clock.now())
        clock.travel(finish)
        return results

    # -- cluster-shaped surface (driver / auditor substrate) -----------------

    @property
    def suite(self) -> "ShardedDirectory":
        """The sharded directory is its own suite front-end."""
        return self

    @property
    def config(self) -> Any:
        return self.clusters[0].config

    @property
    def tracer(self) -> Any:
        return self.clusters[0].tracer

    @property
    def rpc(self) -> Any:
        return self.clusters[0].suite.rpc

    @property
    def representatives(self) -> dict[str, Any]:
        """Every shard's representatives, keyed ``s<i>/<name>``."""
        return {
            f"s{index}/{name}": rep
            for index, cluster in enumerate(self.clusters)
            for name, rep in cluster.representatives.items()
        }

    def representative(self, name: str) -> Any:
        """Representative by ``s<i>/<name>`` key (see :attr:`representatives`)."""
        return self.representatives[name]

    def authoritative_state(self) -> dict[Any, Any]:
        merged: dict[Any, Any] = {}
        for cluster in self.clusters:
            merged.update(cluster.suite.authoritative_state())
        return merged

    def check_invariants(self) -> None:
        for cluster in self.clusters:
            cluster.check_invariants()

    def make_auditor(self) -> "ShardAuditor":
        from repro.shard.audit import ShardAuditor

        return ShardAuditor(self)

    # -- suite-shaped surface (driver wiring) --------------------------------

    @property
    def last_txn_id(self) -> Any:
        return self.clusters[self.last_routed_shard].suite.last_txn_id

    def attach_detector(self, detector: Any) -> None:
        """Share one failure detector across every shard.

        Safe because node ids are disjoint (``s<i>:`` prefixes): each
        shard feeds and screens only its own nodes' evidence.  The
        detector is remembered so shards added by a live split join it.
        """
        self._detector = detector
        for cluster in self.clusters:
            cluster.suite.attach_detector(detector)

    @property
    def rpc_retries(self) -> int:
        return self.clusters[0].suite.rpc_retries

    @rpc_retries.setter
    def rpc_retries(self, value: int) -> None:
        for cluster in self.clusters:
            cluster.suite.rpc_retries = value

    @property
    def op_counts(self) -> Any:
        return self.clusters[0].suite.op_counts

    @op_counts.setter
    def op_counts(self, value: Any) -> None:
        for cluster in self.clusters:
            cluster.suite.op_counts = value

    @property
    def delete_stats(self) -> Any:
        return self.clusters[0].suite.delete_stats

    @delete_stats.setter
    def delete_stats(self, value: Any) -> None:
        for cluster in self.clusters:
            cluster.suite.delete_stats = value

    def __repr__(self) -> str:
        return (
            f"ShardedDirectory({self.shard_map.describe()}, "
            f"{len(self.clusters)} shards)"
        )


# -- conformance registration (see repro.core.interface) -----------------------

register_directory(
    "sharded-range",
    lambda: ShardedDirectory.create(
        ClusterSpec(config="3-2-2", seed=0), shards=3, shard_map="range"
    ),
)
register_directory(
    "sharded-hash",
    lambda: ShardedDirectory.create(
        ClusterSpec(config="3-2-2", seed=0), shards=3, shard_map="hash"
    ),
)
