"""One-call construction of a replicated-directory cluster.

:class:`DirectoryCluster` wires together everything a directory suite
needs — a transport (simulated network, or direct calls on a wall clock), one
node per representative, representative services with stores /
write-ahead logs / lock tables, a transaction manager, and the suite
front-end — so examples and benchmarks can say::

    cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=7))
    cluster.suite.insert("a", 1)
    present, value = cluster.suite.lookup("a")

and tests can reach inside (``cluster.representative("A")``,
``cluster.crash("A")``) to script failure scenarios.

:class:`ClusterSpec` is the one construction path: every option,
including which transport the cluster runs on (``transport="sim"`` /
``"asyncio"`` / a :class:`~repro.net.transport.Transport` instance),
lives on the spec.  A spec can also point at an *existing*
:class:`Network`, which is how the sharded directory (:mod:`repro.shard`)
places many independent replica suites on one simulated substrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.core.config import SuiteConfig
from repro.core.errors import ConfigurationError
from repro.core.interface import register_directory
from repro.core.quorum import QuorumPolicy
from repro.core.representative import DirectoryRepresentative
from repro.core.resilient import ResilientSuite
from repro.core.suite import DirectorySuite, Placement
from repro.core.versions import UNBOUNDED, VersionSpace
from repro.net.network import LatencyModel, Network
from repro.net.transport import Transport, resolve_transport
from repro.obs.spans import NULL_TRACER
from repro.storage.btree import BTreeStore
from repro.storage.interface import RepresentativeStore
from repro.storage.skiplist import SkipListStore
from repro.storage.snapshot import CheckpointPolicy
from repro.storage.sorted_store import SortedStore
from repro.txn.manager import TransactionManager

#: Store factories selectable by name.
STORE_FACTORIES: dict[str, Callable[[], RepresentativeStore]] = {
    "sorted": SortedStore,
    "btree": BTreeStore,
    "skiplist": SkipListStore,
}


@dataclass
class ClusterSpec:
    """Everything :meth:`DirectoryCluster.create` needs to build a cluster.

    One value object instead of fifteen keyword arguments, so specs can
    be stored, diffed, and stamped out per shard with
    :func:`dataclasses.replace`.  See docs/API.md for the full option
    table.
    """

    #: The paper's ``"x-y-z"`` shorthand or a full :class:`SuiteConfig`
    #: (weighted votes / zero-vote hint replicas).
    config: str | SuiteConfig = "3-2-2"
    #: Backing store per replica: ``"sorted"``, ``"btree"``, ``"skiplist"``.
    store: str = "sorted"
    #: Figure 7 range locks; disable only for single-threaded simulations.
    locking: bool = True
    #: Quorum-selection randomness (set it for reproducible runs).
    seed: int | None = None
    #: Quorum selection strategy; default uniform random (the paper's).
    quorum_policy: QuorumPolicy | None = None
    #: Message latency model; only valid when building a fresh network.
    latency: LatencyModel | None = None
    #: Version-number space; a bounded space raises on exhaustion.
    version_space: VersionSpace = UNBOUNDED
    #: §4's batching: neighbor probes per RPC during delete searches.
    neighbor_batch_size: int = 1
    #: Lookups push current entries to stale quorum members.
    read_repair: bool = False
    #: WAL checkpointing policy (``EveryNCommits`` / ``LogSizeBound``).
    checkpoint_policy: CheckpointPolicy | None = None
    #: Representative name → node id; defaults to one node per
    #: representative named ``node-<rep>``.
    node_for_rep: Callable[[str], str] | None = None
    #: A RecordingTracer to capture span trees; no-op tracer by default.
    tracer: Any = None
    #: Registry to publish metrics into.  With a fresh network this
    #: becomes the network-wide registry; with a shared ``network`` it
    #: overrides where *this cluster's* suite and replicas publish (the
    #: sharded directory passes a ``shard<i>``-scoped view here).
    metrics: Any = None
    #: RPC issue mode: ``"serial"`` | ``"parallel"`` | ``"hedged"``.
    fanout: str = "serial"
    #: Spare representatives a hedged read over-requests.
    hedge_extra: int = 1
    #: Build onto an existing simulated network (shared clock, shared
    #: traffic stats) instead of creating one.  Node ids must not
    #: collide with nodes already on it — use ``node_for_rep``.
    network: Network | None = None
    #: Substrate the cluster runs on: ``None``/``"sim"`` (simulated
    #: network + simulated clock), ``"asyncio"`` (representatives
    #: co-located in this process and called directly, wall clock), or a
    #: :class:`~repro.net.transport.Transport` instance (shared
    #: substrates, e.g. one transport hosting every shard).
    transport: "str | Transport | None" = None

    def __post_init__(self) -> None:
        if self.network is not None and self.latency is not None:
            raise ConfigurationError(
                "latency is fixed by the existing network; "
                "set it where the network is created"
            )
        simulated = self.transport is None or self.transport == "sim"
        if not simulated and (
            self.network is not None or self.latency is not None
        ):
            raise ConfigurationError(
                "network/latency are simulation-only options; "
                f"transport={self.transport!r} owns its own substrate"
            )

    def suite_config(self) -> SuiteConfig:
        """The resolved :class:`SuiteConfig`."""
        if isinstance(self.config, str):
            return SuiteConfig.from_xyz(self.config)
        return self.config

    def for_shard(
        self, index: int, transport: "Transport | Network", metrics: Any
    ) -> "ClusterSpec":
        """This spec restamped for shard ``index`` on a shared substrate.

        Node names get an ``s<index>:`` prefix (one transport hosts
        every shard's nodes, and node ids must be unique), the quorum
        RNG seed is offset per shard so shards draw independent streams,
        and the latency/network fields are cleared (the shared transport
        already owns the substrate).  A bare :class:`Network` is
        accepted and wrapped in a
        :class:`~repro.net.transport.SimTransport`.
        """
        if isinstance(transport, Network):
            from repro.net.transport import SimTransport

            transport = SimTransport(transport)
        base_node = self.node_for_rep or (lambda rep: f"node-{rep}")
        policy = self.quorum_policy
        if policy is not None:
            if isinstance(policy, QuorumPolicy):
                raise ConfigurationError(
                    "a QuorumPolicy instance is stateful and cannot be "
                    "shared across shards; pass a factory (e.g. the "
                    "policy class) instead"
                )
            policy = policy()
        return replace(
            self,
            seed=None if self.seed is None else self.seed + index,
            quorum_policy=policy,
            latency=None,
            node_for_rep=lambda rep: f"s{index}:{base_node(rep)}",
            metrics=metrics,
            network=None,
            transport=transport,
        )


class DirectoryCluster:
    """A fully wired suite plus the substrate it runs on."""

    def __init__(
        self,
        config: SuiteConfig,
        transport: "Transport | Network",
        suite: DirectorySuite,
        representatives: dict[str, DirectoryRepresentative],
        tracer: Any = None,
        metrics: Any = None,
    ) -> None:
        self.config = config
        if isinstance(transport, Network):
            transport = suite.transport
        self.transport = transport
        self.suite = suite
        self.representatives = representatives
        self.tracer = tracer if tracer is not None else suite.tracer
        self._metrics = metrics

    @property
    def network(self) -> Network:
        """The simulated network, when this cluster runs on one.

        Raises ``AttributeError`` on a non-simulated transport: fault
        injection, traffic stats, and clock travel are simulation-only.
        """
        return self.suite.network

    @property
    def metrics(self) -> Any:
        """Where this cluster publishes (``metrics.snapshot()``).

        Normally the transport-wide :class:`MetricsRegistry`; for a
        shard built on a shared substrate it is that shard's scoped
        view.
        """
        if self._metrics is not None:
            return self._metrics
        return self.transport.metrics

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls, spec: "str | SuiteConfig | ClusterSpec" = "3-2-2"
    ) -> "DirectoryCluster":
        """Build a cluster from a :class:`ClusterSpec`.

        ``spec`` is the spec itself, or the paper's ``"x-y-z"``
        shorthand / a bare :class:`SuiteConfig` (sugar for a spec with
        only ``config`` set)::

            DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=7))
            DirectoryCluster.create("3-2-2")
        """
        if not isinstance(spec, ClusterSpec):
            spec = ClusterSpec(config=spec)
        config = spec.suite_config()
        try:
            store_factory = STORE_FACTORIES[spec.store]
        except KeyError:
            raise ValueError(
                f"unknown store {spec.store!r}; "
                f"choose from {sorted(STORE_FACTORIES)}"
            ) from None

        tracer = spec.tracer if spec.tracer is not None else NULL_TRACER
        transport = resolve_transport(
            spec.transport,
            network=spec.network,
            latency=spec.latency,
            metrics=spec.metrics,
        )
        metrics = (
            spec.metrics if spec.metrics is not None else transport.metrics
        )
        tracer.bind_clock(transport.clock.now)
        rpc = transport.endpoint(origin="client", tracer=tracer)
        txn_manager = TransactionManager(rpc, clock_now=transport.clock.now)

        placements: dict[str, Placement] = {}
        representatives: dict[str, DirectoryRepresentative] = {}
        node_name = spec.node_for_rep or (lambda rep: f"node-{rep}")
        for rep_name in config.names:
            node_id = node_name(rep_name)
            transport.ensure_node(node_id)
            rep = DirectoryRepresentative(
                rep_name,
                store_factory=store_factory,
                locking=spec.locking,
                checkpoint_policy=spec.checkpoint_policy,
                decision_outcomes=txn_manager.decision_log.committed_ids,
                tracer=tracer,
                metrics=metrics,
            )
            service_name = f"dir:{rep_name}"
            transport.host(node_id, service_name, rep)
            placements[rep_name] = Placement(node_id, service_name)
            representatives[rep_name] = rep

        suite = DirectorySuite(
            config,
            placements,
            transport,
            rpc,
            txn_manager,
            quorum_policy=spec.quorum_policy,
            rng=random.Random(spec.seed),
            version_space=spec.version_space,
            neighbor_batch_size=spec.neighbor_batch_size,
            read_repair=spec.read_repair,
            tracer=tracer,
            metrics=metrics,
            fanout=spec.fanout,
            hedge_extra=spec.hedge_extra,
        )
        return cls(
            config,
            transport,
            suite,
            representatives,
            tracer=tracer,
            metrics=spec.metrics,
        )

    # -- conveniences ----------------------------------------------------------

    def representative(self, name: str) -> DirectoryRepresentative:
        """Representative service by suite name."""
        return self.representatives[name]

    def crash(self, rep_name: str) -> None:
        """Crash the node hosting a representative."""
        self.transport.crash(self.suite.placements[rep_name].node_id)

    def recover(self, rep_name: str) -> None:
        """Recover the node hosting a representative."""
        self.transport.recover(self.suite.placements[rep_name].node_id)

    # -- lifecycle (the Directory contract) -----------------------------------

    def close(self) -> None:
        """Release the cluster's substrate (idempotent).

        A no-op for the simulated transport; for the asyncio transport
        it stops the event loop and its thread.
        """
        self.transport.close()

    def __enter__(self) -> "DirectoryCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def check_invariants(self) -> None:
        """Structural invariants of every representative's store."""
        for rep in self.representatives.values():
            rep.store.check_invariants()

    def make_auditor(self) -> Any:
        """An :class:`~repro.obs.audit.InvariantAuditor` over this cluster.

        The driver calls this instead of naming the auditor class so
        sharded clusters can return their per-shard merging auditor.
        """
        from repro.obs.audit import InvariantAuditor

        return InvariantAuditor(self)


# -- conformance registration (see repro.core.interface) -----------------------

register_directory(
    "suite",
    lambda: DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=0)).suite,
)
register_directory(
    "resilient",
    lambda: ResilientSuite(
        DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=0)).suite,
        rng=random.Random(0),
    ),
)
