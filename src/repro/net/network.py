"""Simulated network connecting nodes: latency, partitions, traffic stats.

The network is deliberately simple — synchronous request/reply with a
pluggable latency model, optional network partitions, optional message
loss (see :meth:`Network.install_faults`), and full traffic accounting —
because the replication algorithm's behaviour depends only on *which*
nodes are reachable and *how many* messages are exchanged, not on
wire-level detail.

A :class:`Network` is the one substrate a directory runs on: it hands
out the calling endpoints, hosts the representatives, and is where they
are crashed, partitioned and counted.  :meth:`Network.service_for` is
the only code that maps (origin, node, service) to a hosted service —
it makes the up check and the reachability check a call needs — and
:meth:`Network.census` answers the same two questions for a whole
quorum's candidates in one call.  The scatter bumps :attr:`stats` in
place for a delivered exchange; a lost one is accounted by
:meth:`Network.send_lost`.  Served replicas run on a subclass
with a wall clock, free links and an event loop to serve from
(:class:`~repro.service.aio.AsyncioTransport`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.errors import NodeDownError
from repro.net.clock import Clock, SimClock
from repro.net.message import TrafficStats
from repro.net.node import Node
from repro.net.rpc import RpcEndpoint
from repro.obs.metrics import MetricsRegistry

#: Latency models map (src, dst) node ids to one-way latency in ticks.
LatencyModel = Callable[[str, str], float]


def uniform_latency(latency: float = 1.0) -> LatencyModel:
    """Every link has the same one-way latency."""

    def model(src: str, dst: str) -> float:
        return 0.0 if src == dst else latency

    return model


def site_latency(
    sites: dict[str, str], local: float = 0.5, remote: float = 10.0
) -> LatencyModel:
    """Two-tier latency: cheap within a site, expensive across sites.

    This is the cost structure behind the paper's Figure 16 locality
    discussion — reads served by co-located representatives avoid the
    expensive cross-site hop.
    """

    def model(src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        if sites.get(src) == sites.get(dst):
            return local
        return remote

    return model


class Network:
    """A set of nodes plus connectivity state and traffic accounting."""

    def __init__(
        self,
        clock: Clock | None = None,
        latency: LatencyModel | None = None,
        metrics: MetricsRegistry | None = None,
        rpc_timeout: float = 20.0,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.latency = latency if latency is not None else uniform_latency()
        #: How long a caller waits (in ticks) before declaring a lost
        #: message timed out.  Only consulted when a fault model is
        #: installed; a timeout is deliberately much more expensive than
        #: a round trip, as in any sanely configured RPC stack.
        self.rpc_timeout = rpc_timeout
        #: Message-level fault model (see :mod:`repro.net.failures`);
        #: ``None`` means a perfect network — the RPC hot path pays one
        #: attribute check for the feature.
        self.faults = None
        self.stats = TrafficStats()
        # The cluster-wide registry.  `self.stats` stays the source of
        # truth for traffic (and the public attribute benchmarks read);
        # the registry reads it lazily, so the hot path pays nothing.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.provider("net.traffic", self.stats.snapshot)
        self.metrics.gauge("net.clock", self.clock.now)
        self._nodes: dict[str, Node] = {}
        # Partition groups: nodes can only reach nodes in their own group.
        # None means fully connected.
        self._partition: dict[str, int] | None = None
        self._partition_default = 0

    # -- topology ------------------------------------------------------------

    def add_node(self, node_id: str) -> Node:
        """Create and register a node."""
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        node = Node(node_id)
        self._nodes[node_id] = node
        return node

    def add_nodes(self, node_ids: Iterable[str]) -> list[Node]:
        """Create several nodes at once."""
        return [self.add_node(n) for n in node_ids]

    def node(self, node_id: str) -> Node:
        """Look up a node by id."""
        return self._nodes[node_id]

    def nodes(self) -> list[Node]:
        """All nodes in creation order."""
        return list(self._nodes.values())

    def remove_node(self, node_id: str) -> None:
        """Forget a node and every service it hosts."""
        del self._nodes[node_id]

    def ensure_node(self, node_id: str) -> None:
        """Create the node if it does not exist yet (idempotent)."""
        if node_id not in self._nodes:
            self.add_node(node_id)

    def host(self, node_id: str, service_name: str, service: object) -> None:
        """Register ``service`` under ``service_name`` on a node."""
        self._nodes[node_id].host(service_name, service)

    def local_service(self, node_id: str, service_name: str) -> object:
        """In-process handle to a hosted service (audit and test peeking)."""
        return self._nodes[node_id].service(service_name)

    def is_up(self, node_id: str) -> bool:
        """True while the node is running."""
        return self._nodes[node_id].is_up

    def crash(self, node_id: str) -> None:
        """Power-fail a node (volatile service state is lost)."""
        self._nodes[node_id].crash()

    def recover(self, node_id: str) -> None:
        """Restart a crashed node (services rebuild from durable state)."""
        self._nodes[node_id].recover()

    def endpoint(self, origin: str = "client", tracer: Any = None) -> RpcEndpoint:
        """A calling stub bound to ``origin``; every RPC goes through one."""
        return RpcEndpoint(self, origin=origin, tracer=tracer)

    def close(self) -> None:
        """Nothing to release: a simulated network holds no OS state."""

    # -- partitions ------------------------------------------------------------

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network into isolated groups of endpoints.

        Groups may name registered nodes *or* external endpoints (e.g.
        the ``"client"`` origin of an RpcEndpoint), so tests can cut a
        client off from part of the cluster.  Nodes not named in any
        group land in an implicit final group together, as do unnamed
        external endpoints.  Call :meth:`heal` to reconnect everyone.
        """
        assignment: dict[str, int] = {}
        for gi, group in enumerate(groups):
            for endpoint in group:
                assignment[endpoint] = gi
        rest = [n for n in self._nodes if n not in assignment]
        for node_id in rest:
            assignment[node_id] = len(groups)
        self._partition = assignment
        self._partition_default = len(groups)

    def _group_of(self, endpoint: str) -> int:
        """Partition group of an endpoint; unnamed externals join the
        implicit last group."""
        assert self._partition is not None
        return self._partition.get(endpoint, self._partition_default)

    def heal(self) -> None:
        """Remove any partition; the network is fully connected again."""
        self._partition = None

    def reachable(self, src: str, dst: str) -> bool:
        """True if a message from ``src`` can currently reach ``dst``."""
        if src == dst:
            return True
        if self._partition is None:
            return True
        return self._group_of(src) == self._group_of(dst)

    # -- delivery ------------------------------------------------------------

    def service_for(self, src: str, dst: str, service_name: str) -> object:
        """The service a call from ``src`` reaches on ``dst``.

        The one place a call resolves its target: every scatter member
        makes this lookup before it sends.  Raises NodeDownError unless
        ``dst`` is up and reachable from ``src`` (a fully connected
        network skips the :meth:`reachable` call), and KeyError if
        ``dst`` hosts no such service.  It reads the node's registry
        directly — the checks :meth:`Node.service` makes, without its
        frame.
        """
        node = self._nodes[dst]
        if not node._up or (
            self._partition is not None and not self.reachable(src, dst)
        ):
            raise NodeDownError(dst)
        try:
            return node._services[service_name]
        except KeyError:
            raise KeyError(
                f"no service {service_name!r} on node {dst}"
            ) from None

    def census(self, src: str, members: dict[str, str]) -> list[str]:
        """Names in ``members`` (name → node id) that ``src`` can call now.

        A member counts when its node is up and :meth:`reachable` from
        ``src``; the order is ``members``' own.  One call answers for a
        whole quorum's candidates.
        """
        nodes = self._nodes
        partition = self._partition
        if partition is None:
            return [name for name, dst in members.items() if nodes[dst]._up]
        rest = self._partition_default
        home = partition.get(src, rest)
        return [
            name
            for name, dst in members.items()
            if nodes[dst]._up and partition.get(dst, rest) == home
        ]

    # -- message loss ----------------------------------------------------------

    def install_faults(self, faults) -> None:
        """Attach a message-level fault model (``None`` to remove it).

        The model must provide ``disposition(src, dst, method)`` returning
        ``"ok"``/``"drop_request"``/``"drop_reply"`` and
        ``delay(src, dst)`` returning extra round latency in ticks; see
        :class:`~repro.net.failures.LossyLinks` and
        :class:`~repro.net.failures.ScriptedLoss`.
        """
        self.faults = faults
        self._lost_counters = {
            "request": self.metrics.counter("net.loss.requests_dropped"),
            "reply": self.metrics.counter("net.loss.replies_dropped"),
        }

    def send_lost(self, src: str, dst: str, method: str, phase: str) -> float:
        """Account a lost exchange *without* advancing the clock.

        Returns the timeout offset at which the caller would learn the
        loss.  A lost *request* put one message on the wire; a lost
        *reply* put two (the request was delivered and executed).  A lost
        member only charges its round the timeout when the gather waits
        on it — which a serial caller's round of one always does.
        """
        self.stats.record_lost_round(phase)
        self._lost_counters[phase].inc()
        return self.rpc_timeout
