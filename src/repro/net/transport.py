"""The transport seam: where the algorithm meets a substrate.

The paper's quorum algorithm is transport-agnostic — it needs to *issue
remote calls*, *scatter batches of them*, *read a clock*, and *observe
node liveness*, and nothing else.  Historically every layer of this
repository reached straight into the simulated :class:`~repro.net.network.Network`
for those four things, which welded the algorithm to simulated time.
This module names the seam:

* :class:`Transport` — the runtime-checkable protocol.  A transport owns
  a clock, a node/service registry, and hands out per-origin *endpoints*
  (objects with the :class:`~repro.net.rpc.RpcEndpoint` calling surface:
  ``call`` / ``try_call`` / ``scatter`` and the ``attempt`` attribute).
  Its fault surface is the existing error hierarchy — a crashed or
  unreachable target raises :class:`~repro.core.errors.NodeDownError`, a
  crashed origin :class:`~repro.core.errors.OriginDownError`, a lost or
  late exchange (on a substrate that can lose one)
  :class:`~repro.core.errors.RpcTimeoutError` — so suite, 2PC, and retry
  code is transport-blind by construction.

* :class:`SimTransport` — the simulated substrate, wrapping a
  :class:`~repro.net.network.Network`.  Every method is pure delegation
  onto the network the repository has always used, which is what keeps
  the simulated path **bit-identical** to the pre-transport code (pinned
  by ``tests/integration/test_transport_pinning.py``).

* ``AsyncioTransport`` (in :mod:`repro.service.aio`) — the wall-clock
  substrate for nodes co-located in one process: an endpoint call is a
  direct call on the hosted service, on the calling thread, timed by the
  wall clock; its event loop carries the client-facing front door only.

Construction selects a transport on :class:`~repro.cluster.ClusterSpec`
(the ``transport`` field); everything downstream — the suite's quorum
rounds, two-phase commit, the failure detector, the resilient front-end —
works over either substrate unchanged.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

from repro.core.errors import ConfigurationError
from repro.net.network import LatencyModel, Network
from repro.net.rpc import RpcEndpoint
from repro.obs.metrics import MetricsRegistry


@runtime_checkable
class Clock(Protocol):
    """The slice of a time source the algorithm consumes.

    The simulated clock is manually advanced by the network layer; the
    wall clock advances by itself (its ``advance``/``advance_to`` are
    no-ops — you cannot push real time around).
    """

    def now(self) -> float: ...

    def advance(self, delta: float) -> float: ...

    def advance_to(self, when: float) -> float: ...


@runtime_checkable
class Transport(Protocol):
    """What a cluster substrate must provide.

    Implementations: :class:`SimTransport` (simulated network, simulated
    clock) and :class:`~repro.service.aio.AsyncioTransport` (direct
    in-process calls, wall clock).  ``isinstance(obj, Transport)``
    verifies the surface exists; semantics — the error mapping above,
    endpoint behavior — are enforced by the transport-conformance tests.
    """

    @property
    def clock(self) -> Clock: ...

    @property
    def metrics(self) -> MetricsRegistry: ...

    def endpoint(self, origin: str = "client", tracer: Any = None) -> Any:
        """A calling stub bound to ``origin`` (the RpcEndpoint surface)."""
        ...

    def ensure_node(self, node_id: str) -> None:
        """Create the node if it does not exist yet (idempotent)."""
        ...

    def host(self, node_id: str, service_name: str, service: Any) -> None:
        """Register ``service`` under ``service_name`` on a node."""
        ...

    def local_service(self, node_id: str, service_name: str) -> Any:
        """In-process handle to a hosted service (test/audit peeking)."""
        ...

    def is_up(self, node_id: str) -> bool:
        """True while the node is running."""
        ...

    def reachable(self, src: str, dst: str) -> bool:
        """True if a message from ``src`` can currently reach ``dst``."""
        ...

    def crash(self, node_id: str) -> None:
        """Power-fail a node (volatile service state is lost)."""
        ...

    def recover(self, node_id: str) -> None:
        """Restart a crashed node (services rebuild from durable state)."""
        ...

    def close(self) -> None:
        """Release substrate resources (idempotent)."""
        ...


class SimTransport:
    """The simulated substrate: a thin, exact veneer over ``Network``.

    Everything delegates to the wrapped network — same clock, same
    traffic ledger, same fault model, same node registry — so a cluster
    built through a ``SimTransport`` behaves bit-for-bit like one built
    on the bare network.  The wrapped network stays public
    (:attr:`network`) because simulation-only tooling — fault injection,
    traffic accounting, partitions, wave execution — legitimately wants
    the full simulated surface rather than the algorithm-facing slice.
    """

    def __init__(
        self,
        network: Network | None = None,
        *,
        latency: LatencyModel | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if network is not None and latency is not None:
            raise ValueError(
                "latency is fixed by the existing network; "
                "set it where the network is created"
            )
        self.network = (
            network
            if network is not None
            else Network(latency=latency, metrics=metrics)
        )

    # -- substrate surface ---------------------------------------------------

    @property
    def clock(self) -> Any:
        return self.network.clock

    @property
    def metrics(self) -> MetricsRegistry:
        return self.network.metrics

    def endpoint(self, origin: str = "client", tracer: Any = None) -> RpcEndpoint:
        return RpcEndpoint(self.network, origin=origin, tracer=tracer)

    def ensure_node(self, node_id: str) -> None:
        if node_id not in self.network._nodes:
            self.network.add_node(node_id)

    def host(self, node_id: str, service_name: str, service: Any) -> None:
        self.network.node(node_id).host(service_name, service)

    def local_service(self, node_id: str, service_name: str) -> Any:
        return self.network.node(node_id).service(service_name)

    def is_up(self, node_id: str) -> bool:
        return self.network.node(node_id).is_up

    def reachable(self, src: str, dst: str) -> bool:
        return self.network.reachable(src, dst)

    def crash(self, node_id: str) -> None:
        self.network.node(node_id).crash()

    def recover(self, node_id: str) -> None:
        self.network.node(node_id).recover()

    def close(self) -> None:
        """Nothing to release: the simulated substrate holds no OS state."""

    def __repr__(self) -> str:
        return f"SimTransport({len(self.network.nodes())} nodes)"


def resolve_transport(
    transport: "str | Transport | None",
    *,
    network: Network | None = None,
    latency: LatencyModel | None = None,
    metrics: MetricsRegistry | None = None,
) -> Transport:
    """Resolve a :class:`~repro.cluster.ClusterSpec`-style transport field.

    ``None`` or ``"sim"`` builds a :class:`SimTransport` (wrapping
    ``network`` when given, else a fresh simulated network); ``"asyncio"``
    builds an :class:`~repro.service.aio.AsyncioTransport`; a
    :class:`Transport` instance passes through unchanged (``network`` /
    ``latency`` must then be unset — the instance already owns its
    substrate).
    """
    if transport is None or transport == "sim":
        if network is not None:
            return SimTransport(network)
        return SimTransport(latency=latency, metrics=metrics)
    if transport == "asyncio":
        if network is not None or latency is not None:
            raise ConfigurationError(
                "network/latency are simulation-only options; the asyncio "
                "transport calls its nodes directly, on a wall clock"
            )
        from repro.service.aio import AsyncioTransport

        return AsyncioTransport(metrics=metrics)
    if isinstance(transport, Transport):
        if network is not None or latency is not None:
            raise ConfigurationError(
                "a Transport instance already owns its substrate; "
                "pass network/latency where the transport is created"
            )
        return transport
    raise ConfigurationError(
        f"unknown transport {transport!r}; expected 'sim', 'asyncio', "
        "or a Transport instance"
    )
