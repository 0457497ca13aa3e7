"""What the replicated baselines share: replicas on simulated nodes.

Every baseline hosts its replicas one per node of a fresh simulated
:class:`~repro.net.network.Network` and calls them through one client
:class:`~repro.net.rpc.RpcEndpoint`.  :func:`host_replicas` builds that
substrate, :func:`reachable` is the one availability filter, and
:class:`HostedReplicas` is the mixin a directory reaches its replicas
through: one RPC to a named replica, and — for the voting baselines — a
quorum drawn exactly as the suite draws one, by
:class:`~repro.core.quorum.RandomQuorumPolicy` (shuffle the reachable
replicas, then fill greedily by votes).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.interface import DirectoryLifecycle
from repro.core.quorum import RandomQuorumPolicy
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint


def reachable(
    rpc: RpcEndpoint, placements: dict[str, tuple[str, str]]
) -> list[str]:
    """Names in ``placements`` (name → (node, service)) whose node is up
    and reachable from ``rpc``'s origin, in placement order."""
    network = rpc.network
    return [
        name
        for name, (node_id, _service) in placements.items()
        if network.node(node_id).is_up
        and network.reachable(rpc.origin, node_id)
    ]


def host_replicas(
    names: Iterable[str], prefix: str, make: Callable[[str], Any]
) -> tuple[RpcEndpoint, dict[str, tuple[str, str]], dict[str, Any]]:
    """A fresh network hosting ``make(name)`` for each name.

    Replica ``name`` lives on node ``node-<name>`` as service
    ``<prefix>:<name>``.  Returns the client endpoint (its ``network`` is
    the new network), the placements and the replicas by name.
    """
    network = Network()
    placements: dict[str, tuple[str, str]] = {}
    replicas: dict[str, Any] = {}
    for name in names:
        node_id, service = f"node-{name}", f"{prefix}:{name}"
        replicas[name] = make(name)
        network.add_node(node_id).host(service, replicas[name])
        placements[name] = (node_id, service)
    return RpcEndpoint(network, origin="client"), placements, replicas


class HostedReplicas(DirectoryLifecycle):
    """Mixin over ``placements`` (name → (node, service)) and ``rpc``;
    :meth:`_quorum` also reads ``config`` and ``rng``."""

    def _reachable(self) -> list[str]:
        return reachable(self.rpc, self.placements)

    def _quorum(self, kind: str) -> list[str]:
        """A ``"read"`` or ``"write"`` quorum of reachable replicas;
        :class:`~repro.core.errors.QuorumUnavailableError` if their
        votes fall short."""
        return RandomQuorumPolicy().select(
            kind, self._reachable(), self.config, self.rng
        )

    def _rpc(self, rep: str, method: str, *args: Any, **kwargs: Any) -> Any:
        node_id, service = self.placements[rep]
        return self.rpc.call(node_id, service, method, *args, **kwargs)
