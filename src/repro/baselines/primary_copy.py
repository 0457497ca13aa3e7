"""Primary/secondary copy replication (section 2).

"In replication strategies based on keeping primary and secondary copies
of data, the primary copy receives all updates and then relays the updates
to secondary copies.  An inquiry may be sent to a secondary copy, but the
result may not reflect the most current updates.  Because responses to
inquiries might not reflect recent updates, it is difficult for a
primary/secondary copy replication strategy to duplicate the semantics of
a non-replicated object."

The implementation makes the staleness *observable*: the primary applies
each modification locally and enqueues it for asynchronous propagation;
:meth:`PrimaryCopyDirectory.propagate` ships queued updates to the
secondaries (a driver can call it every k operations to model replication
lag).  Reads served by a secondary can therefore miss recent updates, and
the test suite demonstrates exactly the anomaly the paper describes.
A ``read_primary_only`` mode restores strong semantics at the price of
read availability hanging off one node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.baselines.hosted import reachable
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NodeDownError,
    QuorumUnavailableError,
)
from repro.core.interface import DirectoryLifecycle
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint


@dataclass(frozen=True, slots=True)
class LogUpdate:
    """One replicated update, identified by its primary log sequence."""

    seq: int
    op: str  # "put" | "remove"
    key: Any
    value: Any = None


class PrimaryReplica:
    """The primary: applies updates and feeds the propagation log."""

    def __init__(self) -> None:
        self.data: dict[Any, Any] = {}
        self.log: list[LogUpdate] = []

    def get(self, key: Any) -> tuple[bool, Any]:
        if key in self.data:
            return True, self.data[key]
        return False, None

    def apply(self, op: str, key: Any, value: Any = None) -> LogUpdate:
        update = LogUpdate(len(self.log) + 1, op, key, value)
        self.log.append(update)
        if op == "put":
            self.data[key] = value
        else:
            self.data.pop(key, None)
        return update

    def updates_since(self, seq: int) -> list[LogUpdate]:
        return [u for u in self.log if u.seq > seq]

    def count(self) -> int:
        return len(self.data)


class SecondaryReplica:
    """A secondary: applies relayed updates in sequence order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.data: dict[Any, Any] = {}
        self.applied_seq = 0

    def get(self, key: Any) -> tuple[bool, Any]:
        if key in self.data:
            return True, self.data[key]
        return False, None

    def apply_updates(self, updates: list[LogUpdate]) -> int:
        for u in updates:
            if u.seq <= self.applied_seq:
                continue
            if u.seq != self.applied_seq + 1:
                raise ValueError(
                    f"secondary {self.name} saw gap: have {self.applied_seq}, "
                    f"got {u.seq}"
                )
            if u.op == "put":
                self.data[u.key] = u.value
            else:
                self.data.pop(u.key, None)
            self.applied_seq = u.seq
        return self.applied_seq


class PrimaryCopyDirectory(DirectoryLifecycle):
    """Directory with one primary and n−1 asynchronous secondaries."""

    def __init__(
        self,
        primary_node: str,
        secondary_nodes: dict[str, str],  # name -> node id
        network: Network,
        rpc: RpcEndpoint,
        rng: random.Random,
        read_primary_only: bool = False,
    ) -> None:
        self.primary_node = primary_node
        self.secondary_nodes = dict(secondary_nodes)
        self.network = network
        self.rpc = rpc
        self.rng = rng
        self.read_primary_only = read_primary_only
        self.stale_reads = 0  # reads observed to lag the primary (test aid)

    # -- helpers ------------------------------------------------------------

    def _primary(self, method: str, *args: Any) -> Any:
        return self.rpc.call(self.primary_node, "primary", method, *args)

    def _pick_read_replica(self) -> tuple[str, str]:
        """(node, service) to read from."""
        if self.read_primary_only:
            return self.primary_node, "primary"
        candidates = {"primary": (self.primary_node, "primary")}
        for name, node_id in self.secondary_nodes.items():
            candidates[name] = (node_id, f"secondary:{name}")
        up = reachable(self.rpc, candidates)
        if not up:
            raise QuorumUnavailableError(1, 0, kind="read replica")
        return candidates[self.rng.choice(up)]

    # -- operations -----------------------------------------------------------

    def lookup(self, key: Any) -> tuple[bool, Any]:
        """Read from a random replica; may be stale in async mode."""
        node, service = self._pick_read_replica()
        return self.rpc.call(node, service, "get", key)

    def insert(self, key: Any, value: Any) -> None:
        present, _ = self._primary("get", key)
        if present:
            raise KeyAlreadyPresentError(key)
        self._primary("apply", "put", key, value)

    def update(self, key: Any, value: Any) -> None:
        present, _ = self._primary("get", key)
        if not present:
            raise KeyNotPresentError(key)
        self._primary("apply", "put", key, value)

    def delete(self, key: Any) -> None:
        present, _ = self._primary("get", key)
        if not present:
            raise KeyNotPresentError(key)
        self._primary("apply", "remove", key)

    def size(self) -> int:
        """Entry count from the primary — the only authoritative copy."""
        return self._primary("count")

    def propagate(self) -> int:
        """Relay outstanding updates to every reachable secondary.

        Returns how many (secondary, update) deliveries were made.
        Unreachable secondaries simply fall further behind — the LOCUS-style
        synchronization problems the paper cites begin here.
        """
        delivered = 0
        for name, node_id in self.secondary_nodes.items():
            try:
                seq = self.rpc.call(node_id, f"secondary:{name}", "applied_seq_of")
            except NodeDownError:
                continue
            updates = self._primary("updates_since", seq)
            if not updates:
                continue
            self.rpc.call(
                node_id,
                f"secondary:{name}",
                "apply_updates",
                updates,
                payload_items=len(updates),
            )
            delivered += len(updates)
        return delivered


def build_primary_copy(
    n_secondaries: int = 2,
    seed: int | None = None,
    read_primary_only: bool = False,
) -> PrimaryCopyDirectory:
    """A primary-copy directory on a fresh simulated network."""
    network = Network()
    rpc = RpcEndpoint(network, origin="client")
    primary_node = network.add_node("node-primary")
    primary_node.host("primary", PrimaryReplica())
    secondaries: dict[str, str] = {}
    for i in range(n_secondaries):
        name = f"S{i + 1}"
        node = network.add_node(f"node-{name}")
        replica = SecondaryReplica(name)
        # Expose applied_seq as a method for the propagation protocol.
        replica.applied_seq_of = lambda r=replica: r.applied_seq  # type: ignore[attr-defined]
        node.host(f"secondary:{name}", replica)
        secondaries[name] = node.node_id
    return PrimaryCopyDirectory(
        "node-primary", secondaries, network, rpc, random.Random(seed),
        read_primary_only=read_primary_only,
    )
