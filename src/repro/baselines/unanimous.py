"""The unanimous update strategy (section 2).

"In the unanimous update strategy, any update operation must be done on
all replicas, but reads may be directed to any replica. ... Unfortunately,
the availability for updates of any object is poor when large numbers of
replicas are used."

Every replica is a plain ordered map; no version numbers are needed
because every replica always holds exactly the current contents.  The
cost: a modification requires *every* replica to be up, and the
measurable benefit for this reproduction is the comparison point of
section 4 — our algorithm's delete statistics "reflect the extra work done
by DirSuiteDelete in addition to the work that would be done by the
deletion operation of a unanimous update strategy having the number of
replicas in a write quorum."
"""

from __future__ import annotations

import random
from typing import Any

from repro.baselines.hosted import HostedReplicas, host_replicas
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    QuorumUnavailableError,
)
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint


class PlainReplica:
    """A replica of the unanimous-update directory: just a dict.

    Durability mirrors the WAL discipline of the main system in miniature:
    an operation list survives crashes and is replayed on recovery.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.data: dict[Any, Any] = {}
        self._durable_ops: list[tuple[str, Any, Any]] = []

    def get(self, key: Any) -> tuple[bool, Any]:
        if key in self.data:
            return True, self.data[key]
        return False, None

    def put(self, key: Any, value: Any) -> None:
        self._durable_ops.append(("put", key, value))
        self.data[key] = value

    def remove(self, key: Any) -> None:
        self._durable_ops.append(("remove", key, None))
        self.data.pop(key, None)

    def count(self) -> int:
        return len(self.data)

    def on_crash(self) -> None:
        self.data = {}

    def on_recover(self) -> None:
        data: dict[Any, Any] = {}
        for op, key, value in self._durable_ops:
            if op == "put":
                data[key] = value
            else:
                data.pop(key, None)
        self.data = data


class UnanimousDirectory(HostedReplicas):
    """Write-all / read-one replicated directory."""

    def __init__(
        self,
        placements: dict[str, tuple[str, str]],
        network: Network,
        rpc: RpcEndpoint,
        rng: random.Random,
    ) -> None:
        self.placements = placements
        self.network = network
        self.rpc = rpc
        self.rng = rng
        self.writes_performed = 0  # per-replica write count, for E11

    # -- replica selection ------------------------------------------------------

    def _any_replica(self) -> str:
        available = self._reachable()
        if not available:
            raise QuorumUnavailableError(1, 0, kind="read replica")
        return self.rng.choice(available)

    def _all_replicas(self) -> list[str]:
        available = self._reachable()
        if len(available) < len(self.placements):
            raise QuorumUnavailableError(
                len(self.placements), len(available), kind="unanimous write"
            )
        return list(self.placements)

    # -- operations -----------------------------------------------------------

    def lookup(self, key: Any) -> tuple[bool, Any]:
        """Read from any single replica (they are all identical)."""
        return self._rpc(self._any_replica(), "get", key)

    def insert(self, key: Any, value: Any) -> None:
        """Write the new entry to every replica."""
        present, _ = self.lookup(key)
        if present:
            raise KeyAlreadyPresentError(key)
        for rep in self._all_replicas():
            self._rpc(rep, "put", key, value)
            self.writes_performed += 1

    def update(self, key: Any, value: Any) -> None:
        """Overwrite the entry on every replica."""
        present, _ = self.lookup(key)
        if not present:
            raise KeyNotPresentError(key)
        for rep in self._all_replicas():
            self._rpc(rep, "put", key, value)
            self.writes_performed += 1

    def size(self) -> int:
        """Entry count from any single replica (they are all identical)."""
        return self._rpc(self._any_replica(), "count")

    def delete(self, key: Any) -> None:
        """Remove the entry from every replica — exactly n deletions.

        The comparison point for the paper's "deletions while coalescing":
        unanimous update with W replicas performs W deletions per delete
        and nothing else; the voting directory performs W deletions plus
        the (small) measured ghost/copy overhead.
        """
        present, _ = self.lookup(key)
        if not present:
            raise KeyNotPresentError(key)
        for rep in self._all_replicas():
            self._rpc(rep, "remove", key)
            self.writes_performed += 1


def build_unanimous(
    n_replicas: int = 3, seed: int | None = None
) -> UnanimousDirectory:
    """A unanimous-update directory on a fresh simulated network."""
    names = [chr(ord("A") + i) for i in range(n_replicas)]
    rpc, placements, _replicas = host_replicas(names, "plain", PlainReplica)
    return UnanimousDirectory(
        placements, rpc.network, rpc, random.Random(seed)
    )
