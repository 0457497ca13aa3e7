"""Tombstone deletion with periodic garbage collection (section 2).

The paper's other alternative to gap versions: "Entries could be updated
to indicate that they are 'deleted', but the space occupied by 'deleted'
entries could not easily be reclaimed. ... deletions could be implemented
by marking entries to be deleted and then performing a 'garbage
collection' operation periodically.  However, that operation is complex
and would itself be a concurrency bottleneck."

This baseline makes both halves of that judgement measurable:

* **Correctness works.**  A delete *updates* the entry to a tombstone
  with an incremented version, so every key that ever existed keeps a
  version number on write-quorum members and lookups resolve exactly like
  ordinary weighted voting — no gap versions needed.
* **Space cannot be reclaimed incrementally.**  Tombstones accumulate
  (`live_overhead()` measures them); removing one requires knowing that
  *no replica anywhere* holds an older live copy that could win a future
  vote, which only a global operation can establish.
* **Garbage collection is a concurrency bottleneck.**  :meth:`collect`
  requires *every* replica up (it must erase each tombstone from all of
  them, not just a write quorum) and conceptually locks the whole
  directory for its duration — the cost profile the concurrency
  simulator's "whole" granularity models.
"""

from __future__ import annotations

import random
from typing import Any

from repro.baselines.hosted import HostedReplicas, host_replicas
from repro.core.config import SuiteConfig
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    QuorumUnavailableError,
)
from repro.core.versions import Version
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint

#: Sentinel marking a deleted entry.  A real system would use a flag bit;
#: a unique object keeps user values unrestricted.
TOMBSTONE = "__repro_tombstone__"


class TombstoneReplica:
    """A replica storing (version, value) per key; deletes store tombstones."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.data: dict[Any, tuple[Version, Any]] = {}

    def get(self, key: Any) -> tuple[bool, Version, Any]:
        """(stored?, version, value); tombstones are 'stored'."""
        if key in self.data:
            version, value = self.data[key]
            return True, version, value
        return False, 0, None

    def put(self, key: Any, version: Version, value: Any) -> None:
        self.data[key] = (version, value)

    def erase_up_to(self, key: Any, version: Version) -> bool:
        """Physically remove the entry iff its version is <= ``version``.

        GC erases every copy of a dead key — the tombstones *and* any
        lower-versioned live copies on replicas that missed the delete
        (leaving those would resurrect the key once the tombstones are
        gone).  The version guard makes GC safe against a concurrent
        re-insert that bumped the version past the collector's scan.
        """
        current = self.data.get(key)
        if current is not None and current[0] <= version:
            del self.data[key]
            return True
        return False

    def tombstones(self) -> list[tuple[Any, Version]]:
        """(key, version) of every tombstone held."""
        return [
            (key, version)
            for key, (version, value) in self.data.items()
            if value == TOMBSTONE
        ]

    def keys(self) -> list[Any]:
        """Every stored key — live entries and tombstones alike."""
        return list(self.data)


class TombstoneDirectory(HostedReplicas):
    """Weighted-voting directory whose deletes write tombstones."""

    def __init__(
        self,
        config: SuiteConfig,
        placements: dict[str, tuple[str, str]],
        network: Network,
        rpc: RpcEndpoint,
        rng: random.Random,
    ) -> None:
        self.config = config
        self.placements = dict(placements)
        self.network = network
        self.rpc = rpc
        self.rng = rng
        self.gc_runs = 0
        self.gc_erased = 0

    # -- plumbing ------------------------------------------------------------

    def _quorum_best(self, key: Any) -> tuple[Version, Any]:
        """Highest-versioned (version, value) in a read quorum.

        Version 0 means "no replica in the quorum ever stored the key".
        """
        quorum = self._quorum("read")
        best_version, best_value = 0, None
        for rep in quorum:
            _stored, version, value = self._rpc(rep, "get", key)
            if version > best_version:
                best_version, best_value = version, value
        return best_version, best_value

    # -- operations -----------------------------------------------------------

    def lookup(self, key: Any) -> tuple[bool, Any]:
        """Standard voting lookup; a winning tombstone means absent.

        Absence is decided by version (0 = no replica ever stored the
        key) or by the tombstone marker — never by the value itself,
        which is opaque and may legitimately be ``None``.
        """
        version, value = self._quorum_best(key)
        if version == 0 or value == TOMBSTONE:
            return False, None
        return True, value

    def _write(self, key: Any, version: Version, value: Any) -> None:
        quorum = self._quorum("write")
        for rep in quorum:
            self._rpc(rep, "put", key, version, value)

    def insert(self, key: Any, value: Any) -> None:
        version, current = self._quorum_best(key)
        if version > 0 and current != TOMBSTONE:
            raise KeyAlreadyPresentError(key)
        self._write(key, version + 1, value)

    def update(self, key: Any, value: Any) -> None:
        version, current = self._quorum_best(key)
        if version == 0 or current == TOMBSTONE:
            raise KeyNotPresentError(key)
        self._write(key, version + 1, value)

    def delete(self, key: Any) -> None:
        """Mark deleted: an update whose new value is the tombstone."""
        version, current = self._quorum_best(key)
        if version == 0 or current == TOMBSTONE:
            raise KeyNotPresentError(key)
        self._write(key, version + 1, TOMBSTONE)

    def size(self) -> int:
        """Count live entries: union the keys a read quorum stores, then
        vote on each.  Sound because every live key sits on a full write
        quorum, which intersects the read quorum; tombstoned keys appear
        as candidates but lose their vote in :meth:`lookup`.
        """
        quorum = self._quorum("read")
        candidates: set[Any] = set()
        for rep in quorum:
            candidates.update(self._rpc(rep, "keys"))
        return sum(1 for key in sorted(candidates) if self.lookup(key)[0])

    # -- space accounting and garbage collection -----------------------------------

    def live_overhead(self) -> dict[str, int]:
        """Tombstones currently occupying space, per replica (peeks
        directly at replica state; measurement aid)."""
        out = {}
        for name, (node_id, service) in self.placements.items():
            node = self.network.node(node_id)
            if not node.is_up:
                continue
            replica: TombstoneReplica = node.service(service)  # type: ignore[assignment]
            out[name] = len(replica.tombstones())
        return out

    def collect(self) -> int:
        """Global garbage collection; returns tombstones erased.

        Requires every replica reachable — erasing a tombstone from only
        a write quorum would leave lower-versioned *live* copies able to
        win votes again (the resurrection bug), so GC must erase from
        all x replicas or none.  This is the "complex ... concurrency
        bottleneck" operation the paper declines to build its algorithm
        on: while it runs, no modification may be concurrent (in this
        serial simulation that is implicit; the lock-granularity
        simulator prices the whole-directory lock it would need).
        """
        available = self._reachable()
        if len(available) < len(self.placements):
            raise QuorumUnavailableError(
                len(self.placements), len(available), kind="garbage collection"
            )
        self.gc_runs += 1
        erased = 0
        # Union of tombstones across all replicas, at their max version.
        candidates: dict[Any, Version] = {}
        for rep in self.placements:
            for key, version in self._rpc(rep, "tombstones"):
                candidates[key] = max(version, candidates.get(key, 0))
        for key, version in candidates.items():
            # Confirm the tombstone is globally newest for the key.
            newest = 0
            for rep in self.placements:
                _s, v, _val = self._rpc(rep, "get", key)
                newest = max(newest, v)
            if newest != version:
                continue  # re-inserted meanwhile; not garbage
            for rep in self.placements:
                if self._rpc(rep, "erase_up_to", key, version):
                    erased += 1
        self.gc_erased += erased
        return erased


def build_tombstone(
    spec: str = "3-2-2", seed: int | None = None
) -> tuple[TombstoneDirectory, dict[str, TombstoneReplica]]:
    """A tombstone-GC directory on a fresh simulated network."""
    config = SuiteConfig.from_xyz(spec)
    rpc, placements, reps = host_replicas(config.names, "tomb", TombstoneReplica)
    directory = TombstoneDirectory(
        config, placements, rpc.network, rpc, random.Random(seed)
    )
    return directory, reps
