"""Static key-space partitioning (section 2's middle ground).

"This paper will consider partitioning the key space into a set of
disjoint ranges by imposing an ordering relation on the keys.  The
simplest approach is to use a static partitioning; however, the additional
concurrency that is achieved might be less than expected.  If a small
number of ranges were used, then at most that number of transactions could
modify a directory concurrently. ... Even if a large number of ranges were
used, an uneven distribution of accesses could limit concurrency."

Each of the K fixed partitions is a miniature Gifford file: a content map
plus one version number per replica per partition.  Correctness requires
every modification to rewrite its *entire* partition on the write quorum
(partial writes would let a replica claim partition-level authority over
keys it holds stale), so message payload grows with partition occupancy —
K interpolates between directory-as-file (K = 1) and, in the limit of one
key per partition, something like the paper's algorithm but with a fixed,
workload-oblivious layout.  The concurrency simulator's "static"
granularity measures the matching lock behaviour.
"""

from __future__ import annotations

import random
from typing import Any

from repro.baselines.hosted import HostedReplicas, host_replicas
from repro.core.config import SuiteConfig
from repro.core.errors import KeyAlreadyPresentError, KeyNotPresentError
from repro.core.versions import Version
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint


class PartitionedReplica:
    """One replica: K partition copies, each (version, contents)."""

    def __init__(self, name: str, n_partitions: int) -> None:
        self.name = name
        self.partitions: list[tuple[Version, dict[Any, Any]]] = [
            (0, {}) for _ in range(n_partitions)
        ]

    def read_partition(self, index: int) -> tuple[Version, dict[Any, Any]]:
        version, contents = self.partitions[index]
        return version, dict(contents)

    def read_version(self, index: int) -> Version:
        return self.partitions[index][0]

    def write_partition(
        self, index: int, version: Version, contents: dict[Any, Any]
    ) -> None:
        self.partitions[index] = (version, dict(contents))


class StaticPartitionedDirectory(HostedReplicas):
    """Directory replicated as K statically partitioned mini-files.

    Keys must be floats in [0, 1) (the partition function is
    ``int(key * K)``); the simulation workloads produce exactly that.
    """

    def __init__(
        self,
        config: SuiteConfig,
        n_partitions: int,
        placements: dict[str, tuple[str, str]],
        network: Network,
        rpc: RpcEndpoint,
        rng: random.Random,
    ) -> None:
        if n_partitions < 1:
            raise ValueError(f"need at least one partition: {n_partitions}")
        self.config = config
        self.n_partitions = n_partitions
        self.placements = dict(placements)
        self.network = network
        self.rpc = rpc
        self.rng = rng

    # -- plumbing ------------------------------------------------------------

    def partition_of(self, key: float) -> int:
        """Which fixed range a key belongs to."""
        if not 0.0 <= key < 1.0:
            raise ValueError(f"keys must lie in [0, 1): {key}")
        return min(int(key * self.n_partitions), self.n_partitions - 1)

    def _read_current_partition(self, index: int) -> tuple[Version, dict[Any, Any]]:
        """Authoritative (version, contents) of one partition."""
        quorum = self._quorum("read")
        best_version = -1
        best: dict[Any, Any] = {}
        for rep in quorum:
            version, contents = self._rpc(rep, "read_partition", index)
            if version > best_version:
                best_version, best = version, contents
        return best_version, best

    def _write_partition(self, index: int, contents: dict[Any, Any]) -> None:
        """Rewrite a whole partition on a write quorum, version + 1."""
        quorum = self._quorum("write")
        version = max(
            self._rpc(rep, "read_version", index) for rep in quorum
        ) + 1
        for rep in quorum:
            self._rpc(
                rep,
                "write_partition",
                index,
                version,
                contents,
                payload_items=max(1, len(contents)),
            )

    # -- operations -----------------------------------------------------------

    def lookup(self, key: float) -> tuple[bool, Any]:
        """Read the key's partition from a read quorum."""
        _version, contents = self._read_current_partition(self.partition_of(key))
        return (True, contents[key]) if key in contents else (False, None)

    def insert(self, key: float, value: Any) -> None:
        index = self.partition_of(key)
        _version, contents = self._read_current_partition(index)
        if key in contents:
            raise KeyAlreadyPresentError(key)
        contents[key] = value
        self._write_partition(index, contents)

    def update(self, key: float, value: Any) -> None:
        index = self.partition_of(key)
        _version, contents = self._read_current_partition(index)
        if key not in contents:
            raise KeyNotPresentError(key)
        contents[key] = value
        self._write_partition(index, contents)

    def delete(self, key: float) -> None:
        """Delete by rewriting the partition — sound (the bumped partition
        version outranks every stale copy) but coarse: the "not present"
        verdict costs partition-level serialization."""
        index = self.partition_of(key)
        _version, contents = self._read_current_partition(index)
        if key not in contents:
            raise KeyNotPresentError(key)
        del contents[key]
        self._write_partition(index, contents)

    def size(self) -> int:
        """Total entries over all partitions (authoritative)."""
        return sum(
            len(self._read_current_partition(i)[1])
            for i in range(self.n_partitions)
        )


def build_static_partitioned(
    spec: str = "3-2-2",
    n_partitions: int = 8,
    seed: int | None = None,
) -> StaticPartitionedDirectory:
    """A statically partitioned directory on a fresh simulated network."""
    config = SuiteConfig.from_xyz(spec)
    rpc, placements, _replicas = host_replicas(
        config.names, "part", lambda name: PartitionedReplica(name, n_partitions)
    )
    return StaticPartitionedDirectory(
        config, n_partitions, placements, rpc.network, rpc, random.Random(seed)
    )
