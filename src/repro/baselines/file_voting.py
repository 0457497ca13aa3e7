"""Gifford's weighted voting for files [Gifford 79].

The algorithm the paper builds on: each *file representative* holds one
copy of the file's contents plus a single version number.  Writes install
new contents with a version one greater than the highest in a write
quorum; reads return the contents of the highest-versioned representative
in a read quorum.  R + W > total votes guarantees every read sees the
latest write.

This implementation exists for two reasons:

* it is the substrate of the *directory-as-file* baseline
  (:mod:`repro.baselines.directory_as_file`), whose single version number
  per replica is exactly the concurrency bottleneck section 2 identifies;
* tests validate the quorum-intersection reasoning on the simplest
  possible object before trusting it on directories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.baselines.hosted import HostedReplicas, host_replicas
from repro.core.config import SuiteConfig
from repro.core.versions import LOWEST_VERSION, Version
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint


class FileRepresentative:
    """One replica of a voting file: contents plus a version number.

    Crash-aware: the (version, contents) pairs ever written are kept in a
    durable log list; a crash wipes the volatile pair and recovery
    restores the highest committed pair.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.version: Version = LOWEST_VERSION
        self.contents: Any = None
        self._durable_log: list[tuple[Version, Any]] = []

    # -- service methods ------------------------------------------------------

    def read(self) -> tuple[Version, Any]:
        """Return (version, contents)."""
        return self.version, self.contents

    def read_version(self) -> Version:
        """Return just the version number (the write-quorum poll)."""
        return self.version

    def write(self, version: Version, contents: Any) -> None:
        """Install new contents; logs before applying (redo rule)."""
        self._durable_log.append((version, contents))
        self.version = version
        self.contents = contents

    # -- crash protocol -----------------------------------------------------------

    def on_crash(self) -> None:
        self.version = LOWEST_VERSION
        self.contents = None

    def on_recover(self) -> None:
        if self._durable_log:
            self.version, self.contents = self._durable_log[-1]


@dataclass
class FileSuite(HostedReplicas):
    """A replicated file accessed through weighted voting."""

    config: SuiteConfig
    placements: dict[str, tuple[str, str]]  # rep -> (node, service)
    network: Network
    rpc: RpcEndpoint
    rng: random.Random

    # -- operations -----------------------------------------------------------

    def read(self) -> Any:
        """Current file contents (highest version in a read quorum)."""
        quorum = self._quorum("read")
        best_version = -1
        best: Any = None
        for rep in quorum:
            version, contents = self._rpc(rep, "read")
            if version > best_version:
                best_version, best = version, contents
        return best

    def current_version(self) -> Version:
        """Highest version among a read quorum."""
        quorum = self._quorum("read")
        return max(self._rpc(rep, "read_version") for rep in quorum)

    def write(self, contents: Any, payload_items: int = 1) -> Version:
        """Install new contents on a write quorum; returns the new version.

        Per Gifford, the new version is one greater than the highest
        version among the write quorum (write quorums mutually intersect,
        so that maximum is the current version).  ``payload_items`` lets
        callers account for the logical size of what was shipped — the
        directory-as-file baseline ships whole directories.
        """
        quorum = self._quorum("write")
        version = max(self._rpc(rep, "read_version") for rep in quorum) + 1
        for rep in quorum:
            self._rpc(
                rep, "write", version, contents, payload_items=payload_items
            )
        return version


def build_file_suite(
    spec: str = "3-2-2", seed: int | None = None
) -> tuple[FileSuite, dict[str, FileRepresentative]]:
    """Wire a file suite onto a fresh simulated network."""
    config = SuiteConfig.from_xyz(spec)
    rpc, placements, reps = host_replicas(
        config.names, "file", FileRepresentative
    )
    suite = FileSuite(config, placements, rpc.network, rpc, random.Random(seed))
    return suite, reps
