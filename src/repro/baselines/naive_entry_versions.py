"""The section 2 strawman: per-entry version numbers, no gap versions.

"It might seem that these concurrency limitations could be overcome if
each entry in a directory representative were assigned a separate version
number.  However, with such an approach, representatives might not have a
version number for an entry that is stored on other representatives.
Because of this, it may not be possible to examine an arbitrary read
quorum and determine whether an entry for a particular key exists."

This baseline implements that broken scheme faithfully so the failure is
demonstrable (the Figures 1–3 scenario is an integration test) and so the
cost of the patch — "consulting an additional representative whenever one
representative replies 'present with version x' and another replies 'not
present'" — is measurable.  Lookup supports three resolution modes:

* ``"version"`` — trust the present-with-a-version reply (absences carry
  no version to compare against).  This is the natural-but-wrong reading
  of weighted voting and returns stale data after deletes: the paper's
  Figure 3 scenario answers "b is present" after b was deleted.
* ``"error"`` — raise :class:`AmbiguousLookupError` whenever a read quorum
  mixes present and absent replies.  Honest, but unusable: every entry not
  yet fully replicated triggers it.
* ``"consult"`` — consult additional representatives until presence can be
  decided by counting: with x representatives and write quorum W, a
  *current* entry is absent from at most x − W replicas and a *deleted*
  entry survives (as a stale copy) on at most x − W, so more than x − W
  "absent" replies prove absence and more than x − W "present" replies
  prove presence.  Deciding can require up to x reachable replicas — the
  reduced availability the paper predicts, which
  :func:`repro.sim.availability.analyze` quantifies.

Even the consultation patch only repairs *presence*.  Version assignment
remains broken: when a deleted key is re-inserted, the inserter's read
quorum may report no version at all (absent replies carry nothing), so
the new incarnation can receive a version number *lower* than a stale
copy surviving on an unwritten replica — and the stale value then wins
lookups.  ``benchmarks/bench_ambiguity.py`` measures this.  Only a
version number associated with every possible key (the paper's gap
versions) closes that hole, which is precisely the paper's thesis.
"""

from __future__ import annotations

import random
from typing import Any

from repro.baselines.hosted import HostedReplicas, host_replicas
from repro.core.config import SuiteConfig
from repro.core.errors import (
    AmbiguousLookupError,
    KeyAlreadyPresentError,
    KeyNotPresentError,
    QuorumUnavailableError,
)
from repro.core.versions import Version
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint

RESOLUTION_MODES = ("version", "error", "consult")


class NaiveReplica:
    """A replica storing (version, value) per present key — nothing for
    absent keys, which is precisely the design flaw."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.data: dict[Any, tuple[Version, Any]] = {}

    def get(self, key: Any) -> tuple[bool, Version, Any]:
        """(present, version, value); absent replies carry version 0
        vacuously — there is genuinely no version to report."""
        if key in self.data:
            version, value = self.data[key]
            return True, version, value
        return False, 0, None

    def put(self, key: Any, version: Version, value: Any) -> None:
        self.data[key] = (version, value)

    def remove(self, key: Any) -> None:
        self.data.pop(key, None)

    def keys(self) -> list[Any]:
        return list(self.data)


class NaiveReplicatedDirectory(HostedReplicas):
    """Weighted voting with per-entry versions only."""

    def __init__(
        self,
        config: SuiteConfig,
        placements: dict[str, tuple[str, str]],
        network: Network,
        rpc: RpcEndpoint,
        rng: random.Random,
        resolution: str = "consult",
    ) -> None:
        if resolution not in RESOLUTION_MODES:
            raise ValueError(
                f"resolution must be one of {RESOLUTION_MODES}: {resolution!r}"
            )
        self.config = config
        self.placements = dict(placements)
        self.network = network
        self.rpc = rpc
        self.rng = rng
        self.resolution = resolution
        self.extra_consultations = 0  # replies needed beyond the read quorum
        self.ambiguous_lookups = 0

    # -- lookup with the three resolution modes ---------------------------------

    def lookup(self, key: Any) -> tuple[bool, Any]:
        """(present?, value) — possibly wrong/ambiguous; see module docs."""
        quorum = self._quorum("read")
        replies = {rep: self._rpc(rep, "get", key) for rep in quorum}
        presents = [r for r in replies.values() if r[0]]
        absents = [r for r in replies.values() if not r[0]]
        if not presents:
            return False, None
        if not absents:
            best = max(presents, key=lambda r: r[1])
            return True, best[2]
        # Mixed replies: the ambiguity.
        self.ambiguous_lookups += 1
        if self.resolution == "version":
            # The "present" reply carries a version, the "absent" replies
            # carry nothing comparable — trusting the version is the
            # natural move and it is wrong after deletions.
            best = max(presents, key=lambda r: r[1])
            return True, best[2]
        if self.resolution == "error":
            raise AmbiguousLookupError(
                key, detail=f"{len(presents)} present vs {len(absents)} absent"
            )
        return self._resolve_by_consultation(key, replies)

    def _resolve_by_consultation(
        self, key: Any, replies: dict[str, tuple[bool, Version, Any]]
    ) -> tuple[bool, Any]:
        """Consult additional representatives until counting decides.

        Thresholds: strictly more than ``x − W`` presents ⇒ present;
        strictly more than ``x − W`` absents ⇒ absent (see module docs).
        """
        threshold = self.config.n_representatives - self.config.write_quorum
        remaining = [n for n in self._reachable() if n not in replies]
        self.rng.shuffle(remaining)
        while True:
            presents = [r for r in replies.values() if r[0]]
            absents = [r for r in replies.values() if not r[0]]
            if len(presents) > threshold:
                best = max(presents, key=lambda r: r[1])
                return True, best[2]
            if len(absents) > threshold:
                return False, None
            if not remaining:
                raise QuorumUnavailableError(
                    threshold + 1,
                    max(len(presents), len(absents)),
                    kind="ambiguity resolution",
                )
            extra = remaining.pop()
            replies[extra] = self._rpc(extra, "get", key)
            self.extra_consultations += 1

    def size(self) -> int:
        """Count live entries: union the keys held by a read quorum, then
        decide each key's presence with :meth:`lookup`.

        Sound because a current entry is stored on a full write quorum,
        which intersects every read quorum — so no live key can be
        missing from the union.  Stale copies *can* appear in it, which
        is why each candidate still goes through lookup (inheriting this
        baseline's resolution mode, ambiguities and all).
        """
        quorum = self._quorum("read")
        candidates: set[Any] = set()
        for rep in quorum:
            candidates.update(self._rpc(rep, "keys"))
        return sum(1 for key in sorted(candidates) if self.lookup(key)[0])

    # -- internal versioned lookup for modifications ------------------------------

    def _lookup_version(self, key: Any) -> tuple[bool, Version]:
        """Presence plus the best-known version for version assignment."""
        present, _value = self.lookup(key)
        quorum = self._quorum("read")
        best = 0
        for rep in quorum:
            _p, version, _v = self._rpc(rep, "get", key)
            best = max(best, version)
        return present, best

    # -- modifications ------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        present, version = self._lookup_version(key)
        if present:
            raise KeyAlreadyPresentError(key)
        quorum = self._quorum("write")
        for rep in quorum:
            self._rpc(rep, "put", key, version + 1, value)

    def update(self, key: Any, value: Any) -> None:
        present, version = self._lookup_version(key)
        if not present:
            raise KeyNotPresentError(key)
        quorum = self._quorum("write")
        for rep in quorum:
            self._rpc(rep, "put", key, version + 1, value)

    def delete(self, key: Any) -> None:
        """Remove the entry from a write quorum — leaving stale copies
        elsewhere with no version record of the deletion.  This is the
        operation that poisons future lookups."""
        present, _version = self._lookup_version(key)
        if not present:
            raise KeyNotPresentError(key)
        quorum = self._quorum("write")
        for rep in quorum:
            self._rpc(rep, "remove", key)


def build_naive(
    spec: str = "3-2-2",
    seed: int | None = None,
    resolution: str = "consult",
) -> tuple[NaiveReplicatedDirectory, dict[str, NaiveReplica]]:
    """A naive per-entry-version directory on a fresh simulated network."""
    config = SuiteConfig.from_xyz(spec)
    rpc, placements, reps = host_replicas(config.names, "naive", NaiveReplica)
    directory = NaiveReplicatedDirectory(
        config, placements, rpc.network, rpc, random.Random(seed), resolution
    )
    return directory, reps
