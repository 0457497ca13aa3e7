"""Shard maps: deterministic, epoch-stamped key → shard routing.

A :class:`ShardMap` answers one question — which shard owns a key — and
must answer it identically on every client for as long as its epoch
stands (a key routed to two different shards would be two different
keys).  It comes in two forms:

* **range** (:meth:`ShardMap.range`, :meth:`ShardMap.uniform`) —
  contiguous key ranges, the classic partitioned-directory layout.
  Preserves key locality (range scans stay on one shard) but inherits
  the key distribution: a workload whose keys concentrate in one region
  piles onto one shard.
* **hash** (:meth:`ShardMap.hash`) — buckets over a *stable* digest
  (BLAKE2b of ``repr(key)``; Python's builtin ``hash`` is salted per
  process and unusable for routing).  Destroys locality, flattens any
  key-space skew.

Either form is a pure function of the key — no state, no network — so
routing costs nothing in simulated time.

For *live* resharding the routing itself must be able to change.  A map
is immutable and stamped with an **epoch** (0 at creation);
:meth:`ShardMap.split` derives the successor epoch, carrying a
:class:`ShardMapDelta` naming the one key range that moved and the
brand-new shard it moved to.  A split onto a new, empty shard is the
only way a range moves: the paper's version numbers mean something only
inside one replica suite, so copying a range's versions into another
suite is sound only when that suite holds nothing yet.  The delta is
what the :class:`~repro.shard.reshard.Resharder` migrates and what
:meth:`~repro.shard.audit.ShardAuditor.audit_reshard` proves correct.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.errors import ConfigurationError


@dataclass(frozen=True)
class ShardMapDelta:
    """The key-range difference between a map and its successor epoch.

    Exactly one contiguous range moves per epoch step: ``[low, high)``
    (``high is None`` means "to the end of the key space") leaves shard
    ``source`` and lands on ``target``, a shard new at this epoch.  This
    is the unit of work a :class:`~repro.shard.reshard.Resharder`
    migrates.
    """

    epoch: int
    source: int
    target: int
    low: Any
    high: Any | None

    def covers(self, key: Any) -> bool:
        """Whether ``key`` lies in the moving range."""
        return self.low <= key and (self.high is None or key < self.high)


@dataclass(frozen=True, slots=True)
class ShardMap:
    """An immutable, epoch-stamped routing of keys across ``shards`` shards.

    Build one with :meth:`range`, :meth:`uniform` or :meth:`hash`; derive
    successor epochs with :meth:`split`.  In the range form shard
    ``owners[i]`` owns ``[boundaries[i-1], boundaries[i])``: keys below
    the first boundary go to ``owners[0]``, keys at or above the last to
    ``owners[-1]``, so the map tiles the whole key space.  In the hash
    form ``boundaries`` and ``owners`` are ``None`` and a key's shard is
    its digest modulo ``shards``.  Shard indices are stable across
    epochs: a split hands its upper sub-range to a brand-new index and
    every other key keeps routing where it did, so per-shard state and
    metric scopes never shift underneath a migration.
    """

    shards: int
    #: Interior split points, strictly increasing (None when hashed).
    boundaries: "tuple[Any, ...] | None" = None
    #: Shard index owning each range; ``len(boundaries) + 1`` long.
    owners: "tuple[int, ...] | None" = None
    epoch: int = 0
    #: The range moved to reach this epoch (None at epoch 0).
    delta: "ShardMapDelta | None" = None

    @classmethod
    def range(cls, boundaries: Iterable[Any]) -> "ShardMap":
        """Contiguous ranges split at ``boundaries``, shard ``i`` owning
        the ``i``-th.  The boundaries are the ``n - 1`` interior split
        points, strictly increasing and mutually comparable with every
        key routed."""
        boundaries = tuple(boundaries)
        for position, boundary in enumerate(boundaries):
            if boundary == "":
                raise ConfigurationError(
                    f"range boundary {position} is the empty string; every "
                    "boundary must be a real, comparable key value"
                )
        for position, (a, b) in enumerate(
            zip(boundaries, boundaries[1:]), start=1
        ):
            if a == b:
                raise ConfigurationError(
                    f"duplicate range boundary {b!r} at positions "
                    f"{position - 1} and {position}; boundaries must be "
                    "distinct split points"
                )
            if not a < b:
                raise ConfigurationError(
                    f"range boundaries must be strictly increasing: boundary "
                    f"{b!r} at position {position} does not sort above {a!r}"
                )
        shards = len(boundaries) + 1
        return cls(shards, boundaries, tuple(range(shards)))

    @classmethod
    def uniform(
        cls, shards: int, low: float = 0.0, high: float = 1.0
    ) -> "ShardMap":
        """An even float split of ``[low, high)`` — the paper's key space."""
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1: {shards}")
        if not low < high:
            raise ConfigurationError(f"need low < high: {low} .. {high}")
        width = (high - low) / shards
        return cls.range(low + width * i for i in range(1, shards))

    @classmethod
    def hash(cls, shards: int) -> "ShardMap":
        """``shards`` buckets over a stable digest of ``repr(key)``.

        Any key with a deterministic ``repr`` routes stably (floats,
        ints, strings, tuples of those).  Used for workloads whose *key
        values* are skewed: the digest is uniform regardless of where
        keys cluster, so load spreads evenly where a range split would
        hot-spot.
        """
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1: {shards}")
        return cls(shards)

    def shard_of(self, key: Any) -> int:
        """Index in ``range(shards)`` of the shard owning ``key``."""
        if self.boundaries is None:
            digest = hashlib.blake2b(
                repr(key).encode("utf-8"), digest_size=8
            ).digest()
            return int.from_bytes(digest, "big") % self.shards
        return self.owners[bisect_right(self.boundaries, key)]

    def describe(self) -> str:
        """Routing summary for reports, BENCH documents and ``SHARDMAP``.

        ``range[<shards>]`` or ``hash[<shards>]``, with ``@e<epoch>``
        appended once a split has moved something.  A hash map has no
        key-range boundaries to enumerate, so ``hash[n]`` *is* its full
        routing description: every key routes by stable digest modulo
        ``n``, and the map cannot be split.
        """
        form = "hash" if self.boundaries is None else "range"
        if self.epoch == 0:
            return f"{form}[{self.shards}]"
        return f"{form}[{self.shards}]@e{self.epoch}"

    def ranges(self) -> "list[tuple[Any, Any, int]]":
        """``(low, high, owner)`` per range, ``None`` bounds at the ends
        (empty for a hash map, which has no ranges)."""
        if self.boundaries is None:
            return []
        bounds = [None, *self.boundaries, None]
        return [
            (bounds[i], bounds[i + 1], owner)
            for i, owner in enumerate(self.owners)
        ]

    def split(self, boundary: Any) -> "ShardMap":
        """Successor epoch with ``boundary`` inserted as a new split point.

        The range containing ``boundary`` is cut in two; its upper part
        ``[boundary, old_high)`` moves to a brand-new shard index
        (``shards``), growing the map by one shard.  All other keys keep
        their owner.
        """
        if self.boundaries is None:
            raise ConfigurationError(
                f"cannot split a {self.describe()} map: only range maps "
                "have contiguous key ranges to move"
            )
        j = bisect_right(self.boundaries, boundary)
        if j > 0 and not self.boundaries[j - 1] < boundary:
            raise ConfigurationError(
                f"split boundary {boundary!r} duplicates an existing "
                "range boundary"
            )
        target = self.shards
        delta = ShardMapDelta(
            epoch=self.epoch + 1,
            source=self.owners[j],
            target=target,
            low=boundary,
            high=self.boundaries[j] if j < len(self.boundaries) else None,
        )
        return ShardMap(
            target + 1,
            self.boundaries[:j] + (boundary,) + self.boundaries[j:],
            self.owners[: j + 1] + (target,) + self.owners[j + 1 :],
            self.epoch + 1,
            delta,
        )


def resolve_shard_map(shard_map: "str | ShardMap", shards: int | None) -> ShardMap:
    """Build/validate a map from a name (``"range"`` / ``"hash"``) or
    pass an instance through, checking it against ``shards`` if given."""
    if isinstance(shard_map, str):
        n = 4 if shards is None else shards
        if shard_map == "range":
            return ShardMap.uniform(n)
        if shard_map == "hash":
            return ShardMap.hash(n)
        raise ConfigurationError(
            f"unknown shard map {shard_map!r}; choose 'range' or 'hash' "
            "or pass a ShardMap instance"
        )
    if shards is not None and shard_map.shards != shards:
        raise ConfigurationError(
            f"shard map routes {shard_map.shards} shards, but shards={shards}"
        )
    return shard_map
