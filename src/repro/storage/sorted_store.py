"""Reference representative store backed by sorted parallel arrays.

The store keeps every entry (sentinels included) in a sorted list and the
gap versions in a parallel list one element shorter, so that
``_gaps[i]`` is the version of the gap between ``_entries[i]`` and
``_entries[i + 1]``.  All operations are ``O(log n)`` to locate plus
``O(n)`` to shift, which is plenty for simulation-scale directories and
trivially auditable; :class:`repro.storage.btree.BTreeStore` provides the
logarithmic structure the paper envisions for real deployments.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from repro.core.entries import Entry, LookupReply, NeighborReply
from repro.core.errors import CoalesceBoundsError, SentinelKeyError, StoreCorruptionError
from repro.core.keys import HIGH, LOW, BoundedKey
from repro.core.versions import LOWEST_VERSION, Version
from repro.storage.interface import (
    CoalesceResult,
    InsertResult,
    RepresentativeStore,
    Segment,
    StoreSnapshot,
)


class SortedStore(RepresentativeStore):
    """Sorted-array implementation of :class:`RepresentativeStore`."""

    def __init__(self, initial_gap_version: Version = LOWEST_VERSION) -> None:
        low = Entry(LOW, LOWEST_VERSION, None)
        high = Entry(HIGH, LOWEST_VERSION, None)
        self._entries: list[Entry] = [low, high]
        self._keys: list[BoundedKey] = [LOW, HIGH]
        self._gaps: list[Version] = [initial_gap_version]

    # -- index helpers -----------------------------------------------------

    def _index_of(self, key: BoundedKey) -> int | None:
        """Index of the entry for ``key``, or None if absent."""
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return i
        return None

    # -- queries ----------------------------------------------------------

    def lookup(self, key: BoundedKey) -> LookupReply:
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            entry = self._entries[i]
            return LookupReply(True, entry.version, entry.value)
        # key falls in the gap between entries i-1 and i
        return LookupReply(False, self._gaps[i - 1], None)

    def predecessor(self, key: BoundedKey) -> NeighborReply:
        if key.is_low:
            raise ValueError("LOW has no predecessor")
        i = bisect_left(self._keys, key)
        pred = self._entries[i - 1]
        # The gap between pred and key is the gap immediately after pred,
        # whether or not key itself is stored.
        return NeighborReply(
            pred.key, pred.version, self._gaps[i - 1], pred.value
        )

    def successor(self, key: BoundedKey) -> NeighborReply:
        if key.is_high:
            raise ValueError("HIGH has no successor")
        i = bisect_right(self._keys, key)
        succ = self._entries[i]
        return NeighborReply(
            succ.key, succ.version, self._gaps[i - 1], succ.value
        )

    def contains(self, key: BoundedKey) -> bool:
        return self._index_of(key) is not None

    def entries_between(
        self, low: BoundedKey, high: BoundedKey
    ) -> tuple[Entry, ...]:
        lo = bisect_right(self._keys, low)
        hi = bisect_left(self._keys, high)
        return tuple(self._entries[lo:hi])

    def entry_count(self) -> int:
        return len(self._entries) - 2

    def iter_entries(self) -> Iterator[Entry]:
        return iter(tuple(self._entries))

    def iter_gap_versions(self) -> Iterator[Version]:
        return iter(tuple(self._gaps))

    # -- mutators ---------------------------------------------------------

    def insert(self, key: BoundedKey, version: Version, value: Any) -> InsertResult:
        if key.is_sentinel:
            raise SentinelKeyError(key)
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            replaced = self._entries[i]
            self._entries[i] = Entry(key, version, value)
            return InsertResult(replaced=replaced)
        split_gap = self._gaps[i - 1]
        self._keys.insert(i, key)
        self._entries.insert(i, Entry(key, version, value))
        # Splitting a gap leaves both halves with the old gap's version.
        self._gaps.insert(i - 1, split_gap)
        return InsertResult(split_gap_version=split_gap)

    def coalesce(
        self, low: BoundedKey, high: BoundedKey, version: Version
    ) -> CoalesceResult:
        # The one override of a tiling rule.  This is the cluster
        # default, so every served replica runs it, and its two slice
        # deletions, against the generic walk's per-victim ``_gap_after``
        # and ``_delete``, keep ``delete_churn`` at 39.0 storage calls/op
        # instead of 57.8 (and 271 server calls/op instead of 287) in the
        # counted plane of ``benchmarks/perf`` (seed 1).  Same checks,
        # same result.
        il = self._index_of(low)
        if il is None:
            raise CoalesceBoundsError(low)
        ih = self._index_of(high)
        if ih is None:
            raise CoalesceBoundsError(high)
        if not il < ih:
            raise CoalesceBoundsError(high)
        removed_entries = tuple(self._entries[il + 1 : ih])
        old_gaps = tuple(self._gaps[il:ih])
        del self._entries[il + 1 : ih]
        del self._keys[il + 1 : ih]
        self._gaps[il:ih] = [version]
        return CoalesceResult(
            removed=Segment(entries=removed_entries, gap_versions=old_gaps),
            new_version=version,
        )

    # -- container hooks --------------------------------------------------

    def _stored_index(self, key: BoundedKey) -> int:
        i = self._index_of(key)
        if i is None:
            raise KeyError(f"{key!r} is not a stored entry")
        return i

    def _gap_after(self, key: BoundedKey) -> Version:
        return self._gaps[self._stored_index(key)]

    def _set_gap_after(self, key: BoundedKey, version: Version) -> None:
        self._gaps[self._stored_index(key)] = version

    def _delete(self, key: BoundedKey) -> Entry:
        i = self._stored_index(key)
        self._keys.pop(i)
        del self._gaps[i]
        return self._entries.pop(i)

    def _check_structure(self) -> None:
        if [e.key for e in self._entries] != self._keys:
            raise StoreCorruptionError("entry/key arrays diverged")

    # -- snapshots ----------------------------------------------------------

    def restore(self, snap: StoreSnapshot) -> None:
        self._entries = list(snap.entries)
        self._keys = [e.key for e in snap.entries]
        self._gaps = list(snap.gap_versions)


__all__ = ["SortedStore"]
