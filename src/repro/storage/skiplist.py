"""Skip-list representative store.

A third implementation of :class:`RepresentativeStore`, alongside the
sorted array and the B-tree.  Skip lists give the same expected
logarithmic point operations as the B-tree with much simpler invariants
(each node's tower links forward at every level; level-0 is the full
ordered chain), and the gap-after version rides in the level-0 node just
as it rides in the B-tree's bounding entries — a natural fit for the
paper's "version numbers for gaps could be stored in fields in their
bounding entries."

Determinism: node heights come from a store-local ``random.Random``
seeded at construction, so simulations remain reproducible.

Correctness is established the same way as the B-tree's: the shared
parameterized store test suite, plus differential tests against
SortedStore over random operation streams.
"""

from __future__ import annotations

import random
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

_MAX_LEVEL = 24
_P = 0.5


class _Node:
    """One skip-list node: an entry, its gap-after version, and a tower."""

    __slots__ = ("entry", "gap_after", "forward")

    def __init__(self, entry: Entry, gap_after: Version, height: int) -> None:
        self.entry = entry
        self.gap_after = gap_after
        self.forward: list[_Node | None] = [None] * height

    @property
    def key(self) -> BoundedKey:
        return self.entry.key

    @property
    def height(self) -> int:
        return len(self.forward)


class SkipListStore(RepresentativeStore):
    """Skip-list implementation of :class:`RepresentativeStore`."""

    def __init__(
        self,
        initial_gap_version: Version = LOWEST_VERSION,
        seed: int = 0x5EED,
    ) -> None:
        super().__init__()
        self._rng = random.Random(seed)
        # LOW is the head node (max height); HIGH is an ordinary node.
        self._head = _Node(Entry(LOW, LOWEST_VERSION, None), initial_gap_version, _MAX_LEVEL)
        high = _Node(Entry(HIGH, LOWEST_VERSION, None), LOWEST_VERSION, 1)
        for level in range(_MAX_LEVEL):
            self._head.forward[level] = high if level == 0 else None
        self._count = 2

    # ------------------------------------------------------------------
    # traversal helpers
    # ------------------------------------------------------------------

    def _random_height(self) -> int:
        height = 1
        while height < _MAX_LEVEL and self._rng.random() < _P:
            height += 1
        return height

    def _find_preds(self, key: BoundedKey) -> list[_Node]:
        """Per-level rightmost nodes with key strictly below ``key``."""
        preds = [self._head] * _MAX_LEVEL
        node = self._head
        for level in range(_MAX_LEVEL - 1, -1, -1):
            nxt = node.forward[level]
            while nxt is not None and nxt.key < key:
                node = nxt
                nxt = node.forward[level]
            preds[level] = node
        return preds

    def _floor_node(self, key: BoundedKey) -> _Node:
        """Node with the largest key <= ``key`` (LOW exists, so total)."""
        preds = self._find_preds(key)
        candidate = preds[0].forward[0]
        if candidate is not None and candidate.key == key:
            return candidate
        return preds[0]

    def _node_for(self, key: BoundedKey) -> _Node | None:
        node = self._floor_node(key)
        return node if node.key == key else None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def lookup(self, key: BoundedKey) -> LookupReply:
        self.stats.lookups += 1
        node = self._floor_node(key)
        if node.key == key:
            return LookupReply(True, node.entry.version, node.entry.value)
        return LookupReply(False, node.gap_after, None)

    def predecessor(self, key: BoundedKey) -> NeighborReply:
        self.stats.neighbor_queries += 1
        if key.is_low:
            raise ValueError("LOW has no predecessor")
        pred = self._find_preds(key)[0]
        return NeighborReply(
            pred.key, pred.entry.version, pred.gap_after, pred.entry.value
        )

    def successor(self, key: BoundedKey) -> NeighborReply:
        self.stats.neighbor_queries += 1
        if key.is_high:
            raise ValueError("HIGH has no successor")
        floor = self._floor_node(key)
        # Whether or not key is stored, the gap between key and its
        # successor is the floor node's gap-after.
        succ = floor.forward[0]
        assert succ is not None  # HIGH terminates every chain
        return NeighborReply(
            succ.key, succ.entry.version, floor.gap_after, succ.entry.value
        )

    def contains(self, key: BoundedKey) -> bool:
        return self._node_for(key) is not None

    def entries_between(
        self, low: BoundedKey, high: BoundedKey
    ) -> tuple[Entry, ...]:
        out: list[Entry] = []
        node = self._floor_node(low).forward[0]
        while node is not None and node.key < high:
            if node.key > low:
                out.append(node.entry)
            node = node.forward[0]
        return tuple(out)

    def entry_count(self) -> int:
        return self._count - 2

    def iter_entries(self) -> Iterator[Entry]:
        node: _Node | None = self._head
        while node is not None:
            yield node.entry
            node = node.forward[0]

    def iter_gap_versions(self) -> Iterator[Version]:
        node: _Node | None = self._head
        while node is not None and not node.key.is_high:
            yield node.gap_after
            node = node.forward[0]

    # ------------------------------------------------------------------
    # mutators
    # ------------------------------------------------------------------

    def insert(self, key: BoundedKey, version: Version, value: Any) -> InsertResult:
        if key.is_sentinel:
            raise SentinelKeyError(key)
        preds = self._find_preds(key)
        existing = preds[0].forward[0]
        if existing is not None and existing.key == key:
            replaced = existing.entry
            existing.entry = Entry(key, version, value)
            self.stats.overwrites += 1
            return InsertResult(replaced=replaced)
        split_gap = preds[0].gap_after
        node = _Node(Entry(key, version, value), split_gap, self._random_height())
        for level in range(node.height):
            node.forward[level] = preds[level].forward[level]
            preds[level].forward[level] = node
        self._count += 1
        self.stats.inserts += 1
        return InsertResult(split_gap_version=split_gap)

    def _unlink(self, key: BoundedKey) -> _Node:
        """Remove and return the node for ``key`` (which must exist)."""
        preds = self._find_preds(key)
        node = preds[0].forward[0]
        if node is None or node.key != key:
            raise KeyError(f"no entry to remove for {key!r}")
        for level in range(node.height):
            if preds[level].forward[level] is node:
                preds[level].forward[level] = node.forward[level]
        self._count -= 1
        return node

    def coalesce(
        self, low: BoundedKey, high: BoundedKey, version: Version
    ) -> CoalesceResult:
        low_node = self._node_for(low)
        if low_node is None:
            raise CoalesceBoundsError(low)
        if self._node_for(high) is None:
            raise CoalesceBoundsError(high)
        if not low < high:
            raise CoalesceBoundsError(high)
        removed_entries: list[Entry] = []
        old_gaps: list[Version] = [low_node.gap_after]
        node = low_node.forward[0]
        while node is not None and node.key < high:
            removed_entries.append(node.entry)
            old_gaps.append(node.gap_after)
            node = node.forward[0]
        for entry in removed_entries:
            self._unlink(entry.key)
        low_node.gap_after = version
        self.stats.coalesces += 1
        self.stats.entries_removed_by_coalesce += len(removed_entries)
        return CoalesceResult(
            removed=Segment(
                entries=tuple(removed_entries), gap_versions=tuple(old_gaps)
            ),
            new_version=version,
        )

    # ------------------------------------------------------------------
    # raw mutators
    # ------------------------------------------------------------------

    def remove_entry(self, key: BoundedKey, merged_gap_version: Version) -> Entry:
        if key.is_sentinel:
            raise SentinelKeyError(key)
        preds = self._find_preds(key)
        node = self._unlink(key)
        preds[0].gap_after = merged_gap_version
        return node.entry

    def restore_segment(
        self, low: BoundedKey, high: BoundedKey, segment: Segment
    ) -> None:
        low_node = self._node_for(low)
        if low_node is None or self._node_for(high) is None:
            raise StoreCorruptionError("restore bounds are not stored entries")
        if self.entries_between(low, high):
            raise StoreCorruptionError("restore target range is not empty")
        low_node.gap_after = segment.gap_versions[0]
        for entry, gap_after in zip(segment.entries, segment.gap_versions[1:]):
            if not (low < entry.key < high):
                raise StoreCorruptionError(
                    f"segment entry {entry.key!r} outside ({low!r}, {high!r})"
                )
            self.insert(entry.key, entry.version, entry.value)
            self.stats.inserts -= 1  # raw restore is not a logical insert
            restored = self._node_for(entry.key)
            assert restored is not None
            restored.gap_after = gap_after

    # ------------------------------------------------------------------
    # snapshots / integrity
    # ------------------------------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        entries = tuple(self.iter_entries())
        gaps = tuple(self.iter_gap_versions())
        return StoreSnapshot(entries=entries, gap_versions=gaps)

    def restore(self, snap: StoreSnapshot) -> None:
        self.__init__(seed=self._rng.randrange(2**31))  # fresh chains
        for i, entry in enumerate(snap.entries):
            if entry.key.is_sentinel:
                continue
            self.insert(entry.key, entry.version, entry.value)
            self.stats.inserts -= 1
        # Re-apply gap versions onto the rebuilt chain.
        node: _Node | None = self._head
        for gap in snap.gap_versions:
            assert node is not None
            node.gap_after = gap
            node = node.forward[0]
        self._count = len(snap.entries)

    def check_invariants(self) -> None:
        entries = list(self.iter_entries())
        if not entries or not entries[0].key.is_low:
            raise StoreCorruptionError("first entry is not LOW")
        if not entries[-1].key.is_high:
            raise StoreCorruptionError("last entry is not HIGH")
        if len(entries) != self._count:
            raise StoreCorruptionError(
                f"count {self._count} != {len(entries)} entries present"
            )
        for a, b in zip(entries, entries[1:]):
            if not a.key < b.key:
                raise StoreCorruptionError(
                    f"keys out of order: {a.key!r} !< {b.key!r}"
                )
        gaps = list(self.iter_gap_versions())
        if len(gaps) != len(entries) - 1:
            raise StoreCorruptionError(
                f"{len(entries)} entries but {len(gaps)} gaps"
            )
        for g in gaps:
            if g < LOWEST_VERSION:
                raise StoreCorruptionError(f"negative gap version {g}")
        self._check_tower_links()

    def _check_tower_links(self) -> None:
        """Every level's chain must be a sorted subsequence of level 0."""
        level0 = []
        node: _Node | None = self._head
        while node is not None:
            level0.append(node.key)
            node = node.forward[0]
        level0_set = set(level0)
        for level in range(1, _MAX_LEVEL):
            node = self._head
            prev_key = None
            while node is not None:
                if node.key not in level0_set:
                    raise StoreCorruptionError(
                        f"level {level} references an unlinked node"
                    )
                if prev_key is not None and not prev_key < node.key:
                    raise StoreCorruptionError(
                        f"level {level} chain out of order"
                    )
                prev_key = node.key
                node = node.forward[level] if level < node.height else None


__all__ = ["SkipListStore"]
