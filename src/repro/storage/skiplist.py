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
from repro.core.errors import SentinelKeyError, StoreCorruptionError
from repro.core.keys import HIGH, LOW, BoundedKey
from repro.core.versions import LOWEST_VERSION, Version
from repro.storage.interface import InsertResult, RepresentativeStore, StoreSnapshot

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
        node = self._floor_node(key)
        if node.key == key:
            return LookupReply(True, node.entry.version, node.entry.value)
        return LookupReply(False, node.gap_after, None)

    def predecessor(self, key: BoundedKey) -> NeighborReply:
        if key.is_low:
            raise ValueError("LOW has no predecessor")
        pred = self._find_preds(key)[0]
        return NeighborReply(
            pred.key, pred.entry.version, pred.gap_after, pred.entry.value
        )

    def successor(self, key: BoundedKey) -> NeighborReply:
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
            return InsertResult(replaced=replaced)
        split_gap = preds[0].gap_after
        node = _Node(Entry(key, version, value), split_gap, self._random_height())
        for level in range(node.height):
            node.forward[level] = preds[level].forward[level]
            preds[level].forward[level] = node
        self._count += 1
        return InsertResult(split_gap_version=split_gap)

    # ------------------------------------------------------------------
    # container hooks
    # ------------------------------------------------------------------

    def _stored_node(self, key: BoundedKey) -> _Node:
        node = self._node_for(key)
        if node is None:
            raise KeyError(f"{key!r} is not a stored entry")
        return node

    def _gap_after(self, key: BoundedKey) -> Version:
        return self._stored_node(key).gap_after

    def _set_gap_after(self, key: BoundedKey, version: Version) -> None:
        self._stored_node(key).gap_after = version

    def _delete(self, key: BoundedKey) -> Entry:
        preds = self._find_preds(key)
        node = preds[0].forward[0]
        if node is None or node.key != key:
            raise KeyError(f"no entry to remove for {key!r}")
        for level in range(node.height):
            if preds[level].forward[level] is node:
                preds[level].forward[level] = node.forward[level]
        self._count -= 1
        return node.entry

    # ------------------------------------------------------------------
    # snapshots / integrity
    # ------------------------------------------------------------------

    def restore(self, snap: StoreSnapshot) -> None:
        self.__init__(seed=self._rng.randrange(2**31))  # fresh chains
        for entry in snap.entries:
            if not entry.key.is_sentinel:
                self.insert(entry.key, entry.version, entry.value)
        # Re-apply gap versions onto the rebuilt chain.
        node: _Node | None = self._head
        for gap in snap.gap_versions:
            assert node is not None
            node.gap_after = gap
            node = node.forward[0]

    def _check_structure(self) -> None:
        """Every level's chain must be a sorted subsequence of level 0."""
        linked = {entry.key for entry in self.iter_entries()}
        for level in range(1, _MAX_LEVEL):
            node: _Node | None = self._head
            prev_key = None
            while node is not None:
                if node.key not in linked:
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
