"""B-tree representative store with gap versions in bounding entries.

Section 5 of the paper: "We envision that directories could be represented
as B-trees.  Version numbers for gaps could be stored in fields in their
bounding entries."  This module implements exactly that representation: a
B+-tree whose leaves hold the entries in key order, where every entry
carries the version number of the gap *after* it (between the entry and its
in-order successor).  Because LOW is always the first entry and HIGH the
last, the ``gap_after`` fields of entries LOW..(HIGH's predecessor) cover
every gap in the representative; HIGH's own field is unused.

The tree is a textbook B+-tree: entries only in leaves, leaves doubly
linked for neighbor queries, internal nodes hold separator keys with the
invariant ``max(child[i]) < sep[i] <= min(child[i+1])`` (separators may go
stale after deletions but never violate the invariant).  Leaves and
internal nodes split at ``order`` items and rebalance (borrow or merge)
below ``order // 2``.

Correctness is established by differential tests against
:class:`repro.storage.sorted_store.SortedStore` over random operation
sequences, plus structural invariant checks after every mutation in the
test suite.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

from repro.core.entries import Entry, LookupReply, NeighborReply
from repro.core.errors import SentinelKeyError, StoreCorruptionError
from repro.core.keys import HIGH, LOW, BoundedKey
from repro.core.versions import LOWEST_VERSION, Version
from repro.storage.interface import InsertResult, RepresentativeStore, StoreSnapshot

_DEFAULT_ORDER = 16


class _Leaf:
    """Leaf node: parallel arrays of keys, entries, and gap-after versions."""

    __slots__ = ("keys", "entries", "gaps", "prev", "next")

    def __init__(self) -> None:
        self.keys: list[BoundedKey] = []
        self.entries: list[Entry] = []
        self.gaps: list[Version] = []
        self.prev: _Leaf | None = None
        self.next: _Leaf | None = None

    def __len__(self) -> int:
        return len(self.keys)


class _Internal:
    """Internal node: separator keys routing into ``len(keys) + 1`` children."""

    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: list[BoundedKey] = []
        self.children: list[_Leaf | _Internal] = []

    def __len__(self) -> int:
        return len(self.keys)


def _even_slices(n: int, capacity: int) -> Iterator[slice]:
    """``n`` items cut into ``ceil(n / capacity)`` runs whose sizes differ
    by at most one, so that no run is below half of ``capacity`` when
    there is more than one."""
    count = max(1, -(-n // capacity))
    base, extra = divmod(n, count)
    stop = 0
    for i in range(count):
        start, stop = stop, stop + base + (i < extra)
        yield slice(start, stop)


class BTreeStore(RepresentativeStore):
    """B+-tree implementation of :class:`RepresentativeStore`.

    Parameters
    ----------
    order:
        Maximum number of entries per leaf and separators per internal
        node; nodes rebalance below ``order // 2``.  Must be at least 4.
    """

    def __init__(
        self,
        initial_gap_version: Version = LOWEST_VERSION,
        order: int = _DEFAULT_ORDER,
    ) -> None:
        if order < 4:
            raise ValueError(f"B-tree order must be >= 4, got {order}")
        self._order = order
        self._min_fill = order // 2
        root = _Leaf()
        root.keys = [LOW, HIGH]
        root.entries = [Entry(LOW, LOWEST_VERSION, None), Entry(HIGH, LOWEST_VERSION, None)]
        root.gaps = [initial_gap_version, LOWEST_VERSION]
        self._root: _Leaf | _Internal = root
        self._count = 2  # sentinels

    # ------------------------------------------------------------------
    # descent helpers
    # ------------------------------------------------------------------

    def _find_leaf(self, key: BoundedKey) -> _Leaf:
        """Leaf that does or would contain ``key``."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[bisect_right(node.keys, key)]
        return node

    def _find_leaf_path(
        self, key: BoundedKey
    ) -> tuple[_Leaf, list[tuple[_Internal, int]]]:
        """Leaf plus the (parent, child-index) path from the root."""
        path: list[tuple[_Internal, int]] = []
        node = self._root
        while isinstance(node, _Internal):
            idx = bisect_right(node.keys, key)
            path.append((node, idx))
            node = node.children[idx]
        return node, path

    def _floor_position(self, key: BoundedKey) -> tuple[_Leaf, int]:
        """(leaf, index) of the largest entry with key <= ``key``.

        LOW is always stored, so the floor always exists for key >= LOW.
        """
        leaf = self._find_leaf(key)
        i = bisect_right(leaf.keys, key) - 1
        if i >= 0:
            return leaf, i
        # Key sorts before everything in this leaf: floor is in the
        # predecessor leaf (possible when separators are stale).
        prev = leaf.prev
        if prev is None:
            raise StoreCorruptionError(f"no floor for {key!r}; LOW missing?")
        return prev, len(prev.keys) - 1

    def _strict_floor_position(self, key: BoundedKey) -> tuple[_Leaf, int]:
        """(leaf, index) of the largest entry with key < ``key``."""
        leaf = self._find_leaf(key)
        i = bisect_left(leaf.keys, key) - 1
        if i >= 0:
            return leaf, i
        prev = leaf.prev
        if prev is None:
            raise ValueError(f"{key!r} has no predecessor")
        return prev, len(prev.keys) - 1

    def _strict_ceiling_position(self, key: BoundedKey) -> tuple[_Leaf, int]:
        """(leaf, index) of the smallest entry with key > ``key``."""
        leaf = self._find_leaf(key)
        i = bisect_right(leaf.keys, key)
        if i < len(leaf.keys):
            return leaf, i
        nxt = leaf.next
        if nxt is None:
            raise ValueError(f"{key!r} has no successor")
        return nxt, 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def lookup(self, key: BoundedKey) -> LookupReply:
        leaf, i = self._floor_position(key)
        if leaf.keys[i] == key:
            entry = leaf.entries[i]
            return LookupReply(True, entry.version, entry.value)
        # Gap after the floor entry contains the key.
        return LookupReply(False, leaf.gaps[i], None)

    def predecessor(self, key: BoundedKey) -> NeighborReply:
        if key.is_low:
            raise ValueError("LOW has no predecessor")
        leaf, i = self._strict_floor_position(key)
        pred = leaf.entries[i]
        return NeighborReply(pred.key, pred.version, leaf.gaps[i], pred.value)

    def successor(self, key: BoundedKey) -> NeighborReply:
        if key.is_high:
            raise ValueError("HIGH has no successor")
        sleaf, si = self._strict_ceiling_position(key)
        succ = sleaf.entries[si]
        # Gap between key and its successor is the gap after key's floor.
        fleaf, fi = self._floor_position(key)
        return NeighborReply(succ.key, succ.version, fleaf.gaps[fi], succ.value)

    def contains(self, key: BoundedKey) -> bool:
        leaf = self._find_leaf(key)
        i = bisect_left(leaf.keys, key)
        return i < len(leaf.keys) and leaf.keys[i] == key

    def entries_between(
        self, low: BoundedKey, high: BoundedKey
    ) -> tuple[Entry, ...]:
        out: list[Entry] = []
        leaf = self._find_leaf(low)
        i = bisect_right(leaf.keys, low)
        while leaf is not None:
            while i < len(leaf.keys):
                if not leaf.keys[i] < high:
                    return tuple(out)
                out.append(leaf.entries[i])
                i += 1
            leaf = leaf.next
            i = 0
        return tuple(out)

    def entry_count(self) -> int:
        return self._count - 2

    @staticmethod
    def _leftmost(node: _Leaf | _Internal) -> _Leaf:
        """The first leaf under ``node``."""
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def iter_entries(self) -> Iterator[Entry]:
        leaf: _Leaf | None = self._leftmost(self._root)
        while leaf is not None:
            yield from leaf.entries
            leaf = leaf.next

    def iter_gap_versions(self) -> Iterator[Version]:
        """Gap versions in order; the trailing gap field of HIGH is skipped."""
        gaps: list[Version] = []
        leaf: _Leaf | None = self._leftmost(self._root)
        while leaf is not None:
            gaps.extend(leaf.gaps)
            leaf = leaf.next
        return iter(gaps[:-1])

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def insert(self, key: BoundedKey, version: Version, value: Any) -> InsertResult:
        if key.is_sentinel:
            raise SentinelKeyError(key)
        leaf, path = self._find_leaf_path(key)
        i = bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            replaced = leaf.entries[i]
            leaf.entries[i] = Entry(key, version, value)
            return InsertResult(replaced=replaced)
        # New entry: it splits the gap after its strict floor, and both
        # halves keep the old gap version.
        fleaf, fi = self._strict_floor_position(key)
        split_gap = fleaf.gaps[fi]
        leaf.keys.insert(i, key)
        leaf.entries.insert(i, Entry(key, version, value))
        leaf.gaps.insert(i, split_gap)
        self._count += 1
        if len(leaf) > self._order:
            self._split(leaf, path)
        return InsertResult(split_gap_version=split_gap)

    def _split(
        self, node: _Leaf | _Internal, path: list[tuple[_Internal, int]]
    ) -> None:
        """Split an overfull node, propagating splits up the path."""
        if isinstance(node, _Leaf):
            mid = len(node) // 2
            right = _Leaf()
            right.keys = node.keys[mid:]
            right.entries = node.entries[mid:]
            right.gaps = node.gaps[mid:]
            del node.keys[mid:]
            del node.entries[mid:]
            del node.gaps[mid:]
            right.next = node.next
            right.prev = node
            if node.next is not None:
                node.next.prev = right
            node.next = right
            sep = right.keys[0]
        else:
            mid = len(node.keys) // 2
            right = _Internal()
            sep = node.keys[mid]
            right.keys = node.keys[mid + 1 :]
            right.children = node.children[mid + 1 :]
            del node.keys[mid:]
            del node.children[mid + 1 :]
        if not path:
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [node, right]
            self._root = new_root
            return
        parent, idx = path.pop()
        parent.keys.insert(idx, sep)
        parent.children.insert(idx + 1, right)
        if len(parent.keys) > self._order:
            self._split(parent, path)

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------

    def _delete(self, key: BoundedKey) -> Entry:
        """Remove the entry for ``key`` and its gap-after; rebalance."""
        leaf, path = self._find_leaf_path(key)
        i = bisect_left(leaf.keys, key)
        if i >= len(leaf.keys) or leaf.keys[i] != key:
            raise KeyError(f"no entry to remove for {key!r}")
        removed = leaf.entries[i]
        del leaf.keys[i]
        del leaf.entries[i]
        del leaf.gaps[i]
        self._count -= 1
        self._rebalance(leaf, path)
        return removed

    def _rebalance(
        self, node: _Leaf | _Internal, path: list[tuple[_Internal, int]]
    ) -> None:
        """Restore minimum occupancy after a removal, recursing upward."""
        if not path:
            # Node is the root: shrink it if it is an empty internal node.
            if isinstance(node, _Internal) and len(node.children) == 1:
                self._root = node.children[0]
            return
        if len(node) >= self._min_fill:
            return
        parent, idx = path[-1]
        left_sib = parent.children[idx - 1] if idx > 0 else None
        right_sib = (
            parent.children[idx + 1] if idx + 1 < len(parent.children) else None
        )
        if left_sib is not None and len(left_sib) > self._min_fill:
            self._borrow_from_left(parent, idx, left_sib, node)
            return
        if right_sib is not None and len(right_sib) > self._min_fill:
            self._borrow_from_right(parent, idx, node, right_sib)
            return
        # Merge with a sibling; removal of a separator may underflow parent.
        if left_sib is not None:
            self._merge(parent, idx - 1, left_sib, node)
        else:
            assert right_sib is not None
            self._merge(parent, idx, node, right_sib)
        self._rebalance(parent, path[:-1])

    def _borrow_from_left(
        self,
        parent: _Internal,
        idx: int,
        left: _Leaf | _Internal,
        node: _Leaf | _Internal,
    ) -> None:
        if isinstance(node, _Leaf):
            assert isinstance(left, _Leaf)
            node.keys.insert(0, left.keys.pop())
            node.entries.insert(0, left.entries.pop())
            node.gaps.insert(0, left.gaps.pop())
            parent.keys[idx - 1] = node.keys[0]
        else:
            assert isinstance(left, _Internal)
            node.keys.insert(0, parent.keys[idx - 1])
            parent.keys[idx - 1] = left.keys.pop()
            node.children.insert(0, left.children.pop())

    def _borrow_from_right(
        self,
        parent: _Internal,
        idx: int,
        node: _Leaf | _Internal,
        right: _Leaf | _Internal,
    ) -> None:
        if isinstance(node, _Leaf):
            assert isinstance(right, _Leaf)
            node.keys.append(right.keys.pop(0))
            node.entries.append(right.entries.pop(0))
            node.gaps.append(right.gaps.pop(0))
            parent.keys[idx] = right.keys[0]
        else:
            assert isinstance(right, _Internal)
            node.keys.append(parent.keys[idx])
            parent.keys[idx] = right.keys.pop(0)
            node.children.append(right.children.pop(0))

    def _merge(
        self,
        parent: _Internal,
        sep_idx: int,
        left: _Leaf | _Internal,
        right: _Leaf | _Internal,
    ) -> None:
        """Fold ``right`` into ``left``; drop separator ``sep_idx``."""
        if isinstance(left, _Leaf):
            assert isinstance(right, _Leaf)
            left.keys.extend(right.keys)
            left.entries.extend(right.entries)
            left.gaps.extend(right.gaps)
            left.next = right.next
            if right.next is not None:
                right.next.prev = left
        else:
            assert isinstance(right, _Internal)
            left.keys.append(parent.keys[sep_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[sep_idx]
        del parent.children[sep_idx + 1]

    # ------------------------------------------------------------------
    # gap-after fields
    # ------------------------------------------------------------------

    def _stored_position(self, key: BoundedKey) -> tuple[_Leaf, int]:
        leaf, i = self._floor_position(key)
        if leaf.keys[i] != key:
            raise KeyError(f"{key!r} is not a stored entry")
        return leaf, i

    def _gap_after(self, key: BoundedKey) -> Version:
        leaf, i = self._stored_position(key)
        return leaf.gaps[i]

    def _set_gap_after(self, key: BoundedKey, version: Version) -> None:
        leaf, i = self._stored_position(key)
        leaf.gaps[i] = version

    # ------------------------------------------------------------------
    # snapshots / integrity
    # ------------------------------------------------------------------

    def restore(self, snap: StoreSnapshot) -> None:
        gaps = [*snap.gap_versions, LOWEST_VERSION]
        leaves: list[_Leaf] = []
        for part in _even_slices(len(snap.entries), self._order):
            leaf = _Leaf()
            leaf.entries = list(snap.entries[part])
            leaf.keys = [e.key for e in leaf.entries]
            leaf.gaps = gaps[part]
            if leaves:
                leaf.prev = leaves[-1]
                leaves[-1].next = leaf
            leaves.append(leaf)
        self._count = len(snap.entries)
        # Internal levels above the fresh leaf chain, ``order + 1``
        # children a parent at most.
        level: list[_Leaf | _Internal] = list(leaves)
        while len(level) > 1:
            parents: list[_Leaf | _Internal] = []
            for part in _even_slices(len(level), self._order + 1):
                parent = _Internal()
                parent.children = level[part]
                parent.keys = [self._leftmost(c).keys[0] for c in parent.children[1:]]
                parents.append(parent)
            level = parents
        self._root = level[0]

    def _check_structure(self) -> None:
        self._check_node(self._root, is_root=True, lo=None, hi=None)
        self._check_leaf_links()

    def _check_node(
        self,
        node: _Leaf | _Internal,
        is_root: bool,
        lo: BoundedKey | None,
        hi: BoundedKey | None,
    ) -> int:
        """Verify structure below ``node``; return its height."""
        if isinstance(node, _Leaf):
            if not is_root and len(node) < self._min_fill:
                raise StoreCorruptionError("underfull leaf")
            if len(node) > self._order + 1:
                raise StoreCorruptionError("overfull leaf")
            for k in node.keys:
                if lo is not None and k < lo:
                    raise StoreCorruptionError("leaf key below subtree bound")
                if hi is not None and not k < hi:
                    raise StoreCorruptionError("leaf key above subtree bound")
            if len(node.keys) != len(node.entries) or len(node.keys) != len(node.gaps):
                raise StoreCorruptionError("leaf parallel arrays diverged")
            return 0
        if not is_root and len(node.keys) < self._min_fill:
            raise StoreCorruptionError("underfull internal node")
        if len(node.children) != len(node.keys) + 1:
            raise StoreCorruptionError("internal node arity mismatch")
        heights = set()
        bounds = [lo, *node.keys, hi]
        for i, child in enumerate(node.children):
            heights.add(
                self._check_node(child, is_root=False, lo=bounds[i], hi=bounds[i + 1])
            )
        if len(heights) != 1:
            raise StoreCorruptionError("children at different heights")
        return heights.pop() + 1

    def _check_leaf_links(self) -> None:
        leaf: _Leaf | None = self._leftmost(self._root)
        prev: _Leaf | None = None
        while leaf is not None:
            if leaf.prev is not prev:
                raise StoreCorruptionError("broken leaf prev link")
            prev = leaf
            leaf = leaf.next


__all__ = ["BTreeStore"]
