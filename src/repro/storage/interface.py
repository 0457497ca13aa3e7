"""Abstract interface of a directory-representative store.

A store holds one replica's copy of the directory data: a totally ordered
set of entries bracketed by the permanent LOW and HIGH sentinels, plus one
*gap version number* for every maximal interval between consecutive
entries.  Stores implement exactly the state the representative operations
of Figure 6 need:

* ``lookup``       — entry or containing-gap version for any key,
* ``predecessor``  — nearest stored entry below a key, plus the gap version,
* ``successor``    — nearest stored entry above a key, plus the gap version,
* ``insert``       — create or overwrite an entry (splitting a gap),
* ``coalesce``     — delete all entries strictly inside a range, merging
  the covered gaps into one with a fresh version number.

Two *raw* mutators — ``remove_entry`` and ``restore_segment`` — exist only
so the transaction layer can undo ``insert`` and ``coalesce`` on abort and
so recovery can rebuild state; suite code never calls them directly.

Concrete implementations: :class:`repro.storage.sorted_store.SortedStore`
(bisect-based reference) and :class:`repro.storage.btree.BTreeStore` (the
B-tree representation section 5 of the paper envisions).
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Iterator

from repro.core.entries import Entry, LookupReply, NeighborReply
from repro.core.keys import BoundedKey
from repro.core.versions import Version


@dataclass(frozen=True, slots=True)
class InsertResult:
    """Outcome of :meth:`RepresentativeStore.insert`.

    Exactly one of the two fields is set: ``replaced`` carries the previous
    entry when the key already existed (an overwrite), and
    ``split_gap_version`` carries the version of the gap that the new entry
    split when the key was new.  The transaction layer derives the undo
    action from whichever is present.
    """

    replaced: Entry | None = None
    split_gap_version: Version | None = None

    @property
    def was_new(self) -> bool:
        """True if the insert created a new entry (split a gap)."""
        return self.replaced is None


@dataclass(frozen=True, slots=True)
class Segment:
    """The content strictly between two bounding entries.

    ``entries`` are the stored entries inside the open interval, in key
    order; ``gap_versions`` are the versions of the gaps interleaved with
    them, so ``len(gap_versions) == len(entries) + 1`` always holds (the
    first gap abuts the low bound, the last abuts the high bound).
    """

    entries: tuple[Entry, ...] = ()
    gap_versions: tuple[Version, ...] = (0,)

    def __post_init__(self) -> None:
        if len(self.gap_versions) != len(self.entries) + 1:
            raise ValueError(
                "segment needs exactly len(entries)+1 gap versions: "
                f"{len(self.entries)} entries, {len(self.gap_versions)} gaps"
            )


@dataclass(frozen=True, slots=True)
class CoalesceResult:
    """Outcome of :meth:`RepresentativeStore.coalesce`.

    ``removed`` holds the segment that was deleted (entries plus the old
    gap versions), which is both the undo record and the raw material for
    the paper's delete-overhead statistics; ``new_version`` is the version
    assigned to the resulting single gap.
    """

    removed: Segment
    new_version: Version

    @property
    def entries_removed(self) -> int:
        """Number of entries deleted by the coalesce."""
        return len(self.removed.entries)


@dataclass(frozen=True)
class StoreSnapshot:
    """A full, immutable copy of a store's logical state.

    Used by checkpointing, crash simulation, and by tests comparing stores
    for logical equality.  ``entries`` includes the sentinels;
    ``gap_versions`` has ``len(entries) - 1`` elements.
    """

    entries: tuple[Entry, ...]
    gap_versions: tuple[Version, ...]

    def __post_init__(self) -> None:
        if len(self.gap_versions) != len(self.entries) - 1:
            raise ValueError("snapshot gap/entry arity mismatch")

    def lookup(self, key: BoundedKey) -> LookupReply:
        """What ``DirRepLookup(key)`` answered on the store this copies.

        The entry for ``key``, or the version of the gap covering it —
        the fact every cross-replica comparison (anti-entropy diff,
        reshard's quorum read) ranks with :meth:`LookupReply.beats`.
        """
        idx = bisect_left(self.entries, key, key=attrgetter("key"))
        if idx < len(self.entries) and self.entries[idx].key == key:
            entry = self.entries[idx]
            return LookupReply(True, entry.version, entry.value)
        # entries[idx - 1] < key < entries[idx]; idx >= 1 because LOW
        # sorts below every other key.
        return LookupReply(False, self.gap_versions[idx - 1])


@dataclass
class StoreStats:
    """Mutation counters a store keeps for the benchmark harness."""

    inserts: int = 0
    overwrites: int = 0
    coalesces: int = 0
    entries_removed_by_coalesce: int = 0
    lookups: int = 0
    neighbor_queries: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        for name in vars(self):
            setattr(self, name, 0)


class RepresentativeStore(abc.ABC):
    """Abstract base class for representative stores.

    Keys handed to every method must be :class:`BoundedKey` instances; the
    representative layer is responsible for wrapping user payloads.
    """

    def __init__(self) -> None:
        self.stats = StoreStats()

    # -- queries ----------------------------------------------------------

    @abc.abstractmethod
    def lookup(self, key: BoundedKey) -> LookupReply:
        """Entry version/value for ``key``, or its containing gap's version.

        Implements ``DirRepLookup`` state access: always returns a version
        number, whether or not an entry exists.
        """

    @abc.abstractmethod
    def predecessor(self, key: BoundedKey) -> NeighborReply:
        """Entry with the largest key strictly below ``key``.

        Also reports the version of the gap between ``key`` and that
        entry.  ``key`` need not be stored.  Raises ``ValueError`` for
        LOW, which has no predecessor.
        """

    @abc.abstractmethod
    def successor(self, key: BoundedKey) -> NeighborReply:
        """Entry with the smallest key strictly above ``key``.

        Mirror image of :meth:`predecessor`; raises ``ValueError`` for
        HIGH.
        """

    @abc.abstractmethod
    def contains(self, key: BoundedKey) -> bool:
        """True if an entry for ``key`` is stored (sentinels included)."""

    @abc.abstractmethod
    def entries_between(
        self, low: BoundedKey, high: BoundedKey
    ) -> tuple[Entry, ...]:
        """All entries with ``low < key < high``, in key order."""

    @abc.abstractmethod
    def entry_count(self) -> int:
        """Number of user entries stored (sentinels excluded)."""

    @abc.abstractmethod
    def iter_entries(self) -> Iterator[Entry]:
        """All entries including sentinels, in key order."""

    @abc.abstractmethod
    def iter_gap_versions(self) -> Iterator[Version]:
        """Gap versions in key order (``entry_count() + 1`` of them)."""

    # -- mutators ---------------------------------------------------------

    @abc.abstractmethod
    def insert(self, key: BoundedKey, version: Version, value: Any) -> InsertResult:
        """Create or overwrite the entry for ``key`` (``DirRepInsert``).

        A new entry splits the gap containing ``key``; both resulting gaps
        keep the split gap's version number (the entry's own, higher
        version is what makes the insert visible).  Sentinel keys are
        rejected.
        """

    @abc.abstractmethod
    def coalesce(
        self, low: BoundedKey, high: BoundedKey, version: Version
    ) -> CoalesceResult:
        """Delete every entry strictly between ``low`` and ``high``.

        The covered gaps merge into a single gap with version ``version``
        (``DirRepCoalesce``).  Raises
        :class:`~repro.core.errors.CoalesceBoundsError` if either bound is
        not a stored entry, per Figure 6.
        """

    # -- raw mutators (undo / recovery only) -------------------------------

    @abc.abstractmethod
    def remove_entry(self, key: BoundedKey, merged_gap_version: Version) -> Entry:
        """Physically remove one entry, merging its two gaps.

        Only the undo machinery calls this (to reverse an ``insert`` that
        created a new entry).  Returns the removed entry.
        """

    @abc.abstractmethod
    def restore_segment(
        self, low: BoundedKey, high: BoundedKey, segment: Segment
    ) -> None:
        """Re-install a previously coalesced segment between two entries.

        Only the undo machinery calls this (to reverse a ``coalesce``).
        ``low`` and ``high`` must currently be adjacent stored entries.
        """

    # -- snapshots / integrity ---------------------------------------------

    @abc.abstractmethod
    def snapshot(self) -> StoreSnapshot:
        """Full copy of the logical state."""

    @abc.abstractmethod
    def restore(self, snap: StoreSnapshot) -> None:
        """Replace the logical state with ``snap``."""

    @abc.abstractmethod
    def check_invariants(self) -> None:
        """Raise ``StoreCorruptionError`` if internal invariants fail.

        Invariants common to all stores: keys strictly increasing, first
        entry LOW and last entry HIGH, one gap version per inter-entry
        interval, all versions non-negative.
        """

    # -- conveniences shared by implementations ----------------------------

    def logically_equal(self, other: "RepresentativeStore") -> bool:
        """True if two stores hold identical entries and gap versions."""
        return self.snapshot() == other.snapshot()

    def user_entries(self) -> tuple[Entry, ...]:
        """All non-sentinel entries in key order."""
        return tuple(e for e in self.iter_entries() if not e.key.is_sentinel)
