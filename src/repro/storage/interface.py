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

The tiling's rules live here, once: :class:`RepresentativeStore` writes
``coalesce``, both raw mutators, ``snapshot`` and ``check_invariants``
over the public queries and four hooks each backend supplies
(``_gap_after``, ``_set_gap_after``, ``_delete`` and
``_check_structure``), so a backend keeps only its container.

:class:`MergedTiling` is Figure 8's merge over several tilings, live
or snapshot: every check and repair that compares replicas reads it.

Concrete implementations: :class:`repro.storage.sorted_store.SortedStore`
(bisect-based reference and the cluster default),
:class:`repro.storage.btree.BTreeStore` (the B-tree representation
section 5 of the paper envisions) and
:class:`repro.storage.skiplist.SkipListStore`.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter
from typing import Any, Iterator, Mapping

from repro.core.entries import Entry, LookupReply, NeighborReply
from repro.core.errors import (
    CoalesceBoundsError,
    SentinelKeyError,
    StoreCorruptionError,
)
from repro.core.keys import HIGH, LOW, BoundedKey
from repro.core.versions import LOWEST_VERSION, Version


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
        the fact :class:`MergedTiling` compares across replicas.
        """
        idx = bisect_left(self.entries, key, key=attrgetter("key"))
        if idx < len(self.entries) and self.entries[idx].key == key:
            entry = self.entries[idx]
            return LookupReply(True, entry.version, entry.value)
        # entries[idx - 1] < key < entries[idx]; idx >= 1 because LOW
        # sorts below every other key.
        return LookupReply(False, self.gap_versions[idx - 1])

    def successor(self, key: BoundedKey) -> NeighborReply:
        """What ``DirRepSuccessor(key)`` answered on the store this copies."""
        if key.is_high:
            raise ValueError("HIGH has no successor")
        idx = bisect_right(self.entries, key, key=attrgetter("key"))
        succ = self.entries[idx]
        return NeighborReply(
            succ.key, succ.version, self.gap_versions[idx - 1], succ.value
        )

    def user_entries(self) -> tuple[Entry, ...]:
        """All non-sentinel entries in key order."""
        return tuple(e for e in self.entries if not e.key.is_sentinel)


class MergedTiling:
    """What several tilings hold together, by Figure 8's merge.

    Built from ``{name: tiling}``, each a live store or a
    :class:`StoreSnapshot`.  :attr:`keys`, the ordered union of their
    stored user keys, is the finite skeleton: no tiling stores a key
    inside one of :meth:`intervals`, so comparing at every key and above
    every bound compares the whole key space.  The best fact at a key is
    the one :meth:`LookupReply.beats` keeps, ties to the first tiling.
    Facts read are kept: build one per question, on tilings at rest.
    """

    def __init__(self, tilings: Mapping[str, Any]) -> None:
        self.tilings = dict(tilings)
        self.keys = sorted(
            {e.key for t in self.tilings.values() for e in t.user_entries()}
        )
        self._facts: dict[BoundedKey, dict[str, LookupReply]] = {}

    def intervals(self) -> Iterator[tuple[BoundedKey, BoundedKey]]:
        """Each pair of neighbouring bounds of ``[LOW, *keys, HIGH]``."""
        return pairwise([LOW, *self.keys, HIGH])

    def facts(self, key: BoundedKey) -> dict[str, LookupReply]:
        """Each tiling's fact at ``key``: its entry, or its covering gap."""
        facts = self._facts.get(key)
        if facts is None:
            facts = self._facts[key] = {
                name: tiling.lookup(key) for name, tiling in self.tilings.items()
            }
        return facts

    def gaps_above(self, key: BoundedKey) -> dict[str, Version]:
        """Each tiling's version of the gap just above ``key``."""
        return {
            name: tiling.successor(key).gap_version
            for name, tiling in self.tilings.items()
        }

    def best(self, key: BoundedKey) -> LookupReply:
        """The fact at ``key`` a read of every tiling answers."""
        best = None
        for reply in self.facts(key).values():
            if reply.beats(best):
                best = reply
        return best

    def state(self) -> dict[Any, Any]:
        """``{payload: value}`` of every key whose best fact is present."""
        return {
            key.payload: best.value
            for key in self.keys
            if (best := self.best(key)).present
        }

    def ghosts(self) -> int:
        """Stored entries, over every tiling, whose best fact is absent."""
        return sum(
            sum(reply.present for reply in self.facts(key).values())
            for key in self.keys
            if not self.best(key).present
        )


class RepresentativeStore(abc.ABC):
    """Abstract base class for representative stores.

    Keys handed to every method must be :class:`BoundedKey` instances; the
    representative layer is responsible for wrapping user payloads.  A
    backend supplies the queries, ``insert``, ``restore`` and the four
    container hooks; the tiling's rules are written here over those.
    """

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

    # -- container hooks ----------------------------------------------------
    # Section 5 keeps each gap's version in the entry bounding it below.

    @abc.abstractmethod
    def _gap_after(self, key: BoundedKey) -> Version:
        """Version of the gap after stored entry ``key``."""

    @abc.abstractmethod
    def _set_gap_after(self, key: BoundedKey, version: Version) -> None:
        """Set the version of the gap after stored entry ``key``."""

    @abc.abstractmethod
    def _delete(self, key: BoundedKey) -> Entry:
        """Unlink and return the entry for ``key`` and the gap after it
        (``KeyError`` if none is stored)."""

    @abc.abstractmethod
    def _check_structure(self) -> None:
        """Raise ``StoreCorruptionError`` if the container's own shape,
        which the queries cannot show, is broken."""

    # -- mutators ---------------------------------------------------------

    @abc.abstractmethod
    def insert(self, key: BoundedKey, version: Version, value: Any) -> InsertResult:
        """Create or overwrite the entry for ``key`` (``DirRepInsert``).

        A new entry splits the gap containing ``key``; both resulting gaps
        keep the split gap's version number (the entry's own, higher
        version is what makes the insert visible).  Sentinel keys are
        rejected.
        """

    def coalesce(
        self, low: BoundedKey, high: BoundedKey, version: Version
    ) -> CoalesceResult:
        """Delete every entry strictly between ``low`` and ``high``.

        The covered gaps merge into a single gap with version ``version``
        (``DirRepCoalesce``).  Raises
        :class:`~repro.core.errors.CoalesceBoundsError` if either bound is
        not a stored entry, per Figure 6, or if ``low`` is not below
        ``high``.
        """
        if not self.contains(low):
            raise CoalesceBoundsError(low)
        if not self.contains(high):
            raise CoalesceBoundsError(high)
        if not low < high:
            raise CoalesceBoundsError(high)
        victims = self.entries_between(low, high)
        old_gaps = [self._gap_after(low)]
        old_gaps.extend(self._gap_after(entry.key) for entry in victims)
        for entry in victims:
            self._delete(entry.key)
        self._set_gap_after(low, version)
        return CoalesceResult(
            removed=Segment(entries=victims, gap_versions=tuple(old_gaps)),
            new_version=version,
        )

    # -- raw mutators (undo / recovery only) -------------------------------

    def remove_entry(self, key: BoundedKey, merged_gap_version: Version) -> Entry:
        """Physically remove one entry, merging its two gaps.

        Only the undo machinery calls this (to reverse an ``insert`` that
        created a new entry).  Returns the removed entry; raises
        ``KeyError`` if none is stored for ``key``.
        """
        if key.is_sentinel:
            raise SentinelKeyError(key)
        pred = self.predecessor(key)
        removed = self._delete(key)
        self._set_gap_after(pred.key, merged_gap_version)
        return removed

    def restore_segment(
        self, low: BoundedKey, high: BoundedKey, segment: Segment
    ) -> None:
        """Re-install a previously coalesced segment between two entries.

        Only the undo machinery calls this (to reverse a ``coalesce``).
        ``low`` and ``high`` must currently be adjacent stored entries,
        and the segment's keys must ascend strictly between them; both
        are checked before anything changes, and a failure raises
        ``StoreCorruptionError``.
        """
        if (
            not self.contains(low)
            or not self.contains(high)
            or self.entries_between(low, high)
        ):
            raise StoreCorruptionError(
                f"restore bounds {low!r}, {high!r} are not adjacent entries"
            )
        keys = [low, *(entry.key for entry in segment.entries), high]
        if not all(a < b for a, b in pairwise(keys)):
            raise StoreCorruptionError(
                f"segment keys {keys[1:-1]!r} do not ascend strictly "
                f"inside ({low!r}, {high!r})"
            )
        self._set_gap_after(low, segment.gap_versions[0])
        for entry, gap_after in zip(segment.entries, segment.gap_versions[1:]):
            self.insert(entry.key, entry.version, entry.value)
            self._set_gap_after(entry.key, gap_after)

    # -- snapshots / integrity ---------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        """Full copy of the logical state."""
        return StoreSnapshot(
            entries=tuple(self.iter_entries()),
            gap_versions=tuple(self.iter_gap_versions()),
        )

    @abc.abstractmethod
    def restore(self, snap: StoreSnapshot) -> None:
        """Replace the logical state with ``snap``."""

    def check_invariants(self) -> None:
        """Raise ``StoreCorruptionError`` if the tiling is broken.

        First entry LOW and last entry HIGH, keys strictly increasing, one
        gap version per inter-entry interval, ``entry_count()`` entries
        between the sentinels and no negative version; then the
        backend's own :meth:`_check_structure`.
        """
        entries = tuple(self.iter_entries())
        gaps = tuple(self.iter_gap_versions())
        if not entries or not entries[0].key.is_low:
            raise StoreCorruptionError("first entry is not LOW")
        if not entries[-1].key.is_high:
            raise StoreCorruptionError("last entry is not HIGH")
        for a, b in pairwise(entries):
            if not a.key < b.key:
                raise StoreCorruptionError(f"keys out of order: {a.key!r} !< {b.key!r}")
        if len(gaps) != len(entries) - 1:
            raise StoreCorruptionError(f"{len(entries)} entries but {len(gaps)} gaps")
        if len(entries) != self.entry_count() + 2:
            raise StoreCorruptionError(f"entry_count() is not {len(entries) - 2}")
        for version in (*(entry.version for entry in entries), *gaps):
            if version < LOWEST_VERSION:
                raise StoreCorruptionError(f"negative version {version}")
        self._check_structure()

    # -- conveniences shared by implementations ----------------------------

    def logically_equal(self, other: "RepresentativeStore") -> bool:
        """True if two stores hold identical entries and gap versions."""
        return self.snapshot() == other.snapshot()

    def user_entries(self) -> tuple[Entry, ...]:
        """All non-sentinel entries in key order."""
        return tuple(e for e in self.iter_entries() if not e.key.is_sentinel)
