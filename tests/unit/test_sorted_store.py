"""Unit tests for representative stores (run against every implementation).

The ``store`` fixture parameterizes every test over SortedStore,
BTreeStore and SkipListStore, so the semantics below are pinned for all
three.
"""

import pytest

from repro.core.entries import Entry
from repro.core.errors import (
    CoalesceBoundsError,
    SentinelKeyError,
    StoreCorruptionError,
)
from repro.core.keys import HIGH, LOW, wrap
from repro.storage.interface import Segment
from tests.conftest import fill_store


class TestFreshStore:
    def test_starts_with_sentinels_only(self, store):
        assert store.entry_count() == 0
        entries = list(store.iter_entries())
        assert entries[0].key.is_low and entries[-1].key.is_high
        assert len(entries) == 2

    def test_single_initial_gap(self, store):
        assert list(store.iter_gap_versions()) == [0]

    def test_lookup_missing_returns_gap_version(self, store):
        reply = store.lookup(wrap("anything"))
        assert not reply.present
        assert reply.version == 0
        assert reply.value is None

    def test_sentinels_present(self, store):
        assert store.contains(LOW) and store.contains(HIGH)
        assert store.lookup(LOW).present
        assert store.lookup(HIGH).present

    def test_invariants_hold(self, store):
        store.check_invariants()


class TestInsert:
    def test_new_entry_visible(self, store):
        result = store.insert(wrap("b"), 1, "B")
        assert result.was_new
        assert result.split_gap_version == 0
        reply = store.lookup(wrap("b"))
        assert reply.present and reply.version == 1 and reply.value == "B"

    def test_split_preserves_gap_version(self, store):
        store.insert(wrap("a"), 1, "A")
        store.insert(wrap("c"), 1, "C")
        store.coalesce(wrap("a"), wrap("c"), 5)  # gap (a,c) now version 5
        store.insert(wrap("b"), 6, "B")
        # Both halves of the split gap keep version 5.
        assert store.lookup(wrap("aa")).version == 5
        assert store.lookup(wrap("bb")).version == 5

    def test_overwrite_returns_replaced(self, store):
        store.insert(wrap("k"), 1, "old")
        result = store.insert(wrap("k"), 2, "new")
        assert not result.was_new
        assert result.replaced.version == 1 and result.replaced.value == "old"
        assert store.lookup(wrap("k")).value == "new"

    def test_sentinels_rejected(self, store):
        with pytest.raises(SentinelKeyError):
            store.insert(LOW, 1, "x")
        with pytest.raises(SentinelKeyError):
            store.insert(HIGH, 1, "x")

    def test_entry_count_tracks_user_entries(self, store):
        fill_store(store, ["a", "b", "c"])
        assert store.entry_count() == 3
        store.insert(wrap("b"), 9, "again")  # overwrite: no growth
        assert store.entry_count() == 3

    def test_many_inserts_sorted(self, store):
        fill_store(store, [5, 1, 9, 3, 7])
        keys = [e.key.payload for e in store.user_entries()]
        assert keys == [1, 3, 5, 7, 9]
        store.check_invariants()


class TestNeighborQueries:
    def test_predecessor_of_present_key(self, store):
        fill_store(store, ["a", "c"])
        reply = store.predecessor(wrap("c"))
        assert reply.key == wrap("a")

    def test_predecessor_of_absent_key(self, store):
        fill_store(store, ["a", "c"])
        reply = store.predecessor(wrap("b"))
        assert reply.key == wrap("a")

    def test_predecessor_falls_to_low(self, store):
        fill_store(store, ["m"])
        assert store.predecessor(wrap("a")).key.is_low

    def test_predecessor_of_low_rejected(self, store):
        with pytest.raises(ValueError):
            store.predecessor(LOW)

    def test_successor_of_present_key(self, store):
        fill_store(store, ["a", "c"])
        assert store.successor(wrap("a")).key == wrap("c")

    def test_successor_of_absent_key(self, store):
        fill_store(store, ["a", "c"])
        assert store.successor(wrap("b")).key == wrap("c")

    def test_successor_rises_to_high(self, store):
        fill_store(store, ["m"])
        assert store.successor(wrap("z")).key.is_high

    def test_successor_of_high_rejected(self, store):
        with pytest.raises(ValueError):
            store.successor(HIGH)

    def test_gap_version_reported(self, store):
        fill_store(store, ["a", "c"])
        store.coalesce(wrap("a"), wrap("c"), 7)
        assert store.predecessor(wrap("b")).gap_version == 7
        assert store.successor(wrap("b")).gap_version == 7
        assert store.predecessor(wrap("c")).gap_version == 7
        assert store.successor(wrap("a")).gap_version == 7

    def test_neighbor_entry_versions(self, store):
        store.insert(wrap("a"), 42, "A")
        store.insert(wrap("c"), 43, "C")
        assert store.predecessor(wrap("b")).entry_version == 42
        assert store.successor(wrap("b")).entry_version == 43


class TestCoalesce:
    def test_removes_interior_entries(self, store):
        fill_store(store, ["a", "b", "c", "d"])
        result = store.coalesce(wrap("a"), wrap("d"), 9)
        assert [e.key.payload for e in result.removed.entries] == ["b", "c"]
        assert store.entry_count() == 2
        assert not store.contains(wrap("b"))

    def test_new_gap_version_everywhere_inside(self, store):
        fill_store(store, ["a", "d"])
        store.coalesce(wrap("a"), wrap("d"), 9)
        for probe in ("aa", "b", "c", "cz"):
            assert store.lookup(wrap(probe)).version == 9

    def test_bounds_survive(self, store):
        fill_store(store, ["a", "b", "c"])
        store.coalesce(wrap("a"), wrap("c"), 5)
        assert store.contains(wrap("a")) and store.contains(wrap("c"))

    def test_missing_bound_rejected(self, store):
        fill_store(store, ["a", "c"])
        with pytest.raises(CoalesceBoundsError):
            store.coalesce(wrap("a"), wrap("x"), 5)
        with pytest.raises(CoalesceBoundsError):
            store.coalesce(wrap("x"), wrap("c"), 5)

    def test_inverted_bounds_rejected(self, store):
        fill_store(store, ["a", "c"])
        with pytest.raises(CoalesceBoundsError):
            store.coalesce(wrap("c"), wrap("a"), 5)
        with pytest.raises(CoalesceBoundsError):
            store.coalesce(wrap("a"), wrap("a"), 5)

    def test_sentinel_bounds_allowed(self, store):
        fill_store(store, ["a", "b"])
        result = store.coalesce(LOW, HIGH, 3)
        assert len(result.removed.entries) == 2
        assert store.entry_count() == 0
        assert store.lookup(wrap("zz")).version == 3

    def test_empty_range_coalesce(self, store):
        fill_store(store, ["a", "b"])
        result = store.coalesce(wrap("a"), wrap("b"), 4)
        assert result.removed.entries == ()
        assert store.lookup(wrap("ab")).version == 4

    def test_old_gap_versions_recorded_for_undo(self, store):
        fill_store(store, ["a", "b", "c"])
        result = store.coalesce(wrap("a"), wrap("c"), 9)
        # One removed entry -> two old gap versions (both 0 initially).
        assert len(result.removed.gap_versions) == 2


class TestRawMutators:
    def test_remove_entry_merges_gaps(self, store):
        fill_store(store, ["a", "b", "c"])
        removed = store.remove_entry(wrap("b"), merged_gap_version=8)
        assert removed.key == wrap("b")
        assert store.lookup(wrap("b")).version == 8
        store.check_invariants()

    def test_remove_missing_entry_rejected(self, store):
        with pytest.raises(KeyError):
            store.remove_entry(wrap("nope"), 1)

    def test_remove_sentinel_rejected(self, store):
        with pytest.raises(SentinelKeyError):
            store.remove_entry(LOW, 1)

    def test_restore_segment_roundtrip(self, store):
        fill_store(store, ["a", "b", "c", "d"])
        before = store.snapshot()
        result = store.coalesce(wrap("a"), wrap("d"), 9)
        store.restore_segment(wrap("a"), wrap("d"), result.removed)
        assert store.snapshot() == before
        store.check_invariants()

    def test_restore_rejects_out_of_range_entries(self, store):
        from repro.core.entries import Entry

        fill_store(store, ["a", "d"])
        bad = Segment(entries=(Entry(wrap("z"), 1, "?"),), gap_versions=(0, 0))
        with pytest.raises(StoreCorruptionError):
            store.restore_segment(wrap("a"), wrap("d"), bad)


class TestSnapshotRestore:
    def test_roundtrip(self, store):
        fill_store(store, ["a", "b", "c"])
        store.coalesce(wrap("a"), wrap("c"), 5)
        snap = store.snapshot()
        store.insert(wrap("z"), 9, "Z")
        store.restore(snap)
        assert store.snapshot() == snap
        store.check_invariants()

    def test_logically_equal(self, store):
        from repro.storage.sorted_store import SortedStore

        fill_store(store, ["a", "b"])
        other = fill_store(SortedStore(), ["a", "b"])
        assert store.logically_equal(other)
        other.insert(wrap("c"), 9, "C")
        assert not store.logically_equal(other)

    def test_entries_between(self, store):
        fill_store(store, [1, 2, 3, 4, 5])
        between = store.entries_between(wrap(1), wrap(4))
        assert [e.key.payload for e in between] == [2, 3]
        assert store.entries_between(LOW, HIGH) == store.user_entries()
        assert store.entries_between(wrap(2), wrap(3)) == ()


# -- the tiling contract, one for every backend ------------------------------


def test_restore_segment_with_an_out_of_range_entry_changes_nothing(store):
    fill_store(store, ["a", "d"])
    store.coalesce(wrap("a"), wrap("d"), 5)
    before = store.snapshot()
    bad = Segment(
        entries=(Entry(wrap("b"), 1, "B"), Entry(wrap("z"), 1, "Z")),
        gap_versions=(2, 3, 4),
    )
    with pytest.raises(StoreCorruptionError):
        store.restore_segment(wrap("a"), wrap("d"), bad)
    assert store.snapshot() == before
    store.check_invariants()


def test_restore_segment_refuses_reversed_bounds(store):
    fill_store(store, ["a", "d"])
    before = store.snapshot()
    with pytest.raises(StoreCorruptionError):
        store.restore_segment(wrap("d"), wrap("a"), Segment())
    assert store.snapshot() == before


def test_negative_entry_version_fails_check_invariants(store):
    store.insert(wrap("a"), -1, "A")
    with pytest.raises(StoreCorruptionError):
        store.check_invariants()


# -- a snapshot answers as the store it copies ---------------------------------


def _copied(store):
    """``store`` filled, coalesced and split again, its snapshot, and
    probes at every stored key and between each two."""
    fill_store(store, ["b", "d", "f", "h"])
    store.coalesce(wrap("b"), wrap("f"), 7)
    store.insert(wrap("e"), 8, "E")
    probes = [LOW, *map(wrap, ["a", "b", "c", "e", "ee", "f", "g", "h", "i"])]
    return store.snapshot(), probes


def test_snapshot_lookup_answers_as_the_store(store):
    snap, probes = _copied(store)
    for key in [*probes, HIGH]:
        assert snap.lookup(key) == store.lookup(key), key


def test_snapshot_successor_answers_as_the_store(store):
    snap, probes = _copied(store)
    for key in probes:
        assert snap.successor(key) == store.successor(key), key
    for tiling in (store, snap):
        with pytest.raises(ValueError):
            tiling.successor(HIGH)


def test_snapshot_user_entries_are_the_store_s(store):
    snap, _ = _copied(store)
    assert snap.user_entries() == store.user_entries()
