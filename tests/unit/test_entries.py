"""Unit tests for entry/reply record types."""

import pytest

from repro.core.entries import Entry, LookupReply, NeighborReply, RealNeighbor, SuiteLookupReply
from repro.core.keys import LOW, wrap
from repro.service import wire
from repro.storage.btree import BTreeStore
from repro.storage.skiplist import SkipListStore
from repro.storage.sorted_store import SortedStore


class TestEntry:
    def test_with_version(self):
        e = Entry(wrap("k"), 3, "v")
        e2 = e.with_version(7)
        assert e2.version == 7 and e2.key == e.key and e2.value == "v"
        assert e.version == 3  # original untouched

    def test_with_value(self):
        e = Entry(wrap("k"), 3, "v")
        e2 = e.with_value("w")
        assert e2.value == "w" and e2.version == 3

    def test_equality(self):
        assert Entry(wrap("k"), 1, "v") == Entry(wrap("k"), 1, "v")
        assert Entry(wrap("k"), 1, "v") != Entry(wrap("k"), 2, "v")

    def test_sentinel_entry(self):
        e = Entry(LOW, 0, None)
        assert e.key.is_low


class TestLookupReply:
    def test_beats_none(self):
        assert LookupReply(True, 1, "v").beats(None)

    def test_higher_version_beats(self):
        a = LookupReply(True, 2, "new")
        b = LookupReply(False, 1)
        assert a.beats(b)
        assert not b.beats(a)

    def test_gap_reply_beats_stale_entry(self):
        # The crux of the algorithm: a "not present" reply with a higher
        # gap version must supersede a ghost entry's version.
        ghost = LookupReply(True, 1, "ghost")
        gap = LookupReply(False, 2)
        assert gap.beats(ghost)

    def test_tie_keeps_first(self):
        a = LookupReply(True, 3, "same")
        b = LookupReply(True, 3, "same")
        assert not a.beats(b)  # quorum merge keeps the earlier reply


class TestRecordShapes:
    def test_neighbor_reply_fields(self):
        r = NeighborReply(wrap("a"), 4, 2)
        assert r.key == wrap("a") and r.entry_version == 4 and r.gap_version == 2

    @pytest.mark.parametrize("store", [SortedStore, SkipListStore, BTreeStore])
    def test_neighbor_reply_carries_the_neighbours_value(self, store):
        """Every store fills it in, and the wire codec keeps it: a wave
        judges a candidate, and copies a bound, from this reply alone."""
        s = store()
        for key in "bdf":
            s.insert(wrap(key), 3, {"v": key})
        pred, succ = s.predecessor(wrap("d")), s.successor(wrap("d"))
        assert (pred.key, pred.value) == (wrap("b"), {"v": "b"})
        assert (succ.key, succ.value) == (wrap("f"), {"v": "f"})
        assert wire.decode_value(wire.encode_value(succ)) == succ

    def test_suite_lookup_reply_defaults(self):
        r = SuiteLookupReply(False, 0)
        assert r.value is None

    def test_real_neighbor_fields(self):
        r = RealNeighbor(wrap("p"), "val", 5, 9)
        assert r.max_gap_version == 9
