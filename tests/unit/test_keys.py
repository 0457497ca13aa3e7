"""Unit tests for the bounded key model and range algebra."""

import copy
import pickle

import pytest

from repro.core.keys import HIGH, LOW, BoundedKey, KeyRange, hull, unwrap, wrap, wrap_all


class TestSentinelOrdering:
    def test_low_below_everything(self):
        assert LOW < wrap("a")
        assert LOW < wrap(-(10**100))
        assert LOW < HIGH

    def test_high_above_everything(self):
        assert wrap("zzzz") < HIGH
        assert wrap(10**100) < HIGH
        assert not HIGH < HIGH

    def test_sentinels_equal_themselves(self):
        assert LOW == BoundedKey.of(LOW)
        assert LOW <= LOW and LOW >= LOW
        assert HIGH <= HIGH and HIGH >= HIGH
        assert not LOW < LOW

    def test_sentinel_predicates(self):
        assert LOW.is_low and not LOW.is_high
        assert HIGH.is_high and not HIGH.is_low
        assert LOW.is_sentinel and HIGH.is_sentinel
        assert not wrap("x").is_sentinel

    def test_repr(self):
        assert repr(LOW) == "LOW"
        assert repr(HIGH) == "HIGH"
        assert repr(wrap("a")) == "Key('a')"


class TestNormalKeys:
    def test_payload_order(self):
        assert wrap("a") < wrap("b")
        assert wrap(1) < wrap(2)
        assert not wrap("b") < wrap("a")

    def test_total_order_operators(self):
        a, b = wrap(1), wrap(2)
        assert a <= b and a < b and b > a and b >= a
        assert a <= wrap(1) and a >= wrap(1)

    def test_equality_and_hash(self):
        assert wrap("k") == wrap("k")
        assert hash(wrap("k")) == hash(wrap("k"))
        assert wrap("k") != wrap("j")
        assert wrap("k") != LOW

    def test_wrap_idempotent(self):
        k = wrap("x")
        assert wrap(k) is k

    def test_unwrap(self):
        assert unwrap(wrap("payload")) == "payload"

    def test_unwrap_sentinel_rejected(self):
        with pytest.raises(ValueError):
            unwrap(LOW)
        with pytest.raises(ValueError):
            unwrap(HIGH)

    def test_wrap_all_preserves_order(self):
        keys = wrap_all(["a", "b", "c"])
        assert [k.payload for k in keys] == ["a", "b", "c"]

    def test_incomparable_payloads_raise(self):
        with pytest.raises(TypeError):
            wrap("a") < wrap(1)

    def test_min_max_work(self):
        ks = [wrap(3), LOW, wrap(7), HIGH]
        assert min(ks) is LOW
        assert max(ks) is HIGH


class TestKeyRange:
    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            KeyRange(wrap(5), wrap(3))

    def test_point_range(self):
        r = KeyRange.point(wrap(4))
        assert r.is_point()
        assert r.contains(wrap(4))
        assert not r.contains(wrap(5))
        assert not r.contains_strictly(wrap(4))

    def test_of_wraps_payloads(self):
        r = KeyRange.of(1, 9)
        assert r.contains(wrap(5))

    def test_full_covers_sentinels(self):
        r = KeyRange.full()
        assert r.contains(LOW) and r.contains(HIGH) and r.contains(wrap("q"))

    def test_contains_boundaries(self):
        r = KeyRange.of("b", "d")
        assert r.contains(wrap("b")) and r.contains(wrap("d"))
        assert not r.contains_strictly(wrap("b"))
        assert r.contains_strictly(wrap("c"))
        assert not r.contains(wrap("a")) and not r.contains(wrap("e"))

    def test_intersects_overlapping(self):
        assert KeyRange.of(1, 5).intersects(KeyRange.of(3, 9))
        assert KeyRange.of(3, 9).intersects(KeyRange.of(1, 5))

    def test_intersects_touching_endpoints(self):
        # Closed intervals: sharing one key counts as intersecting,
        # which is what the lock matrix needs.
        assert KeyRange.of(1, 5).intersects(KeyRange.of(5, 9))

    def test_disjoint_ranges(self):
        assert not KeyRange.of(1, 2).intersects(KeyRange.of(3, 4))

    def test_nested_ranges_intersect(self):
        assert KeyRange.of(1, 10).intersects(KeyRange.of(4, 5))

    def test_covers(self):
        assert KeyRange.of(1, 10).covers(KeyRange.of(4, 5))
        assert not KeyRange.of(4, 5).covers(KeyRange.of(1, 10))
        assert KeyRange.of(1, 10).covers(KeyRange.of(1, 10))

    def test_union_hull(self):
        h = KeyRange.of(1, 3).union_hull(KeyRange.of(7, 9))
        assert h.contains(wrap(5))
        assert h.low == wrap(1) and h.high == wrap(9)

    def test_hull_function(self):
        h = hull([KeyRange.of(2, 3), KeyRange.of(0, 1), KeyRange.of(8, 9)])
        assert h.low == wrap(0) and h.high == wrap(9)

    def test_hull_empty_rejected(self):
        with pytest.raises(ValueError):
            hull([])

    def test_range_with_sentinels(self):
        r = KeyRange(LOW, wrap("m"))
        assert r.contains(wrap("a"))
        assert not r.contains(wrap("z"))
        assert r.contains(LOW)

    def test_range_is_a_pair_of_its_ends(self):
        r = KeyRange.of("b", "d")
        assert r[0] is r.low and r[1] is r.high
        assert r == (wrap("b"), wrap("d"))
        assert repr(r) == "[Key('b') .. Key('d')]"
        with pytest.raises(AttributeError):
            r.low = wrap("a")

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))]
    )
    def test_range_survives_pickle_and_copy(self, clone):
        for r in (KeyRange.of("b", "d"), KeyRange.point(wrap(4)), KeyRange.full()):
            twin = clone(r)
            assert type(twin) is KeyRange
            assert twin == r and hash(twin) == hash(r)
            assert twin.low == r.low and twin.high == r.high

    def test_reversed_range_still_rejected(self):
        with pytest.raises(ValueError, match="invalid key range"):
            KeyRange(HIGH, LOW)
        with pytest.raises(ValueError):
            KeyRange.of("d", "b")
