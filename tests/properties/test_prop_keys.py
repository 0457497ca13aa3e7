"""Property-based tests for the key model and range algebra.

Payloads come in three families — text (what the wire carries),
integers and ``(text, integer)`` tuples — and every multi-key property
draws its keys from one family, as one directory does.  The contract
pinned here is the one the stores, the lock manager and the wave dicts
rely on: ``BoundedKey`` orders and hashes exactly as the tuple
``(rank, payload)``, with the sentinels at the ends.
"""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.keys import HIGH, LOW, BoundedKey, KeyRange, _Sentinel, unwrap, wrap

texts = st.text(max_size=8)
integers = st.integers(min_value=-1000, max_value=1000)
pairs = st.tuples(st.text(max_size=3), st.integers(min_value=-5, max_value=5))
families = st.sampled_from([texts, integers, pairs])
any_payload = st.one_of(texts, integers, pairs)


def keys_of(payloads):
    return st.one_of(st.just(LOW), st.just(HIGH), payloads.map(wrap))


def same_family(n, of=keys_of):
    """``n`` values drawn from one payload family."""
    return families.flatmap(
        lambda payloads: st.tuples(*[of(payloads)] * n)
    )


any_key = keys_of(any_payload)


def reference_lt(a: BoundedKey, b: BoundedKey) -> bool:
    """The order as the paper states it: rank first, then payload."""
    if a.rank != b.rank:
        return a.rank < b.rank
    return not a.is_sentinel and a.payload < b.payload


def ordered_pair(a: BoundedKey, b: BoundedKey) -> tuple[BoundedKey, BoundedKey]:
    return (a, b) if a <= b else (b, a)


def ranges_of(payloads):
    return st.tuples(keys_of(payloads), keys_of(payloads)).map(
        lambda ab: KeyRange(*ordered_pair(*ab))
    )


any_range = families.flatmap(ranges_of)
range_and_key = families.flatmap(lambda p: st.tuples(ranges_of(p), keys_of(p)))


class TestKeyOrderProperties:
    @given(same_family(2, of=lambda p: p))
    def test_order_agrees_with_payload_order(self, ab):
        a, b = ab
        assert (wrap(a) < wrap(b)) == (a < b)
        assert (wrap(a) == wrap(b)) == (a == b)

    @given(same_family(2))
    def test_order_is_lexicographic_rank_then_payload(self, ab):
        a, b = ab
        equal = a.rank == b.rank and a.payload == b.payload
        assert (a < b) == reference_lt(a, b)
        assert (a > b) == reference_lt(b, a)
        assert (a <= b) == (reference_lt(a, b) or equal)
        assert (a >= b) == (reference_lt(b, a) or equal)
        assert (a == b) == equal

    @given(families.flatmap(lambda p: st.lists(keys_of(p), max_size=12)))
    def test_sorting_matches_rank_then_payload(self, keys):
        expected = sorted(keys, key=lambda k: (int(k.rank), k.payload))
        assert sorted(keys) == expected
        assert sorted(keys + [HIGH, LOW])[0] is LOW
        assert sorted(keys + [HIGH, LOW])[-1] is HIGH

    @given(any_key)
    def test_sentinels_bound_everything(self, k):
        assert LOW <= k <= HIGH

    @given(same_family(2))
    def test_total_order_trichotomy(self, ab):
        a, b = ab
        assert (a < b) + (b < a) + (a == b) == 1

    @given(same_family(3))
    def test_transitivity(self, abc):
        a, b, c = abc
        if a <= b and b <= c:
            assert a <= c

    @given(any_payload)
    def test_wrap_unwrap_roundtrip(self, p):
        assert unwrap(wrap(p)) == p
        assert wrap(p).payload == p and wrap(p).rank is _Sentinel.NORMAL


class TestKeyHashProperties:
    @given(same_family(2))
    def test_equal_keys_hash_equal(self, ab):
        a, b = ab
        if a == b:
            assert hash(a) == hash(b)

    @given(any_payload)
    def test_hash_is_the_rank_payload_tuple_hash(self, p):
        # Pins dict and set iteration order to what it was when the key
        # was a dataclass hashing ``(rank, payload)``.
        assert hash(wrap(p)) == hash((_Sentinel.NORMAL, p))

    def test_sentinel_hashes(self):
        assert hash(LOW) == hash((_Sentinel.LOW, None))
        assert hash(HIGH) == hash((_Sentinel.HIGH, None))

    @given(any_payload)
    def test_key_differs_from_its_payload(self, p):
        assert wrap(p) != p
        assert p != wrap(p)

    @given(any_payload)
    def test_key_equals_plain_rank_payload_tuple(self, p):
        # Documented behaviour of a tuple-based key (see keys.py): no
        # container may mix keys with raw tuples.
        assert wrap(p) == (_Sentinel.NORMAL, p)
        assert LOW == (_Sentinel.LOW, None) and HIGH == (_Sentinel.HIGH, None)


def _same_key(copied, original):
    assert type(copied) is BoundedKey
    assert copied == original and hash(copied) == hash(original)
    assert copied.is_low == original.is_low
    assert copied.is_high == original.is_high
    assert copied.rank is original.rank
    assert repr(copied) == repr(original)


class TestKeyCopyProperties:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @given(k=any_key)
    def test_pickle_roundtrip(self, protocol, k):
        _same_key(pickle.loads(pickle.dumps(k, protocol)), k)

    @given(any_key)
    def test_copy_and_deepcopy(self, k):
        _same_key(copy.copy(k), k)
        _same_key(copy.deepcopy(k), k)


class TestIncomparablePayloads:
    @given(integers, texts)
    def test_int_against_text_raises(self, i, t):
        with pytest.raises(TypeError):
            wrap(i) < wrap(t)
        with pytest.raises(TypeError):
            sorted([wrap(t), wrap(i)])
        assert wrap(i) != wrap(t)

    @given(pairs, st.one_of(texts, integers))
    def test_tuple_against_scalar_raises(self, p, q):
        with pytest.raises(TypeError):
            wrap(p) <= wrap(q)

    @given(any_payload)
    def test_sentinels_compare_with_any_family(self, p):
        assert LOW < wrap(p) < HIGH


class TestRangeProperties:
    @given(same_family(2, of=ranges_of))
    def test_intersects_symmetric(self, rr):
        r1, r2 = rr
        assert r1.intersects(r2) == r2.intersects(r1)

    @given(any_range)
    def test_range_intersects_itself(self, r):
        assert r.intersects(r)

    @given(same_family(2, of=ranges_of))
    def test_intersection_witness(self, rr):
        """If two ranges intersect, a common key exists (and vice versa)."""
        r1, r2 = rr
        lo = max(r1.low, r2.low)
        hi = min(r1.high, r2.high)
        assert r1.intersects(r2) == (lo <= hi)
        if r1.intersects(r2):
            assert r1.contains(lo) and r2.contains(lo)

    @given(same_family(2, of=ranges_of))
    def test_covers_implies_intersects(self, rr):
        r1, r2 = rr
        if r1.covers(r2):
            assert r1.intersects(r2)

    @given(same_family(2, of=ranges_of))
    def test_hull_covers_both(self, rr):
        r1, r2 = rr
        h = r1.union_hull(r2)
        assert h.covers(r1) and h.covers(r2)

    @given(range_and_key)
    def test_contains_strictly_implies_contains(self, rk):
        r, k = rk
        if r.contains_strictly(k):
            assert r.contains(k)

    @given(any_key)
    def test_point_range_contains_only_its_key(self, k):
        r = KeyRange.point(k)
        assert r.contains(k)
        assert not r.contains_strictly(k)

    @given(any_range)
    def test_full_range_covers_all(self, r):
        assert KeyRange.full().covers(r)
