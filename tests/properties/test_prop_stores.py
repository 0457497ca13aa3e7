"""Stateful property tests: the three stores against a reference model.

The model is a plain sorted dict of key -> (version, value) plus a gap
map derived lazily; instead of modelling gaps independently we assert the
*differential* property — SortedStore, BTreeStore and SkipListStore
always agree exactly — plus structural invariants and a handful of model
facts (presence, values, neighbor keys) that are easy to state
independently.

Rules draw a small integer and map it through :meth:`StorePair.payload`;
:class:`StringStorePair` maps it to the wire's key shape instead
(``c<conn>k<n>``), whose text order differs from integer order.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.keys import HIGH, LOW, wrap
from repro.storage.btree import BTreeStore
from repro.storage.skiplist import SkipListStore
from repro.storage.sorted_store import SortedStore

key_payloads = st.integers(min_value=0, max_value=60)


class StorePair(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sorted_store = SortedStore()
        self.btree = BTreeStore(order=4)
        self.skiplist = SkipListStore(seed=1)
        self.model: dict[object, tuple[int, str]] = {}
        self.counter = 0

    @staticmethod
    def payload(n: int) -> object:
        """The key payload rule draw ``n`` stands for."""
        return n

    def _next_version(self) -> int:
        self.counter += 1
        return self.counter

    @property
    def all_stores(self):
        return (self.sorted_store, self.btree, self.skiplist)

    @rule(k=key_payloads)
    def insert(self, k):
        k = self.payload(k)
        version = self._next_version()
        results = {
            s.insert(wrap(k), version, f"v{version}") for s in self.all_stores
        }
        assert len(results) == 1
        self.model[k] = (version, f"v{version}")

    @rule(k=key_payloads)
    def lookup(self, k):
        k = self.payload(k)
        replies = {s.lookup(wrap(k)) for s in self.all_stores}
        assert len(replies) == 1
        r1 = self.sorted_store.lookup(wrap(k))
        if k in self.model:
            assert r1.present
            assert (r1.version, r1.value) == self.model[k]
        else:
            assert not r1.present

    @rule(k=key_payloads)
    def neighbors(self, k):
        k = self.payload(k)
        preds = {s.predecessor(wrap(k)) for s in self.all_stores}
        succs = {s.successor(wrap(k)) for s in self.all_stores}
        assert len(preds) == 1 and len(succs) == 1
        below = [m for m in self.model if m < k]
        expected_pred = wrap(max(below)) if below else LOW
        assert self.sorted_store.predecessor(wrap(k)).key == expected_pred

    @rule(a=key_payloads, b=key_payloads)
    def coalesce(self, a, b):
        a, b = self.payload(a), self.payload(b)
        lo, hi = (a, b) if a < b else (b, a)
        low_key = wrap(lo) if lo in self.model else LOW
        high_key = wrap(hi) if hi in self.model and hi != lo else HIGH
        if not low_key < high_key:
            return
        version = self._next_version()
        results = {
            s.coalesce(low_key, high_key, version) for s in self.all_stores
        }
        assert len(results) == 1
        for m in list(self.model):
            if low_key < wrap(m) < high_key:
                del self.model[m]

    @rule(k=key_payloads)
    def remove(self, k):
        k = self.payload(k)
        if k not in self.model:
            return
        version = self._next_version()
        results = {
            s.remove_entry(wrap(k), version) for s in self.all_stores
        }
        assert len(results) == 1
        del self.model[k]

    @rule()
    def snapshot_roundtrip(self):
        snap = self.btree.snapshot()
        fresh = BTreeStore(order=4)
        fresh.restore(snap)
        assert fresh.snapshot() == snap

    @rule(k=key_payloads)
    def snapshot_lookup(self, k):
        k = self.payload(k)
        # A snapshot answers DirRepLookup as the store it was taken from
        # does, for stored keys and for points inside gaps alike.
        for s in self.all_stores:
            assert s.snapshot().lookup(wrap(k)) == s.lookup(wrap(k))

    @invariant()
    def stores_identical(self):
        reference = self.sorted_store.snapshot()
        assert self.btree.snapshot() == reference
        assert self.skiplist.snapshot() == reference

    @invariant()
    def model_membership_matches(self):
        store_keys = {e.key.payload for e in self.sorted_store.user_entries()}
        assert store_keys == set(self.model)

    @invariant()
    def structures_valid(self):
        for s in self.all_stores:
            s.check_invariants()


class StringStorePair(StorePair):
    """The same machine on served-style string keys."""

    @staticmethod
    def payload(n: int) -> object:
        return f"c{n % 3}k{n}"


# Two fifths of the profile's example budget: 40 runs of 40 steps by default.
_settings = settings(
    max_examples=settings().max_examples * 2 // 5,
    stateful_step_count=40,
    deadline=None,
)
StorePairTest = StorePair.TestCase
StorePairTest.settings = _settings
StringStorePairTest = StringStorePair.TestCase
StringStorePairTest.settings = _settings
