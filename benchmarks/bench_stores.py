"""Microbenchmarks of every representative store in ``STORE_FACTORIES``.

Not a paper table — an engineering check that the B-tree representation
section 5 proposes, and the skip-list beside it, scale as expected
(logarithmic point operations) and that the simulation default (the
sorted-array store) is the right choice at simulation sizes.  Each
benchmark runs once per backend the cluster can be built with.
"""

import random

import pytest

from repro.cluster import STORE_FACTORIES
from repro.core.keys import wrap

SIZES = [1_000, 10_000]
STORES = pytest.mark.parametrize(
    "store_cls", list(STORE_FACTORIES.values()), ids=list(STORE_FACTORIES)
)


def loaded(store_cls, n, **kwargs):
    store = store_cls(**kwargs)
    for i in range(n):
        store.insert(wrap(i * 2), 1, i)
    return store


@pytest.mark.parametrize("size", SIZES)
@STORES
def test_lookup_performance(benchmark, store_cls, size):
    store = loaded(store_cls, size)
    rng = random.Random(1)
    probes = [wrap(rng.randrange(0, size * 2)) for _ in range(512)]

    def work():
        for probe in probes:
            store.lookup(probe)

    benchmark(work)


@STORES
def test_insert_delete_churn(benchmark, store_cls):
    rng = random.Random(2)

    def work():
        store = loaded(store_cls, 1_000)
        for i in range(500):
            k = wrap(rng.randrange(0, 4_000) * 2 + 1)  # odd: always new
            store.insert(k, 2, i)
            store.remove_entry(k, 3)

    benchmark.pedantic(work, rounds=3, iterations=1)


@STORES
def test_neighbor_scan_performance(benchmark, store_cls):
    store = loaded(store_cls, 5_000)
    rng = random.Random(3)
    probes = [wrap(rng.randrange(1, 10_000)) for _ in range(512)]

    def work():
        for probe in probes:
            store.predecessor(probe)
            store.successor(probe)

    benchmark(work)
