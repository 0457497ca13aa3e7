"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import inspect
import os
import random
import threading
import warnings

import pytest
from hypothesis import settings

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.keys import wrap
from repro.core.representative import DirectoryRepresentative
from repro.storage.btree import BTreeStore
from repro.storage.sorted_store import SortedStore

# ``HYPOTHESIS_PROFILE=ci`` selects a derandomized run with ten times the
# example budget (CI runs the key and store properties under it).  The
# profile is registered only when selected: hypothesis itself loads a
# ``ci`` profile (derandomized, default budget) whenever a CI variable
# is set, and redefining it unasked would raise every property's budget
# in the tier-1 run as well.
_PROFILE = os.environ.get("HYPOTHESIS_PROFILE")
if _PROFILE == "ci":
    settings.register_profile(
        "ci", settings.get_profile("ci"), max_examples=1000
    )
if _PROFILE:
    settings.load_profile(_PROFILE)

# When a property fails, hypothesis's pytest plugin imports
# ``hypothesis.extra._patching`` to offer an explicit-example patch, and
# that imports libcst, which warns "mypy_extensions.TypedDict is
# deprecated" on import.  Under ``-W error::DeprecationWarning`` the
# warning is raised inside the plugin's report hook, and pytest stops
# with INTERNALERROR instead of naming the failing test and its example.
# Importing the module once here, with that category ignored for the
# import alone, leaves it cached; no warning of this project is touched.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass


# One thread inside a representative at a time.  A representative takes
# no lock of its own: the serving loop is the only thread that calls a
# served one, and the baton (repro.sim.threads) lets one client thread
# run at a time.  Every public method is wrapped here, for the whole
# test session (a traced representative wraps these in turn), to note
# any call that enters a representative while another thread is inside
# it; the autouse fixture below fails the test during which that
# happened.
_INSIDE_TOGETHER: "list[str]" = []


def _one_thread_inside(method):
    @functools.wraps(method)
    def guarded(self, *args, **kwargs):
        guard = self.__dict__.get("_one_thread")
        if guard is None:
            guard = self.__dict__.setdefault(
                "_one_thread", [threading.Lock(), None]
            )
        me = threading.get_ident()
        if guard[1] == me:  # re-entered by the thread already inside
            return method(self, *args, **kwargs)
        entered = guard[0].acquire(blocking=False)
        if entered:
            guard[1] = me
        else:
            _INSIDE_TOGETHER.append(f"{self.name}.{method.__name__}")
        try:
            return method(self, *args, **kwargs)
        finally:
            if entered:
                guard[1] = None
                guard[0].release()

    return guarded


for _name, _method in list(vars(DirectoryRepresentative).items()):
    if _name.startswith("_") or not inspect.isfunction(_method):
        continue
    setattr(DirectoryRepresentative, _name, _one_thread_inside(_method))


@pytest.fixture(autouse=True)
def _one_thread_inside_a_replica():
    del _INSIDE_TOGETHER[:]
    yield
    assert not _INSIDE_TOGETHER, (
        "two threads were inside one representative at once: "
        f"{sorted(set(_INSIDE_TOGETHER))}"
    )


@pytest.fixture
def cluster322():
    """A fresh 3-2-2 cluster with deterministic quorum selection."""
    return DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=1234))


@pytest.fixture(
    params=["sorted", "btree", "skiplist"],
    ids=["sorted", "btree", "skiplist"],
)
def store(request):
    """Each concrete store implementation, fresh."""
    from repro.storage.skiplist import SkipListStore

    if request.param == "sorted":
        return SortedStore()
    if request.param == "btree":
        return BTreeStore(order=4)
    return SkipListStore()


def fill_store(store, keys, start_version=1):
    """Insert wrapped integer keys with increasing versions."""
    for i, k in enumerate(keys):
        store.insert(wrap(k), start_version + i, f"value-{k}")
    return store


def scripted_insert(cluster, rep_names, key, version, value):
    """Force an entry onto specific representatives (paper-figure setups).

    Bypasses the suite: used to construct the exact replica states the
    paper's figures show.  Runs through a throwaway transaction so locks
    and WAL stay consistent.
    """
    txn = cluster.suite.txn_manager.begin()
    for name in rep_names:
        place = cluster.suite.placements[name]
        txn.enlist(name, place.node_id, place.service_name)
        cluster.suite.rpc.call(
            place.node_id,
            place.service_name,
            "rep_insert",
            txn.txn_id,
            wrap(key),
            version,
            value,
        )
    cluster.suite.txn_manager.commit(txn)


def rng(seed=0):
    """A seeded random source (alias to keep test intent obvious)."""
    return random.Random(seed)
