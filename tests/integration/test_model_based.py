"""Model-based integration tests: the suite must behave like a dict.

For several configurations, stores, batch sizes, and quorum policies, a
long random operation sequence is applied both to the replicated directory
and to a plain dict; presence and values must agree at every step, and the
suite's authoritative state (highest-version verdict over all replicas)
must equal the dict at the end.
"""

import random

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.errors import KeyAlreadyPresentError, KeyNotPresentError
from repro.core.quorum import StickyQuorumPolicy
from tests.scope import assert_clean


def run_model_check(cluster, n_ops, seed, key_space=50):
    suite = cluster.suite
    model = {}
    rng = random.Random(seed)
    for i in range(n_ops):
        k = rng.randint(0, key_space)
        op = rng.random()
        if op < 0.35:
            if k in model:
                with pytest.raises(KeyAlreadyPresentError):
                    suite.insert(k, i)
            else:
                suite.insert(k, i)
                model[k] = i
        elif op < 0.55:
            if k in model:
                suite.update(k, i)
                model[k] = i
            else:
                with pytest.raises(KeyNotPresentError):
                    suite.update(k, i)
        elif op < 0.8:
            if k in model:
                suite.delete(k)
                del model[k]
            else:
                with pytest.raises(KeyNotPresentError):
                    suite.delete(k)
        else:
            present, value = suite.lookup(k)
            assert present == (k in model)
            if present:
                assert value == model[k]
    assert suite.authoritative_state() == model
    cluster.check_invariants()
    return model


@pytest.mark.parametrize(
    "spec", ["1-1-1", "2-1-2", "3-2-2", "3-1-3", "4-2-3", "5-3-3"]
)
def test_configurations_behave_like_dict(spec):
    cluster = DirectoryCluster.create(ClusterSpec(config=spec, seed=hash(spec) % 1000))
    run_model_check(cluster, n_ops=600, seed=17)


def test_weighted_votes_behave_like_dict():
    # A heavy replica carrying 3 of 5 votes: every quorum must include it.
    from repro.core.config import SuiteConfig

    config = SuiteConfig(
        votes={"big": 3, "s1": 1, "s2": 1}, read_quorum=3, write_quorum=3
    )
    cluster = DirectoryCluster.create(ClusterSpec(config=config, seed=11))
    run_model_check(cluster, n_ops=500, seed=22)
    # The big replica saw every write; the small ones may lag.
    big = cluster.representatives["big"]
    assert big.entry_count() == len(cluster.suite.authoritative_state())


def test_weighted_votes_survive_small_replica_crashes():
    from repro.core.config import SuiteConfig

    config = SuiteConfig(
        votes={"big": 3, "s1": 1, "s2": 1}, read_quorum=3, write_quorum=3
    )
    cluster = DirectoryCluster.create(ClusterSpec(config=config, seed=12))
    suite = cluster.suite
    suite.insert("k", 1)
    cluster.crash("s1")
    cluster.crash("s2")
    # The big replica alone carries any quorum.
    suite.update("k", 2)
    assert suite.lookup("k") == (True, 2)
    # But without the big one nothing works.
    cluster.recover("s1")
    cluster.recover("s2")
    cluster.crash("big")
    from repro.core.errors import QuorumUnavailableError

    with pytest.raises(QuorumUnavailableError):
        suite.lookup("k")


def test_btree_store_behaves_like_dict():
    cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", store="btree", seed=4))
    run_model_check(cluster, n_ops=800, seed=18)


def test_batched_neighbor_search_behaves_like_dict():
    cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=5, neighbor_batch_size=3))
    run_model_check(cluster, n_ops=800, seed=19)


def test_sticky_quorums_behave_like_dict():
    cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=6, quorum_policy=StickyQuorumPolicy(switch_prob=0.1)))
    run_model_check(cluster, n_ops=600, seed=20)


def test_locking_enabled_behaves_like_dict():
    # Serial transactions; every representative takes its range locks.
    cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=7))
    run_model_check(cluster, n_ops=400, seed=21)
    # Everything committed: every replica must be clean.
    assert_clean(cluster)


def test_version_numbers_never_regress():
    # For every key ever touched, the best-known version over any read
    # is non-decreasing across operations.
    cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=8))
    suite = cluster.suite
    rng = random.Random(9)
    best_seen: dict[int, int] = {}
    members = set()
    for i in range(500):
        k = rng.randint(0, 20)
        if k in members and rng.random() < 0.5:
            suite.delete(k)
            members.discard(k)
        elif k not in members:
            suite.insert(k, i)
            members.add(k)
        else:
            suite.update(k, i)
        # Probe the full-vote version for key k.
        txn = suite.txn_manager.begin()
        from repro.core.keys import wrap

        reply = suite._suite_lookup(txn, wrap(k))
        suite.txn_manager.abort(txn)
        assert reply.version >= best_seen.get(k, 0)
        best_seen[k] = reply.version
