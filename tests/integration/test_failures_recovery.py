"""Integration tests for crashes, recovery, and partitions.

The availability contract: operations succeed whenever enough votes are
reachable and raise QuorumUnavailableError otherwise; crashed
representatives recover their committed state from the write-ahead log;
no partial effects ever become visible.
"""

import random

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    QuorumUnavailableError,
    TransactionAbortedError,
    TransactionError,
)
from repro.core.keys import wrap
from repro.core.quorum import PreferredQuorumPolicy
from repro.core.suite import DirectorySuite
from repro.net.failures import RandomFailures
from repro.obs.metrics import MetricsRegistry
from repro.txn.ids import TxnIdGenerator
from repro.txn.manager import TransactionManager


class TestSingleCrash:
    def test_322_survives_one_crash(self, cluster322):
        suite = cluster322.suite
        suite.insert("k", 1)
        cluster322.crash("A")
        # R = W = 2 out of the remaining {B, C}: everything still works.
        assert suite.lookup("k") == (True, 1)
        suite.update("k", 2)
        suite.insert("j", 3)
        suite.delete("j")
        assert suite.lookup("k") == (True, 2)

    def test_322_two_crashes_block_operations(self, cluster322):
        suite = cluster322.suite
        suite.insert("k", 1)
        cluster322.crash("A")
        cluster322.crash("B")
        with pytest.raises(QuorumUnavailableError):
            suite.lookup("k")
        with pytest.raises(QuorumUnavailableError):
            suite.insert("x", 1)

    def test_recovery_restores_committed_state(self, cluster322):
        suite = cluster322.suite
        for i in range(20):
            suite.insert(i, i)
        snapshot_before = cluster322.representative("A").store.snapshot()
        cluster322.crash("A")
        cluster322.recover("A")
        assert (
            cluster322.representative("A").store.snapshot() == snapshot_before
        )

    def test_work_done_during_crash_not_lost_elsewhere(self, cluster322):
        suite = cluster322.suite
        suite.insert("k", 1)
        cluster322.crash("A")
        suite.update("k", 2)  # committed on {B, C}
        cluster322.recover("A")
        # A recovered to its old state, but the suite answer is current
        # from any quorum because {B,C} outvote A's stale version.
        for _ in range(10):
            assert suite.lookup("k") == (True, 2)


class TestPartitions:
    def test_partitioned_minority_unavailable(self, cluster322):
        suite = cluster322.suite
        suite.insert("k", 1)
        # A alone on one side; client with the B/C majority.
        cluster322.network.partition(["node-A"], ["node-B", "node-C", "client"])
        # Suite still works through B and C.
        assert suite.lookup("k") == (True, 1)
        suite.update("k", 2)

    def test_client_cut_off_from_majority(self, cluster322):
        suite = cluster322.suite
        suite.insert("k", 1)
        cluster322.network.partition(["node-A", "client"], ["node-B", "node-C"])
        with pytest.raises(QuorumUnavailableError):
            suite.lookup("k")
        cluster322.network.heal()
        assert suite.lookup("k") == (True, 1)


class TestAtomicity:
    def test_no_partial_insert_visible_after_mid_operation_crash(self):
        """Crash a representative mid-delete: the 2PC must abort and the
        suite must look untouched."""
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=13))
        suite = cluster.suite
        for key in ("a", "b", "c"):
            suite.insert(key, key)
        state_before = suite.authoritative_state()

        # Sabotage: crash node-B the moment rep B performs a coalesce.
        rep_b = cluster.representative("B")
        original = rep_b.rep_coalesce

        def crash_during_coalesce(*args, **kwargs):
            result = original(*args, **kwargs)
            cluster.network.node("node-B").crash()
            return result

        rep_b.rep_coalesce = crash_during_coalesce
        failed = 0
        for key in ("a", "b", "c"):
            try:
                suite.delete(key)
            except (NetworkError, TransactionError):
                failed += 1
                break  # B crashed mid-delete
        if failed:
            cluster.recover("B")
            rep_b.rep_coalesce = original
            # The failed delete left no trace: state unchanged.
            assert suite.authoritative_state() == state_before
            cluster.check_invariants()

    def test_prepare_refuses_after_crash_mid_transaction(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=14))
        suite = cluster.suite
        suite.insert("x", 1)
        # Crash + instant recovery of a representative between a rep-level
        # operation and the commit: its later incarnation must abort it.
        rep_names = list(cluster.representatives)
        target = rep_names[0]

        original_insert = cluster.representative(target).rep_insert
        state = {"armed": True}

        def insert_then_bounce(*args, **kwargs):
            result = original_insert(*args, **kwargs)
            if state["armed"]:
                state["armed"] = False
                cluster.crash(target)
                cluster.recover(target)
            return result

        cluster.representative(target).rep_insert = insert_then_bounce
        before = suite.authoritative_state()
        outcome_error = None
        try:
            suite.insert("y", 2)
        except (NetworkError, TransactionError) as exc:
            outcome_error = exc
        cluster.representative(target).rep_insert = original_insert
        if outcome_error is not None:
            # Aborted cleanly: y must not exist anywhere current.
            assert suite.authoritative_state() == before
        else:
            # The bounced representative was not in the write quorum.
            assert suite.lookup("y") == (True, 2)

    def test_a_restart_between_an_updates_rounds_aborts_it(self):
        """Client 1's ``update`` reads {A, B}; B restarts, losing the
        RepLookup lock it held on ``k``; client 2 — another suite over
        the same replicas, with its own endpoint and transaction
        manager — updates ``k`` on {C, B} and is acknowledged; then
        client 1 installs on {B, C}.  Both read version 1, so were
        client 1 to commit, both updates would be acknowledged at
        version 2 and client 2's would be silently gone.  B's reply to
        the install comes from a later incarnation than the one client
        1 enlisted, so client 1 aborts and ``"two"`` stands."""
        cluster = DirectoryCluster.create(
            ClusterSpec(
                config="3-2-2", seed=15,
                quorum_policy=PreferredQuorumPolicy(["A", "B", "C"]),
            )
        )
        with cluster:
            cluster.suite.insert("k", "zero")
            manager = TransactionManager(cluster.network.endpoint("client-2"))
            # Its own ids, clear of client 1's.
            manager._ids = TxnIdGenerator(1_000)
            client2 = DirectorySuite(
                cluster.suite.config,
                cluster.suite.placements,
                cluster.network,
                manager.rpc,
                manager,
                quorum_policy=PreferredQuorumPolicy(["C", "B", "A"]),
                metrics=MetricsRegistry(),
            )

            class _ThenBC(PreferredQuorumPolicy):
                def select(self, kind, available, config, rng):
                    if kind == "read":
                        return ["A", "B"]
                    cluster.crash("B")
                    cluster.recover("B")
                    client2.update("k", "two")
                    return ["B", "C"]

            cluster.suite.quorum_policy = _ThenBC(["A", "B", "C"])
            with pytest.raises(TransactionAbortedError):
                cluster.suite.update("k", "one")
            cluster.suite.quorum_policy = PreferredQuorumPolicy(["B", "C", "A"])
            assert cluster.suite.lookup("k") == (True, "two")
            for name in "BC":
                reply = cluster.representative(name).store.lookup(wrap("k"))
                assert (reply.version, reply.value) == (2, "two"), name
            cluster.check_invariants()


class TestChurnWithRandomFailures:
    def test_workload_under_churn_stays_consistent(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=15))
        suite = cluster.suite
        injector = RandomFailures(
            cluster.network,
            crash_prob=0.02,
            recover_prob=0.3,
            rng=random.Random(42),
        )
        model = {}
        rng = random.Random(43)
        failed_ops = 0
        for i in range(600):
            injector.step()
            k = rng.randint(0, 30)
            try:
                if k in model and rng.random() < 0.5:
                    suite.delete(k)
                    del model[k]
                elif k not in model:
                    suite.insert(k, i)
                    model[k] = i
                else:
                    suite.update(k, i)
                    model[k] = i
            except (NetworkError, TransactionError):
                failed_ops += 1
        # Recover everyone and compare against the model.
        for name in cluster.representatives:
            cluster.recover(name)
        assert suite.authoritative_state() == model
        cluster.check_invariants()
        # Lookups agree with the model for every key in range.
        for k in range(31):
            present, value = suite.lookup(k)
            assert present == (k in model)
            if present:
                assert value == model[k]
