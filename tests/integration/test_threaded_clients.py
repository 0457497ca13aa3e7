"""Integration tests: real concurrent transactions against the cluster.

The paper's concurrency claim, executed rather than simulated: multiple
threads run genuine suite operations simultaneously; range locks abort
conflicting transactions (retried by the harness); and afterwards the
directory must be exactly the union of what the clients committed.

Every case runs on both transports.  On the simulated one the client
threads call the representatives directly; on ``transport="asyncio"``
they do too since co-located replicas left the loopback sockets — the
loop thread no longer serializes a node's calls, each representative's
latch does, and these are the tests that hold it to that.  (The asyncio
classes subclass the simulated ones rather than parametrize them, so
the simulated cases keep the names they have always had.)
"""

import sys

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.sim.threads import ThreadedClients


class _OnTransport:
    transport = None  # the simulated network

    @pytest.fixture
    def make_cluster(self):
        made = []

        def make(**spec):
            cluster = DirectoryCluster.create(
                ClusterSpec(config="3-2-2", transport=self.transport, **spec)
            )
            made.append(cluster)
            return cluster

        yield make
        for cluster in made:
            cluster.close()


class TestPartitionedClients(_OnTransport):
    """Each client owns a key interval: exact final-state checking."""

    def test_final_state_equals_union_of_models(self, make_cluster):
        cluster = make_cluster(seed=5, locking=True)
        harness = ThreadedClients(
            cluster, n_clients=4, ops_per_client=60, seed=6
        )
        result = harness.run()
        result.raise_errors()
        assert result.committed == 4 * 60
        assert all(r.semantic_rejections == 0 for r in result.reports)
        assert cluster.suite.authoritative_state() == result.merged_model()
        cluster.check_invariants()

    def test_lock_tables_drain(self, make_cluster):
        cluster = make_cluster(seed=7, locking=True)
        ThreadedClients(cluster, n_clients=3, ops_per_client=40, seed=8).run()
        for rep in cluster.representatives.values():
            assert rep.locks.is_idle()

    def test_cross_partition_lock_traffic_occurs(self, make_cluster):
        # Deletes read-lock across gap boundaries into neighbors'
        # territory, so some conflicts are expected even with disjoint
        # ownership (this is what makes the test non-trivial).
        cluster = make_cluster(seed=9, locking=True)
        result = ThreadedClients(
            cluster, n_clients=6, ops_per_client=80, seed=10
        ).run()
        result.raise_errors()
        assert cluster.suite.authoritative_state() == result.merged_model()
        # Not asserted > 0 (scheduling-dependent), but record it happens
        # in practice more often than never across the suite of runs.

    def test_btree_store_under_concurrency(self, make_cluster):
        cluster = make_cluster(store="btree", seed=11, locking=True)
        result = ThreadedClients(
            cluster, n_clients=4, ops_per_client=50, seed=12
        ).run()
        result.raise_errors()
        assert cluster.suite.authoritative_state() == result.merged_model()
        cluster.check_invariants()


class TestContendedClients(_OnTransport):
    """All clients share one key space: rejections are legitimate."""

    def test_shared_keyspace_stays_coherent(self, make_cluster):
        cluster = make_cluster(seed=13, locking=True)
        result = ThreadedClients(
            cluster,
            n_clients=4,
            ops_per_client=60,
            key_partitions=False,
            seed=14,
        ).run()
        result.raise_errors()
        cluster.check_invariants()
        for rep in cluster.representatives.values():
            assert rep.locks.is_idle()
        # Every present key's value was committed by some client.
        state = cluster.suite.authoritative_state()
        committed_values = set()
        for report in result.reports:
            committed_values.update(report.model.values())
        # (Values may also have been overwritten by clients whose model
        # later dropped them; presence in *some* model is not required,
        # but the structural coherence above plus clean lock drain is.)
        assert all(isinstance(k, float) for k in state)


class TestHarnessValidation:
    def test_requires_locking(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=15, locking=False))
        with pytest.raises(ValueError):
            ThreadedClients(cluster)


class _Asyncio:
    transport = "asyncio"

    @pytest.fixture(autouse=True)
    def _preempt_often(self):
        # Switch threads ~500x more often than the default 5 ms, so a
        # latch that failed to cover a call would be caught mid-mutation.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)


class TestPartitionedClientsAsyncio(_Asyncio, TestPartitionedClients):
    pass


class TestContendedClientsAsyncio(_Asyncio, TestContendedClients):
    pass
