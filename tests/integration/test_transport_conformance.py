"""One behavioural contract, two clocks.

The paper's algorithm cannot tell whether its RPCs ride the simulated
network or are direct calls timed by the wall clock: both are one
:class:`~repro.net.network.Network`, and only the clock, the links and
the loop differ.  This suite runs the same
operation/error/chaos sequences over a cluster built on each transport
and demands identical *behaviour* (answers, error types, quorum
availability) — timing, of course, differs: one substrate is a virtual
clock, the other is the wall.

The asyncio half doubles as the integration test for the service
stack: representatives are co-located and called directly, on the wall
clock, and the front-door/client pair gets its own end-to-end pass over
a real socket at the bottom.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.errors import (
    ConfigurationError,
    KeyAlreadyPresentError,
    KeyNotPresentError,
    QuorumUnavailableError,
)
from repro.core.interface import Directory
from repro.core.keys import wrap
from repro.net.network import Network, uniform_latency

TRANSPORTS = ["sim", "asyncio"]


@pytest.fixture(params=TRANSPORTS)
def cluster(request):
    with DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=9, transport=request.param)
    ) as c:
        yield c


class TestOperationContract:
    def test_crud_sequence(self, cluster):
        d = cluster.suite
        assert d.size() == 0
        assert d.lookup("a") == (False, None)
        d.insert("a", 1)
        d.insert("b", 2)
        d.insert("c", 3)
        assert d.lookup("b") == (True, 2)
        assert d.size() == 3
        d.update("b", 20)
        assert d.lookup("b") == (True, 20)
        d.delete("a")
        assert d.lookup("a") == (False, None)
        assert d.size() == 2
        # Reinsert after delete: the paper's stale-copy hard case.
        d.insert("a", 10)
        assert d.lookup("a") == (True, 10)

    def test_error_contract(self, cluster):
        d = cluster.suite
        d.insert("k", 1)
        with pytest.raises(KeyAlreadyPresentError):
            d.insert("k", 2)
        with pytest.raises(KeyNotPresentError):
            d.update("missing", 1)
        with pytest.raises(KeyNotPresentError):
            d.delete("missing")
        assert d.lookup("k") == (True, 1)

    def test_replicas_agree_after_churn(self, cluster):
        d = cluster.suite
        for i in range(12):
            d.insert(f"k{i}", i)
        for i in range(0, 12, 3):
            d.delete(f"k{i}")
        for i in range(1, 12, 3):
            d.update(f"k{i}", -i)
        expected = {}
        for i in range(12):
            if i % 3 == 0:
                continue
            expected[f"k{i}"] = -i if i % 3 == 1 else i
        assert d.authoritative_state() == expected


class TestChaosContract:
    def test_single_crash_is_masked(self, cluster):
        d = cluster.suite
        d.insert("x", 1)
        cluster.crash("B")
        d.update("x", 2)  # 2-of-3 quorum still assembles
        assert d.lookup("x") == (True, 2)
        cluster.recover("B")
        assert d.lookup("x") == (True, 2)
        assert d.authoritative_state() == {"x": 2}

    def test_quorum_loss_raises_not_corrupts(self, cluster):
        d = cluster.suite
        d.insert("x", 1)
        cluster.crash("A")
        cluster.crash("B")
        with pytest.raises(QuorumUnavailableError):
            d.update("x", 2)
        cluster.recover("A")
        cluster.recover("B")
        assert d.lookup("x") == (True, 1)
        d.update("x", 2)
        assert d.lookup("x") == (True, 2)

    def test_crashed_replica_catches_up_on_recovery(self, cluster):
        d = cluster.suite
        for i in range(6):
            d.insert(f"k{i}", i)
        cluster.crash("C")
        d.update("k0", 100)
        d.delete("k1")
        cluster.recover("C")
        # Weighted voting needs no explicit anti-entropy: the recovered
        # replica is simply outvoted until writes refresh it.
        assert d.lookup("k0") == (True, 100)
        assert d.lookup("k1") == (False, None)


class TestTransportSurface:
    def test_protocol_surface(self, cluster):
        t = cluster.network
        node = cluster.suite.placements["A"].node_id
        assert t.is_up(node)
        assert t.reachable("client", node)
        before = t.clock.now()
        cluster.suite.insert("k", 1)
        assert t.clock.now() >= before
        t.crash(node)
        assert not t.is_up(node)
        t.recover(node)
        assert t.is_up(node)
        assert t.reachable("client", node)

    def test_cluster_close_is_idempotent(self, cluster):
        cluster.suite.insert("k", 1)
        cluster.close()
        cluster.close()

    def test_suite_satisfies_directory_protocol(self, cluster):
        assert isinstance(cluster.suite, Directory)


class TestMessageCost:
    """``service.rpc.calls`` is the paper's message cost as the service
    pays it: one logical RPC, one count — exactly the rounds the
    simulated network accounts for the same seeded run.  It is read from
    the registry snapshot, as ``METRICS`` and the benchmark read it."""

    @staticmethod
    def _churn(suite):
        rng = random.Random(1)
        for i in range(300):
            key = f"k{rng.randrange(40)}"
            verb = rng.choice(["lookup", "insert", "update", "delete"])
            try:
                if verb in ("lookup", "delete"):
                    getattr(suite, verb)(key)
                else:
                    getattr(suite, verb)(key, i)
            except (KeyAlreadyPresentError, KeyNotPresentError):
                pass

    @pytest.mark.parametrize("fanout", ["serial", "parallel"])
    def test_asyncio_counts_what_the_simulator_counts(self, fanout):
        spec = ClusterSpec(config="3-2-2", seed=9, fanout=fanout)
        with DirectoryCluster.create(spec) as sim:
            self._churn(sim.suite)
            rounds = sim.network.stats.rpc_rounds
        with DirectoryCluster.create(replace(spec, transport="asyncio")) as aio:
            self._churn(aio.suite)
            calls = aio.metrics.snapshot()["service.rpc.calls"]
        assert calls == rounds > 1000


class TestByReference:
    """Neither substrate copies: a call shares its arguments and its
    result with the replica, so a replica must neither keep a caller's
    container nor hand out its own."""

    def test_mutated_containers_leave_the_replica_alone(self, cluster):
        place = cluster.suite.placements["A"]
        rep = cluster.representative("A")

        def rpc(method, *args):
            return cluster.suite.rpc.call(
                place.node_id, place.service_name, method, *args
            )

        def state():
            return rep.store.snapshot(), list(rep.wal.records)

        for name in "abcd":
            cluster.suite.insert(name, name.upper())

        rows = [(wrap("x"), 1000, "vx"), (wrap("y"), 1000, "vy")]
        rpc("rep_write_many", 9001, [], rows)
        rpc("commit", 9001)
        before = state()
        rows[0] = (wrap("x"), 2000, "overwritten by the caller")
        rows.clear()
        assert state() == before
        assert rpc("rep_lookup", 9002, wrap("x")).value == "vx"

        keys = [wrap("x"), wrap("b"), wrap("nope")]
        replies = rpc("rep_lookup_many", 9002, keys)
        kept = list(replies)
        keys.clear()
        replies.reverse()
        replies.pop()
        second = rpc(
            "rep_lookup_many", 9003, [wrap("x"), wrap("b"), wrap("nope")]
        )
        assert second == kept
        assert state() == before

        neighbors = rpc("rep_neighbors_batch", 9002, wrap("b"), "succ", 3)
        kept = list(neighbors)
        assert len(kept) == 3
        neighbors.clear()
        assert rpc("rep_neighbors_batch", 9003, wrap("b"), "succ", 3) == kept
        assert state() == before

        for txn in (9002, 9003):  # give the read locks back
            rpc("abort", txn)
        before = state()

        # A snapshot is tuples all the way down: nothing to mutate, and
        # each export is its own object.
        snapshot = rpc("rep_export_snapshot")
        assert isinstance(snapshot.entries, tuple)
        assert isinstance(snapshot.gap_versions, tuple)
        assert rpc("rep_export_snapshot") == snapshot == before[0]
        cluster.check_invariants()


class TestResolution:
    """``ClusterSpec.transport`` names the network a cluster runs on."""

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="carrier-pigeon"):
            ClusterSpec(config="3-2-2", transport="carrier-pigeon")

    def test_asyncio_rejects_simulation_options(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(config="3-2-2", transport="asyncio", latency=uniform_latency())

    def test_instance_passes_through(self):
        net = Network()
        with DirectoryCluster.create(ClusterSpec(transport=net)) as cluster:
            assert cluster.network is net
            assert cluster.suite.network is net
            assert cluster.suite.rpc.network is net


class TestRemovedNames:
    """The transport seam is gone: a :class:`Network` is the substrate."""

    def test_old_seam_is_not_importable(self):
        import repro

        with pytest.raises(ImportError):
            from repro.net.transport import SimTransport  # noqa: F401
        for name in ("SimTransport", "Transport", "resolve_transport"):
            with pytest.raises(AttributeError):
                getattr(repro, name)
            assert name not in repro.__all__

    def test_cluster_spec_has_no_network_field(self):
        with pytest.raises(TypeError):
            ClusterSpec(network=Network())


class TestServedNetwork:
    """A served directory runs on the simulator's network, so the
    network's fault surface and traffic ledger reach the served path."""

    def test_partition_heal_and_message_count(self):
        from repro.service.client import (
            DirectoryClient,
            ServiceUnavailableError,
        )
        from repro.service.server import DirectoryService
        from repro.shard.sharded import ShardedDirectory

        spec = ClusterSpec(config="3-2-2", seed=4, transport="asyncio")
        with ShardedDirectory.create(spec, shards=2, shard_map="hash") as d:
            key = next(k for k in map(str, range(99)) if d.shard_for(k) == 0)
            replicas = [
                place.node_id
                for place in d.clusters[0].suite.placements.values()
            ]
            with DirectoryService(d).start() as service:
                with DirectoryClient(port=service.port) as client:
                    client.set(key, "v")
                    d.network.partition(replicas)  # cut off from "client"
                    with pytest.raises(ServiceUnavailableError):
                        client.get(key)
                    d.network.heal()
                    assert client.get(key) == "v"
                    calls = client.metrics()["service.rpc.calls"]
                    assert calls == d.network.stats.rpc_rounds > 0


class TestServiceLoopback:
    """The front door + client library, over real sockets end to end."""

    def test_client_conformance_and_errors(self):
        from repro.service.client import DirectoryClient
        from repro.service.server import DirectoryService
        from repro.shard.sharded import ShardedDirectory

        spec = ClusterSpec(config="3-2-2", seed=4, transport="asyncio")
        with ShardedDirectory.create(spec, shards=2, shard_map="hash") as d:
            with DirectoryService(d).start() as service:
                with DirectoryClient(port=service.port) as client:
                    assert isinstance(client, Directory)
                    assert client.ping()
                    assert client.shards() == 2
                    client.insert("a", "1")
                    with pytest.raises(KeyAlreadyPresentError):
                        client.insert("a", "2")
                    with pytest.raises(KeyNotPresentError):
                        client.update("zz", "0")
                    client.update("a", "2")
                    assert client.lookup("a") == (True, "2")
                    client.set("b", "3")
                    assert client.get("b") == "3"
                    assert client.remove("b") is True
                    assert client.remove("b") is False
                    assert client.get("b") is None
                    assert client.size() == 1
                    client.delete("a")
                    assert client.size() == 0
                # close is idempotent on the client too
                client.close()
