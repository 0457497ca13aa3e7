"""The simulated substrate is the Network itself, and its runs are pinned.

Every RPC the suite issues goes through the cluster's
:class:`~repro.net.network.Network`.  These tests pin it three ways:

* the three serial baselines (captured before the substrate was named
  on the spec, shared with ``tests/unit/test_fanout.py``) reproduce
  bit-for-bit through an *explicitly* requested ``transport="sim"`` —
  same message counts, same simulated latency, same final directory;
* the default (no transport named), the explicit ``"sim"`` string and a
  hand-built :class:`Network` instance all produce identical runs —
  three spellings, one substrate;
* the cluster, its suite and its endpoint hold that one network (same
  clock object, same stats object), so no test can pass by accident of a
  parallel bookkeeping copy drifting in step.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.net.network import Network
from repro.service.aio import AsyncioTransport, WallClock
from repro.sim.driver import run_simulation
from tests.unit.test_fanout import SERIAL_BASELINES


def _drive(spec, transport):
    cluster = DirectoryCluster.create(
        ClusterSpec(
            config=spec.config,
            seed=spec.seed,
            neighbor_batch_size=spec.neighbor_batch_size,
            read_repair=spec.read_repair,
            transport=transport,
        )
    )
    return run_simulation(spec, cluster=cluster), cluster


class TestPinnedBaselines:
    @pytest.mark.parametrize(
        "spec,expected",
        SERIAL_BASELINES,
        ids=["perfect", "lossy", "batched-neighbors"],
    )
    def test_sim_transport_reproduces_pre_refactor_run(self, spec, expected):
        result, _ = _drive(spec, "sim")
        for key, value in expected.items():
            if key in ("sim_ticks", "final_size"):
                assert getattr(result, key) == value, key
            else:
                assert result.traffic[key] == value, key
        assert result.failed_operations == 0
        assert result.model_mismatches == 0

    def test_three_spellings_one_substrate(self):
        spec, expected = SERIAL_BASELINES[0]
        runs = {}
        for label, transport in [
            ("default", None),
            ("named", "sim"),
            ("instance", Network()),
        ]:
            result, _ = _drive(spec, transport)
            runs[label] = (
                result.traffic["messages"],
                result.traffic["rpc_rounds"],
                result.sim_ticks,
                result.final_size,
            )
        assert runs["default"] == runs["named"] == runs["instance"]
        assert runs["default"][0] == expected["messages"]


class TestDelegation:
    def test_sim_transport_is_the_network(self):
        net = Network()
        cluster = DirectoryCluster.create(
            ClusterSpec(config="3-2-2", seed=1, transport=net)
        )
        assert cluster.network is net
        assert cluster.suite.network is net
        assert cluster.suite.clock is net.clock
        assert cluster.metrics is net.metrics
        # Liveness answers come straight from the network's node table.
        node = cluster.suite.placements["A"].node_id
        assert net.is_up(node)
        cluster.crash("A")
        assert not net.is_up(node)
        assert not net.node(node).is_up
        cluster.recover("A")
        assert net.is_up(node)

    def test_asyncio_transport_is_a_wall_clock_network(self):
        net = AsyncioTransport()
        try:
            assert isinstance(net, Network)
            assert isinstance(net.clock, WallClock)
        finally:
            net.close()

    def test_suite_clock_is_the_simulated_clock(self):
        cluster = DirectoryCluster.create(
            ClusterSpec(config="3-2-2", seed=2)
        )
        before = cluster.suite.clock.now()
        cluster.suite.insert("k", 1)
        after = cluster.suite.clock.now()
        assert after > before
        assert cluster.network.clock.now() == after
