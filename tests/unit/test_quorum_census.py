"""The quorum census: one network call per quorum, the same members as
asking about each replica in turn.

``DirectorySuite._available()`` asks the network once for the replicas
that are up and reachable from the suite's origin.  Every crash pattern
of a five-replica suite, and partitions that cut off replicas and the
origin itself, must give exactly what the per-replica test gives —
``Network.is_up`` and ``Network.reachable`` for each placement, in
placement order — and ``_eligible()`` must give that list's voting
members, mid-join included.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.repl.lifecycle import ReplicaState


def _per_replica(suite) -> list[str]:
    network, origin = suite.network, suite.rpc.origin
    return [
        name
        for name, place in suite.placements.items()
        if network.is_up(place.node_id)
        and network.reachable(origin, place.node_id)
    ]


@pytest.fixture
def cluster():
    return DirectoryCluster.create(ClusterSpec(config="5-3-3", seed=5))


def _nodes(cluster) -> list[str]:
    return [place.node_id for place in cluster.suite.placements.values()]


def _check(suite) -> None:
    expected = _per_replica(suite)
    assert suite._available() == expected
    membership = suite.membership
    assert suite._eligible() == [n for n in expected if membership.can_vote(n)]


class TestQuorumCensus:
    def test_every_crash_pattern(self, cluster):
        network, nodes = cluster.network, _nodes(cluster)
        assert len(nodes) == 5
        for pattern in product((True, False), repeat=len(nodes)):
            for node_id, up in zip(nodes, pattern):
                if up:
                    network.recover(node_id)
                else:
                    network.crash(node_id)
            assert cluster.suite._available() == [
                name
                for (name, _), up in zip(cluster.suite.placements.items(), pattern)
                if up
            ]
            _check(cluster.suite)

    def test_partitions_cut_off_replicas_and_the_origin(self, cluster):
        network, nodes = cluster.network, _nodes(cluster)
        suite = cluster.suite
        origin = suite.rpc.origin
        # Every two-way split of the replicas, with the origin on each
        # side, and with one replica crashed on top.
        for sides in product((0, 1), repeat=len(nodes)):
            for origin_side in (0, 1):
                groups = [[], []]
                for node_id, side in zip(nodes, sides):
                    groups[side].append(node_id)
                groups[origin_side].append(origin)
                network.partition(*groups)
                _check(suite)
                network.crash(nodes[0])
                _check(suite)
                network.recover(nodes[0])
        # The origin left out of every named group joins the implicit
        # last one, with any replica no group names.
        network.partition(nodes[:2], nodes[2:4])
        assert suite._available() == _per_replica(suite)
        assert [suite.placements[n].node_id for n in suite._available()] == [
            nodes[4]
        ]
        # A replica alone, everyone else with the origin.
        network.partition([nodes[3]])
        _check(suite)
        assert len(suite._available()) == 4
        network.heal()
        assert suite._available() == list(suite.placements)

    def test_mid_join(self, cluster):
        network, nodes = cluster.network, _nodes(cluster)
        suite = cluster.suite
        joiner = list(suite.placements)[1]
        suite.membership.set_state(joiner, ReplicaState.JOINING)
        assert not suite.membership.all_up
        _check(suite)
        assert joiner in suite._available()
        assert joiner not in suite._eligible()
        network.crash(nodes[3])
        network.partition([nodes[0]])
        _check(suite)
        assert len(suite._eligible()) == 2
        suite.membership.set_state(joiner, ReplicaState.UP)
        network.heal()
        network.recover(nodes[3])
        assert suite.membership.all_up
        assert suite._eligible() == suite._available() == list(suite.placements)
