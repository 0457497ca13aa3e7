"""Unit tests for the DirectoryCluster facade."""

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.config import SuiteConfig
from repro.core.quorum import StickyQuorumPolicy
from repro.storage.btree import BTreeStore
from repro.storage.sorted_store import SortedStore


class TestCreate:
    def test_from_xyz_spec(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=1))
        assert set(cluster.representatives) == {"A", "B", "C"}
        assert len(cluster.network.nodes()) == 3

    def test_from_full_config(self):
        config = SuiteConfig(
            votes={"X": 2, "Y": 1, "Z": 1}, read_quorum=2, write_quorum=3
        )
        cluster = DirectoryCluster.create(ClusterSpec(config=config, seed=1))
        assert set(cluster.representatives) == {"X", "Y", "Z"}

    def test_btree_store_selected(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", store="btree", seed=1))
        assert isinstance(cluster.representative("A").store, BTreeStore)

    def test_sorted_store_default(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=1))
        assert isinstance(cluster.representative("A").store, SortedStore)

    def test_unknown_store_rejected(self):
        with pytest.raises(ValueError):
            DirectoryCluster.create(ClusterSpec(config="3-2-2", store="rocksdb"))

    def test_custom_quorum_policy_installed(self):
        policy = StickyQuorumPolicy()
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", quorum_policy=policy, seed=1))
        assert cluster.suite.quorum_policy is policy

    def test_colocated_reps_share_node(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=1, node_for_rep=lambda rep: "shared"))
        assert len(cluster.network.nodes()) == 1
        # Crashing the one node takes every representative down.
        cluster.network.node("shared").crash()
        from repro.core.errors import QuorumUnavailableError

        with pytest.raises(QuorumUnavailableError):
            cluster.suite.lookup("x")


class TestConveniences:
    def test_crash_and_recover_by_rep_name(self, cluster322):
        cluster322.suite.insert("k", "v")
        cluster322.crash("A")
        assert not cluster322.network.node("node-A").is_up
        cluster322.recover("A")
        assert cluster322.network.node("node-A").is_up
        assert cluster322.suite.lookup("k") == (True, "v")

    def test_check_invariants_runs_all_reps(self, cluster322):
        cluster322.suite.insert("k", "v")
        cluster322.check_invariants()

    def test_end_to_end_roundtrip(self, cluster322):
        directory = cluster322.suite
        directory.insert("alice", 1)
        directory.insert("bob", 2)
        directory.update("alice", 3)
        directory.delete("bob")
        assert directory.lookup("alice") == (True, 3)
        assert directory.lookup("bob") == (False, None)

    def test_suite_close_stops_the_transport_loop_thread(self):
        cluster = DirectoryCluster.create(
            ClusterSpec(config="3-2-2", seed=1, transport="asyncio")
        )
        thread = cluster.network._thread
        cluster.suite.insert("k", "v")
        assert thread.is_alive()
        cluster.suite.close()
        assert not thread.is_alive()
