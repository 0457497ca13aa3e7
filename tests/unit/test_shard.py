"""Unit tests for shard maps, the ClusterSpec shim, scoped metrics, and
the sharded directory's routing/wave mechanics."""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.errors import (
    ConfigurationError,
    KeyNotPresentError,
    ReproError,
)
from repro.core.quorum import StickyQuorumPolicy
from repro.net.network import Network, uniform_latency
from repro.obs.metrics import MetricsRegistry
from repro.shard import (
    HashShardMap,
    RangeShardMap,
    ShardMap,
    ShardedDirectory,
    VersionedShardMap,
    resolve_shard_map,
)

# -- shard maps -----------------------------------------------------------------


class TestRangeShardMap:
    def test_routing_by_boundaries(self):
        m = RangeShardMap([0.25, 0.5, 0.75])
        assert m.shards == 4
        assert m.shard_of(0.0) == 0
        assert m.shard_of(0.24) == 0
        assert m.shard_of(0.25) == 1  # boundary belongs to the right range
        assert m.shard_of(0.5) == 2
        assert m.shard_of(0.99) == 3

    def test_uniform_split_covers_evenly(self):
        m = RangeShardMap.uniform(8)
        counts = [0] * 8
        rng = random.Random(0)
        for _ in range(8000):
            counts[m.shard_of(rng.random())] += 1
        assert m.shards == 8
        assert min(counts) > 800  # each ~1000, uniform keys

    def test_single_shard_owns_everything(self):
        m = RangeShardMap.uniform(1)
        assert m.shards == 1
        assert m.shard_of(0.0) == m.shard_of(0.999) == 0

    def test_boundaries_must_increase(self):
        with pytest.raises(ConfigurationError):
            RangeShardMap([0.5, 0.5])
        with pytest.raises(ConfigurationError):
            RangeShardMap([0.7, 0.2])

    def test_duplicate_boundary_names_the_offender(self):
        with pytest.raises(
            ConfigurationError,
            match=r"duplicate range boundary 'm' at positions 1 and 2",
        ):
            RangeShardMap(["f", "m", "m", "t"])

    def test_empty_string_boundary_rejected(self):
        with pytest.raises(
            ConfigurationError, match=r"boundary 1 is the empty string"
        ):
            RangeShardMap(["a", ""])

    def test_non_increasing_message_names_both_boundaries(self):
        with pytest.raises(
            ConfigurationError,
            match=r"boundary 'b' at position 1 does not sort above 'q'",
        ):
            RangeShardMap(["q", "b"])

    def test_uniform_validation(self):
        with pytest.raises(ConfigurationError):
            RangeShardMap.uniform(0)
        with pytest.raises(ConfigurationError):
            RangeShardMap.uniform(4, low=1.0, high=1.0)

    def test_is_a_shard_map(self):
        assert isinstance(RangeShardMap.uniform(2), ShardMap)


class TestHashShardMap:
    def test_stable_across_instances(self):
        a, b = HashShardMap(8), HashShardMap(8)
        keys = [random.Random(1).random() for _ in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_in_range_and_spread(self):
        m = HashShardMap(8)
        rng = random.Random(2)
        counts = [0] * 8
        for _ in range(8000):
            counts[m.shard_of(rng.random())] += 1
        assert all(0 <= m.shard_of(rng.random()) < 8 for _ in range(100))
        assert min(counts) > 800

    def test_spreads_skewed_keys_where_range_does_not(self):
        # Keys concentrated near 0.0: a range split piles onto shard 0,
        # the hash split stays balanced.  This asymmetry is the reason
        # HashShardMap exists.
        rng = random.Random(3)
        keys = [rng.random() ** 4 for _ in range(4000)]
        range_counts = [0] * 8
        hash_counts = [0] * 8
        rmap, hmap = RangeShardMap.uniform(8), HashShardMap(8)
        for k in keys:
            range_counts[rmap.shard_of(k)] += 1
            hash_counts[hmap.shard_of(k)] += 1
        assert max(range_counts) > 2 * max(hash_counts)
        assert min(hash_counts) > 300

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HashShardMap(0)

    def test_is_a_shard_map(self):
        assert isinstance(HashShardMap(2), ShardMap)

    def test_describe_names_bucket_count(self):
        # ``hash[n]`` is the documented literal form; reports and BENCH
        # documents key on it.
        assert HashShardMap(8).describe() == "hash[8]"
        assert HashShardMap(1).describe() == "hash[1]"


class TestVersionedShardMap:
    def test_wrap_starts_at_epoch_zero_and_routes_identically(self):
        base = RangeShardMap(["g", "p"])
        v = VersionedShardMap.wrap(base)
        assert v.epoch == 0
        assert v.delta is None
        assert v.describe() == base.describe()
        for key in ["a", "g", "h", "p", "z"]:
            assert v.shard_of(key) == base.shard_of(key)
        assert isinstance(v, ShardMap)

    def test_wrap_is_idempotent(self):
        v = VersionedShardMap.wrap(RangeShardMap(["m"]))
        assert VersionedShardMap.wrap(v) is v

    def test_split_bumps_epoch_and_names_the_moved_range(self):
        v = VersionedShardMap.wrap(RangeShardMap(["g", "p"]))
        succ = v.split("c")
        assert succ.epoch == 1
        assert succ.shards == v.shards + 1
        delta = succ.delta
        assert delta.kind == "split"
        assert delta.source == 0
        assert delta.target == v.shards  # default: a brand-new shard
        assert (delta.low, delta.high) == ("c", "g")
        # Only keys inside the delta's range change owner.
        assert succ.shard_of("a") == 0
        assert succ.shard_of("c") == delta.target
        assert succ.shard_of("f") == delta.target
        assert succ.shard_of("g") == v.shard_of("g")
        assert v.epoch == 0  # the predecessor is immutable

    def test_split_of_last_range_has_open_high_end(self):
        succ = VersionedShardMap.wrap(RangeShardMap(["g"])).split("t")
        assert succ.delta.source == 1
        assert (succ.delta.low, succ.delta.high) == ("t", None)
        assert succ.delta.covers("zzz")
        assert not succ.delta.covers("s")

    def test_split_to_existing_target_shard(self):
        v = VersionedShardMap.wrap(RangeShardMap(["g", "p"]))
        succ = v.split("c", target=2)
        assert succ.shards == v.shards  # no new shard
        assert succ.shard_of("d") == 2

    def test_split_rejects_existing_boundary_and_bad_target(self):
        v = VersionedShardMap.wrap(RangeShardMap(["g", "p"]))
        with pytest.raises(ConfigurationError):
            v.split("g")
        with pytest.raises(ConfigurationError):
            v.split("c", target=7)
        with pytest.raises(ConfigurationError):
            v.split("c", target=0)  # target == source moves nothing

    def test_merge_bumps_epoch_and_reassigns_range(self):
        v = VersionedShardMap.wrap(RangeShardMap(["g", "p"]))
        succ = v.merge(1)
        assert succ.epoch == 1
        delta = succ.delta
        assert delta.kind == "merge"
        assert (delta.source, delta.target) == (2, 1)
        assert (delta.low, delta.high) == ("p", None)
        assert succ.shard_of("z") == 1

    def test_merge_rejects_out_of_range_and_same_owner(self):
        v = VersionedShardMap.wrap(RangeShardMap(["g", "p"]))
        with pytest.raises(ConfigurationError):
            v.merge(2)
        # A merge whose two sides already share an owner would copy a
        # range onto itself and then drain-delete it — data loss.
        same = VersionedShardMap(boundaries=["m"], owners=[0, 0], shards=1)
        with pytest.raises(ConfigurationError):
            same.merge(0)
        folded = v.merge(1).merge(0)
        assert folded.epoch == 2
        assert folded.shard_of("z") == 0

    def test_epochs_chain_through_repeated_splits(self):
        v = VersionedShardMap.wrap(RangeShardMap.uniform(2))
        a = v.split(0.25)
        b = a.split(0.75)
        assert (v.epoch, a.epoch, b.epoch) == (0, 1, 2)
        assert "e2" in b.describe()
        assert b.shards == 4

    def test_delegate_maps_split_is_rejected(self):
        v = VersionedShardMap.wrap(HashShardMap(4))
        assert v.epoch == 0
        assert v.shard_of("k") == HashShardMap(4).shard_of("k")
        with pytest.raises(ConfigurationError):
            v.split("m")

    def test_ranges_tile_the_key_space(self):
        succ = VersionedShardMap.wrap(RangeShardMap(["g", "p"])).split("c")
        ranges = succ.ranges()
        assert ranges[0][0] is None and ranges[-1][1] is None
        for (_, high, _), (low, _, _) in zip(ranges, ranges[1:]):
            assert high == low


class TestResolveShardMap:
    def test_names(self):
        assert isinstance(resolve_shard_map("range", 4), RangeShardMap)
        assert isinstance(resolve_shard_map("hash", 4), HashShardMap)
        assert resolve_shard_map("range", None).shards == 4  # default

    def test_instance_passthrough_and_mismatch(self):
        m = HashShardMap(8)
        assert resolve_shard_map(m, 8) is m
        assert resolve_shard_map(m, None) is m
        with pytest.raises(ConfigurationError):
            resolve_shard_map(m, 4)

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            resolve_shard_map("modulo", 4)


# -- ClusterSpec and the keyword shim ------------------------------------------


class TestClusterSpec:
    def test_spec_plus_keywords_rejected(self):
        # Options live on the spec; create() takes no keywords at all.
        with pytest.raises(TypeError):
            DirectoryCluster.create(ClusterSpec(), seed=1)
        with pytest.raises(TypeError):
            DirectoryCluster.create("3-2-2", seed=1)

    def test_network_and_latency_conflict(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(network=Network(), latency=uniform_latency(2.0))

    def test_for_shard_offsets_seed_and_prefixes_nodes(self):
        net = Network()
        spec = ClusterSpec(seed=10)
        shard2 = spec.for_shard(2, net, net.metrics.scoped("shard2"))
        assert shard2.seed == 12
        assert shard2.network is None
        assert shard2.transport.network is net
        assert shard2.node_for_rep("A") == "s2:node-A"
        assert shard2.latency is None

    def test_for_shard_keeps_unseeded_unseeded(self):
        net = Network()
        spec = ClusterSpec(seed=None)
        assert spec.for_shard(1, net, net.metrics.scoped("shard1")).seed is None

    def test_for_shard_rejects_policy_instance(self):
        net = Network()
        spec = ClusterSpec(quorum_policy=StickyQuorumPolicy())
        with pytest.raises(ConfigurationError, match="factory"):
            spec.for_shard(0, net, net.metrics.scoped("shard0"))

    def test_for_shard_calls_policy_factory(self):
        net = Network()
        spec = ClusterSpec(quorum_policy=StickyQuorumPolicy)
        stamped = spec.for_shard(0, net, net.metrics.scoped("shard0"))
        assert isinstance(stamped.quorum_policy, StickyQuorumPolicy)


# -- scoped metrics -------------------------------------------------------------


class TestScopedMetrics:
    def test_prefixes_and_strips(self):
        root = MetricsRegistry()
        scope = root.scoped("shard0")
        scope.counter("ops").inc()
        scope.gauge("depth", lambda: 3)
        scope.provider("table", lambda: {"a": 1})
        root_snap = root.snapshot()
        assert root_snap["shard0.ops"] == 1
        assert root_snap["shard0.depth"] == 3
        assert root_snap["shard0.table"] == {"a": 1}
        assert scope.snapshot() == {"ops": 1, "depth": 3, "table": {"a": 1}}

    def test_scopes_do_not_share_counters(self):
        root = MetricsRegistry()
        root.scoped("shard0").counter("ops").inc()
        root.scoped("shard1").counter("ops").inc()
        root.scoped("shard1").counter("ops").inc()
        snap = root.snapshot()
        assert snap["shard0.ops"] == 1
        assert snap["shard1.ops"] == 2

    def test_nested_scopes(self):
        root = MetricsRegistry()
        root.scoped("a").scoped("b").counter("x").inc()
        assert root.snapshot()["a.b.x"] == 1

    def test_bad_prefix(self):
        root = MetricsRegistry()
        with pytest.raises(ValueError):
            root.scoped("")
        with pytest.raises(ValueError):
            root.scoped("a..b")


# -- the sharded directory ------------------------------------------------------


class TestShardedDirectory:
    def test_routes_and_counts(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=4)
        keys = [0.1, 0.3, 0.6, 0.9]
        for k in keys:
            sd.insert(k, k)
        assert sd.routed == [1, 1, 1, 1]
        assert sd.last_routed_shard == 3
        sd.lookup(0.1)
        assert sd.routed == [2, 1, 1, 1]
        assert sd.last_routed_shard == 0
        snap = sd.metrics.snapshot()
        assert snap["shard.count"] == 4
        assert snap["shard.routed"] == {"s0": 2, "s1": 1, "s2": 1, "s3": 1}

    def test_size_sums_shards(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=3)
        for i in range(9):
            sd.insert(i / 9 + 0.01, i)
        assert sd.size() == 9

    def test_shared_network_and_disjoint_nodes(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=2)
        node_ids = {n.node_id for n in sd.network.nodes()}
        assert "s0:node-A" in node_ids and "s1:node-A" in node_ids
        assert all(c.network is sd.network for c in sd.clusters)

    def test_representatives_merged_by_shard(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=2)
        names = set(sd.representatives)
        assert {"s0/A", "s0/B", "s0/C", "s1/A", "s1/B", "s1/C"} == names

    def test_op_counts_aggregate_across_shards(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=4)
        for k in (0.1, 0.3, 0.6, 0.9):
            sd.insert(k, k)
            sd.lookup(k)
        assert sd.op_counts.inserts == 4
        assert sd.op_counts.lookups == 4

    def test_wave_pays_max_not_sum(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=2)
        clock = sd.network.clock

        # Serial baseline: same ops one after another.
        serial = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=2)
        t0 = serial.network.clock.now()
        serial.insert(0.1, "a")
        one_op = serial.network.clock.now() - t0
        serial.insert(0.9, "b")
        serial_ticks = serial.network.clock.now() - t0

        t0 = clock.now()
        outcomes = sd.execute_wave([("insert", 0.1, "a"), ("insert", 0.9, "b")])
        wave_ticks = clock.now() - t0

        assert all(o.ok for o in outcomes)
        assert serial_ticks == pytest.approx(2 * one_op)
        # The two inserts hit different shards, so the wave costs the
        # slower one, not the sum.
        assert wave_ticks == pytest.approx(one_op)
        assert sd.authoritative_state() == serial.authoritative_state()

    def test_wave_same_shard_stays_sequential(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=2)
        clock = sd.network.clock
        t0 = clock.now()
        sd.insert(0.05, "warm")
        one_op = clock.now() - t0
        t0 = clock.now()
        outcomes = sd.execute_wave(
            [("insert", 0.1, "a"), ("insert", 0.2, "b")]  # both shard 0
        )
        assert all(o.ok for o in outcomes)
        assert clock.now() - t0 >= 2 * one_op * 0.9

    def test_wave_captures_errors_without_aborting(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=2)
        outcomes = sd.execute_wave(
            [("delete", 0.1), ("insert", 0.9, "b"), ("lookup", 0.9)]
        )
        assert isinstance(outcomes[0].error, KeyNotPresentError)
        assert outcomes[1].ok
        assert outcomes[2].ok and outcomes[2].value == (True, "b")
        # Results come back in input order with shard attribution.
        assert [o.kind for o in outcomes] == ["delete", "insert", "lookup"]
        assert outcomes[1].shard == 1

    def test_wave_unknown_kind(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=1)
        with pytest.raises(ValueError):
            sd.execute_wave([("upsert", 0.1, "x")])

    def test_mismatched_map_and_clusters_rejected(self):
        net = Network()
        spec = ClusterSpec(seed=0)
        clusters = [
            DirectoryCluster.create(
                spec.for_shard(i, net, net.metrics.scoped(f"shard{i}"))
            )
            for i in range(2)
        ]
        with pytest.raises(ConfigurationError):
            ShardedDirectory(RangeShardMap.uniform(3), clusters, net)

    def test_foreign_network_rejected(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=2)
        with pytest.raises(ConfigurationError):
            ShardedDirectory(
                RangeShardMap.uniform(2), sd.clusters, Network()
            )

    def test_spec_plus_keywords_rejected(self):
        with pytest.raises(TypeError):
            ShardedDirectory.create(ClusterSpec(), shards=2, seed=1)

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            ShardedDirectory.create("3-2-2", shards=2, seed=1)

    def test_errors_propagate_unwrapped(self):
        sd = ShardedDirectory.create(ClusterSpec(config="3-2-2", seed=0), shards=2)
        with pytest.raises(ReproError):
            sd.delete(0.5)
