"""Integration tests: online replica join, anti-entropy, driver knobs.

The full lifecycle stack against real clusters: a wiped replica rejoins
a live suite while writes keep flowing, the cutover audit proves the
joiner byte-identical, background sweeps kill ghosts without client
reads, and the simulation driver / asyncio service expose the same
machinery through their knobs.
"""

import random

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.repl import AntiEntropySweeper, ReplicaJoin, ReplicaState, wipe_replica
from repro.sim.driver import SimulationSpec, run_simulation


def _cluster(config="5-3-3", seed=13):
    cluster = DirectoryCluster.create(ClusterSpec(config=config, seed=seed))
    for i in range(30):
        cluster.suite.insert(f"k{i:03d}", i)
    return cluster


class TestOnlineJoin:
    def test_wiped_replica_rejoins_while_writes_flow(self):
        cluster = _cluster()
        suite = cluster.suite
        victim = "E"
        cluster.crash(victim)
        wipe_replica(cluster, victim)
        for i in range(30, 60):  # writes the victim misses entirely
            suite.insert(f"k{i:03d}", i)
        join = ReplicaJoin(cluster, victim)
        join.start()
        assert suite.membership.state(victim) is ReplicaState.JOINING
        # Interleave join steps with live writes: the join must absorb
        # them (directly, via the widened write quorums) and still cut
        # over.
        i = 60
        for _ in range(200):
            suite.insert(f"k{i:03d}", i)
            i += 1
            if join.step():
                break
        assert join.done
        assert suite.membership.all_up
        # The cutover oracle: at this instant, no op lost or doubled.
        report = cluster.make_auditor().audit_join(victim)
        assert report.checks > 0
        assert report.ok, report.render()
        assert suite.authoritative_state() == {
            f"k{j:03d}": j for j in range(i)
        }
        cluster.check_invariants()

    def test_crashed_not_wiped_replica_is_shipped_only_what_changed(self):
        # A replica that kept its log restarts holding the store it
        # crashed with, so the snapshot phase owes it the writes it
        # missed — not the store.
        cluster = _cluster()
        suite = cluster.suite
        AntiEntropySweeper(cluster).sweep_all(rounds=2)  # E holds all 30
        cluster.crash("E")
        missed = 4
        for i in range(30, 30 + missed - 1):
            suite.insert(f"k{i:03d}", i)
        suite.update("k007", "rewritten")
        join = ReplicaJoin(cluster, "E")
        join.start()
        stats = cluster.network.stats
        stats.reset()
        join.step()  # the snapshot phase, whole
        assert join.phase == "catchup"
        assert stats.by_method == {
            "dir:E.rep_export_snapshot": 1,
            "dir:A.rep_export_snapshot": 1,
            "dir:E.rep_reconcile": 1,
        }
        # One item per export; the rest is what the reconcile carried:
        # as much of the missed writes as this donor's quorums gave it.
        assert 1 <= stats.payload_items - 2 <= missed
        join.run()
        report = cluster.make_auditor().audit_join("E")
        assert report.ok, report.render()

    def test_joining_replica_receives_writes_but_casts_no_votes(self):
        cluster = _cluster(config="3-2-2")
        suite = cluster.suite
        suite.membership.set_state("B", ReplicaState.JOINING)
        # No read vote: quorum selection screens B out entirely.
        assert "B" not in suite._eligible()
        # ... but every write still lands on it (non-voting recipient).
        suite.insert("fresh", 99)
        from repro.core.keys import wrap

        assert cluster.representative("B").contains(wrap("fresh"))
        assert suite.lookup("fresh") == (True, 99)

    def test_join_survives_donor_crash(self):
        cluster = _cluster()
        suite = cluster.suite
        cluster.crash("E")
        wipe_replica(cluster, "E")
        join = ReplicaJoin(cluster, "E")
        join.start()
        join.step()  # snapshot pulled: a donor is now chosen
        donor = join.donor
        assert donor is not None
        cluster.crash(donor)  # kill it mid-catch-up
        for _ in range(50):
            if join.step():
                break
        assert join.done
        report = cluster.make_auditor().audit_join("E")
        assert report.ok, report.render()
        cluster.recover(donor)

    def test_fresh_join_requires_idle_machine(self):
        cluster = _cluster(config="3-2-2")
        join = ReplicaJoin(cluster, "C")
        join.start()
        with pytest.raises(RuntimeError):
            join.start()

    def test_unknown_replica_rejected(self):
        cluster = _cluster(config="3-2-2")
        with pytest.raises(ValueError):
            ReplicaJoin(cluster, "Z")


class TestAntiEntropy:
    def test_ghosts_converge_to_zero_without_client_reads(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="5-3-3", seed=2))
        suite = cluster.suite
        sweeper = AntiEntropySweeper(cluster)
        for i in range(12):
            suite.insert(f"g{i:02d}", "doomed")
        sweeper.sweep_all(rounds=2)  # spread entries to all five replicas
        for i in range(12):
            suite.delete(f"g{i:02d}")  # gap lands on a 3-replica quorum
        assert cluster.make_auditor().run().ghosts > 0
        rounds = 0
        while cluster.make_auditor().run().ghosts:
            sweeper.sweep_all(rounds=1)
            rounds += 1
            assert rounds <= 5, "anti-entropy failed to converge"
        # Convergence came from replica-to-replica sweeps alone; all
        # replicas now agree byte for byte.
        digests = {
            rep.rep_tiling_digest()
            for rep in cluster.representatives.values()
        }
        assert len(digests) == 1
        report = cluster.make_auditor().run()
        assert report.ghosts == 0 and report.ok
        cluster.check_invariants()

    def test_sweep_skips_down_replicas(self):
        cluster = _cluster(config="3-2-2")
        cluster.crash("C")
        sweeper = AntiEntropySweeper(cluster)
        sweeper.sweep_all(rounds=1)  # must not raise
        snap = cluster.metrics.snapshot()
        assert snap.get("repl.antientropy.sweeps", 0) > 0
        cluster.recover("C")

    def test_sweeps_are_idempotent_once_converged(self):
        cluster = _cluster(config="3-2-2")
        sweeper = AntiEntropySweeper(cluster)
        sweeper.sweep_all(rounds=2)
        before = {
            name: rep.rep_tiling_digest()
            for name, rep in cluster.representatives.items()
        }
        repairs_before = cluster.metrics.snapshot().get(
            "repl.reconcile.repairs", 0
        )
        sweeper.sweep_all(rounds=2)
        after = {
            name: rep.rep_tiling_digest()
            for name, rep in cluster.representatives.items()
        }
        assert before == after
        assert (
            cluster.metrics.snapshot().get("repl.reconcile.repairs", 0)
            == repairs_before
        )


class TestDriverKnobs:
    def _spec(self, **overrides):
        base = dict(
            config="5-3-3",
            directory_size=60,
            operations=900,
            seed=17,
            loss=0.03,
            retries=3,
            verify_model=True,
            audit=True,
            crash_at=200,
            rejoin_at=450,
            wipe=True,
            antientropy_every=40,
        )
        base.update(overrides)
        return SimulationSpec(**base)

    def test_crash_wipe_rejoin_run_is_clean(self):
        result = run_simulation(self._spec())
        assert result.failed_operations == 0
        assert result.model_mismatches == 0
        assert result.rejoin_completed_at >= 450
        assert result.join_audit is not None
        assert result.join_audit["violations"] == 0
        assert result.audit_report.ok
        assert result.metrics.get("repl.joins", 0) == 1
        assert result.metrics.get("repl.antientropy.sweeps", 0) > 0

    def test_named_replica_is_the_one_cycled(self):
        result = run_simulation(self._spec(rejoin_replica="B"))
        assert result.failed_operations == 0
        assert result.rejoin_completed_at >= 450
        assert result.join_audit["violations"] == 0

    def test_unknown_replica_rejected(self):
        with pytest.raises(ValueError):
            run_simulation(self._spec(rejoin_replica="Z", operations=10))

    def test_lifecycle_knobs_reject_sharding(self):
        with pytest.raises(ValueError):
            run_simulation(self._spec(shards=2))


class TestServiceRejoinVerb:
    def test_rejoin_verb_over_real_sockets(self):
        from repro.service.client import DirectoryClient
        from repro.service.server import DirectoryService
        from repro.shard.sharded import ShardedDirectory

        spec = ClusterSpec(config="3-2-2", seed=4, transport="asyncio")
        with ShardedDirectory.create(spec, shards=2, shard_map="hash") as d:
            with DirectoryService(d).start() as service:
                with DirectoryClient(port=service.port) as client:
                    rng = random.Random(0)
                    for i in range(40):
                        client.set(f"k{i}", str(rng.randint(0, 999)))
                    cluster = d.clusters[1]
                    victim = sorted(cluster.representatives)[-1]
                    cluster.crash(victim)
                    wipe_replica(cluster, victim)
                    for i in range(40, 80):
                        client.set(f"k{i}", str(i))
                    assert client.rejoin(victim, shard=1) == "UP"
                    assert cluster.suite.membership.all_up
                    for i in range(40, 80):
                        assert client.get(f"k{i}") == str(i)

    def test_join_converges_when_the_serve_log_bound_truncates_under_it(self):
        """``repro serve`` bounds every replica's log, so a donor can
        checkpoint past a joiner's watermark; the join must notice
        (``rep_wal_since`` refuses) and start over from a snapshot.

        Over the ``REJOIN`` verb client writes do land between a join's
        steps, but when is up to the event loop; the join is stepped by
        hand here, with the writes placed between."""
        from repro.cli import SERVE_LOG_BOUND
        from repro.shard.sharded import ShardedDirectory
        from repro.storage.snapshot import LogSizeBound

        spec = ClusterSpec(
            config="3-2-2", seed=4, transport="asyncio", fanout="parallel",
            checkpoint_policy=LogSizeBound(SERVE_LOG_BOUND),
        )
        with ShardedDirectory.create(spec, shards=1, shard_map="hash") as d:
            cluster = d.clusters[0]
            suite = cluster.suite
            model = {f"k{i}": str(i) for i in range(40)}
            for key, value in model.items():
                suite.insert(key, value)
            victim = "C"
            cluster.crash(victim)
            wipe_replica(cluster, victim)
            join = ReplicaJoin(cluster, victim)
            join.step()  # snapshot pulled, donor and watermark chosen
            assert join.phase == "catchup"
            donor_log = cluster.representative(join.donor).wal
            writes = 0
            while donor_log.oldest_lsn <= join.watermark + 1:
                key = f"k{writes % 40}"
                model[key] = f"w{writes}"
                suite.update(key, model[key])
                writes += 1
                assert writes < 4 * SERVE_LOG_BOUND, "donor never checkpointed"
            join.step()
            assert (join.phase, join.donor) == ("snapshot", None)  # fell back
            join.run()
            assert suite.membership.all_up
            report = cluster.make_auditor().audit_join(victim)
            assert report.ok, report.render()
            assert suite.authoritative_state() == model

    def test_rejoin_verb_rejects_unknown_targets(self):
        from repro.service.client import DirectoryClient
        from repro.service.server import DirectoryService
        from repro.shard.sharded import ShardedDirectory

        spec = ClusterSpec(config="3-2-2", seed=4, transport="asyncio")
        with ShardedDirectory.create(spec, shards=1, shard_map="hash") as d:
            with DirectoryService(d).start() as service:
                with DirectoryClient(port=service.port) as client:
                    with pytest.raises(Exception) as exc:
                        client.rejoin("nope")
                    assert "unknown replica" in str(exc.value)
                    with pytest.raises(Exception) as exc:
                        client.rejoin("A", shard=7)
                    assert "no shard" in str(exc.value)
