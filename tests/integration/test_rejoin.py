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
from repro.core.errors import NetworkError
from repro.core.keys import wrap
from repro.repl import (
    AntiEntropySweeper,
    ReplicaJoin,
    ReplicaState,
    divergent_pieces,
    wipe_replica,
)
from repro.shard import ShardMap, ShardedDirectory
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
        # crashed with, so the join owes it the writes it missed — not
        # the store.  The whole join is one step: one export per
        # replica, one reconcile per peer that holds something newer.
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
        joiner = cluster.representative("E").store.snapshot()
        shipped = {
            peer: len(
                divergent_pieces(
                    cluster.representative(peer).store.snapshot(), joiner
                )
            )
            for peer in "ABCD"
        }
        divergent = [peer for peer, n in shipped.items() if n]
        assert divergent
        assert all(n <= missed for n in shipped.values())
        stats = cluster.network.stats
        stats.reset()
        assert join.step()  # the join, whole
        assert stats.by_method == {
            **{f"dir:{rep}.rep_export_snapshot": 1 for rep in "ABCDE"},
            "dir:E.rep_reconcile": len(divergent),
        }
        # One item per export; the rest is what the reconciles carried.
        assert stats.payload_items == 5 + sum(shipped.values())
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
        assert cluster.representative("B").contains(wrap("fresh"))
        assert suite.lookup("fresh") == (True, 99)

    def test_a_wave_during_a_join_writes_the_joiner_too(self):
        """A wave draws its write quorum inside its read quorum, which a
        joining replica is never in; the joiner is still sent the wave's
        one write, deletes' coalesces included."""
        from tests.scope import tap

        cluster = _cluster(config="3-2-2")
        suite = cluster.suite
        suite.membership.set_state("B", ReplicaState.JOINING)
        log = []
        tap(cluster, log)
        outcomes = suite.execute_batch(
            [("upsert", "fresh", 99), ("delete", "k010")]
        )
        assert all(outcome.ok for outcome in outcomes)
        assert "rep_lookup_many@B" not in log
        assert log.count("rep_write_many@B") == 1
        joiner = cluster.representative("B")
        assert joiner.contains(wrap("fresh"))
        assert not joiner.contains(wrap("k010"))

    def test_join_survives_donor_crash(self):
        # Every up voting peer is a donor.  One that crashes between
        # join steps drops out of the next step, and the join finishes
        # on the rest: every write quorum of 3 among A–D holds two of
        # B, C and D.
        cluster = _cluster()
        suite = cluster.suite
        cluster.crash("E")
        wipe_replica(cluster, "E")
        join = ReplicaJoin(cluster, "E")
        join.start()
        # An in-flight transaction on A makes its export refuse.
        cluster.representative("A").rep_insert(9001, wrap("zzz"), 1, "x")
        assert not join.step()
        assert suite.membership.state("E") is ReplicaState.JOINING
        cluster.crash("A")  # the transaction dies with it
        assert join.step()
        report = cluster.make_auditor().audit_join("E")
        assert report.ok, report.render()
        assert suite.authoritative_state() == {
            f"k{j:03d}": j for j in range(30)
        }
        cluster.recover("A")
        cluster.check_invariants()

    def test_join_waits_for_a_read_quorum_of_voting_peers(self):
        # A write that committed on {A, C} before C was wiped survives
        # only on A: a join from B alone would let the read quorum
        # {B, C} miss it.
        cluster = _cluster(config="3-2-2")
        suite = cluster.suite
        cluster.crash("B")
        suite.insert("only-on-A-and-C", 1)
        cluster.crash("C")
        wipe_replica(cluster, "C")
        cluster.crash("A")
        cluster.recover("B")
        join = ReplicaJoin(cluster, "C")
        with pytest.raises(NetworkError, match="did not finish in 50 steps"):
            join.run(max_steps=50)  # B's one vote is not a read quorum
        assert not join.done
        assert suite.membership.state("C") is ReplicaState.JOINING
        cluster.crash("B")
        assert not join.step()  # no voting peer up at all
        cluster.recover("A")
        cluster.recover("B")
        assert join.step()  # A and B: one step finishes it
        assert suite.membership.all_up
        assert cluster.make_auditor().audit_join("C").ok
        assert cluster.representative("C").contains(wrap("only-on-A-and-C"))

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

    def test_wipe_without_a_crash_is_rejected(self):
        with pytest.raises(ValueError, match="needs crash_at"):
            run_simulation(self._spec(crash_at=0, rejoin_at=100))

    def test_rejoin_before_the_crash_is_rejected(self):
        with pytest.raises(ValueError, match="must come after crash_at"):
            run_simulation(self._spec(crash_at=200, rejoin_at=100))
        with pytest.raises(ValueError, match="must come after crash_at"):
            run_simulation(self._spec(crash_at=200, rejoin_at=200))

    @pytest.mark.parametrize(
        "flags",
        [
            ["--wipe", "--rejoin-at", "100"],
            ["--crash-at", "200", "--rejoin-at", "100", "--wipe"],
        ],
    )
    def test_simulate_refuses_knobs_that_do_nothing(self, flags, capsys):
        from repro.cli import main

        assert main(["simulate", "--ops", "300", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-simulate: ")
        assert "crash_at" in captured.err


class TestRejoinDuringSplit:
    """A replica of a split's source shard rejoins while the split runs:
    the join's one step lands in each of the split's phases in turn,
    with seeded client ops between every step of either machine."""

    @pytest.mark.parametrize("join_during", ["copy", "cutover", "drain"])
    def test_join_and_split_interleave_cleanly(self, join_during):
        rng = random.Random(f"rejoin-during-{join_during}")
        spec = ClusterSpec(config="3-2-2", seed=7)
        with ShardedDirectory.create(
            spec, shards=2, shard_map=ShardMap.range(["m"])
        ) as d:
            model = {}
            for i in range(16):
                d.insert(f"key{i:02d}", f"v{i}")
                model[f"key{i:02d}"] = f"v{i}"
            source = d.clusters[0]
            source.crash("C")
            wipe_replica(source, "C")

            def client_op(n):
                key = f"key{rng.randrange(24):02d}"
                if key not in model:
                    d.insert(key, f"i{n}")
                    model[key] = f"i{n}"
                elif rng.random() < 0.3:
                    d.delete(key)
                    del model[key]
                else:
                    d.update(key, f"u{n}")
                    model[key] = f"u{n}"

            client_op(0)
            resharder = d.begin_split("key08")
            join = ReplicaJoin(source, "C")
            join.start()
            join_report = None
            for n in range(1, 50):
                client_op(n)
                if not join.done and resharder.phase in (join_during, "done"):
                    assert join.step()
                    join_report = source.make_auditor().audit_join("C")
                    client_op(n)
                if not resharder.done:
                    resharder.step()
                if join.done and resharder.done:
                    break
            assert join.done and resharder.done
            assert source.suite.membership.all_up
            assert join_report.ok, join_report.render()
            record = d.reshard_log[-1]
            assert record.violations == []
            assert record.moved > 0
            auditor = d.make_auditor()
            auditor.run()
            auditor.audit_reshard()
            assert auditor.report.violations == []
            assert d.authoritative_state() == model
            for key, value in model.items():
                assert d.lookup(key) == (True, value)


class TestServiceRejoinVerb:
    def test_rejoin_verb_over_real_sockets(self):
        from repro.service.client import DirectoryClient
        from repro.service.server import DirectoryService

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
        """``repro serve`` bounds every replica's log, so the peers of a
        replica that is down checkpoint past everything they logged
        before it went.  The join reads no log, only the peers' stores,
        so ``REJOIN`` converges all the same."""
        from repro.cli import SERVE_LOG_BOUND
        from repro.service.client import DirectoryClient
        from repro.service.server import DirectoryService
        from repro.storage.snapshot import LogSizeBound

        spec = ClusterSpec(
            config="3-2-2", seed=4, transport="asyncio", fanout="parallel",
            checkpoint_policy=LogSizeBound(SERVE_LOG_BOUND),
        )
        with ShardedDirectory.create(spec, shards=1, shard_map="hash") as d:
            cluster = d.clusters[0]
            with DirectoryService(d).start() as service:
                with DirectoryClient(port=service.port) as client:
                    model = {f"k{i}": str(i) for i in range(40)}
                    for key, value in model.items():
                        client.set(key, value)
                    victim = "C"
                    cluster.crash(victim)
                    wipe_replica(cluster, victim)
                    peer_log = cluster.representative("A").wal
                    logged_before = peer_log.next_lsn - 1
                    writes = 0
                    while peer_log.records[0].lsn <= logged_before:
                        key = f"k{writes % 40}"
                        model[key] = f"w{writes}"
                        client.set(key, model[key])
                        writes += 1
                        assert writes < 4 * SERVE_LOG_BOUND, (
                            "peer never checkpointed"
                        )
                    assert client.rejoin(victim) == "UP"
                    for key, value in model.items():
                        assert client.get(key) == value
            assert cluster.suite.membership.all_up
            report = cluster.make_auditor().audit_join(victim)
            assert report.ok, report.render()
            assert cluster.suite.authoritative_state() == model

    def test_rejoin_with_no_voting_peer_up_is_unavailable(self):
        """Both peers down: the join has no one to reconcile against, so
        ``REJOIN`` answers ``-UNAVAILABLE`` once its step bound runs out,
        and the replica never votes."""
        from repro.service.client import (
            DirectoryClient,
            ServiceUnavailableError,
        )
        from repro.service.server import DirectoryService

        spec = ClusterSpec(config="3-2-2", seed=4, transport="asyncio")
        with ShardedDirectory.create(spec, shards=1, shard_map="hash") as d:
            cluster = d.clusters[0]
            membership = cluster.suite.membership
            states = []
            set_state = membership.set_state

            def record(name, state):
                states.append((name, state))
                set_state(name, state)

            membership.set_state = record
            with DirectoryService(d).start() as service:
                with DirectoryClient(port=service.port) as client:
                    client.set("k", "v")
                    cluster.crash("A")
                    cluster.crash("B")
                    with pytest.raises(
                        ServiceUnavailableError,
                        match="NetworkError: join of C did not finish",
                    ):
                        client.rejoin("C")
            assert states == [("C", ReplicaState.JOINING)]
            assert membership.state("C") is ReplicaState.JOINING

    def test_rejoin_verb_rejects_unknown_targets(self):
        from repro.service.client import DirectoryClient
        from repro.service.server import DirectoryService

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

    def test_rejoin_refusals_are_counted_front_door_errors(self):
        """The three ways a ``REJOIN`` target can be wrong answer the
        same ``-ERR`` bytes as ever, and each counts one front-door
        error, as every other ``-ERR`` reply does."""
        import asyncio

        from repro.service import protocol
        from repro.service.server import DirectoryService

        spec = ClusterSpec(config="3-2-2", seed=4)
        d = ShardedDirectory.create(spec, shards=1, shard_map="hash")
        service = DirectoryService(d)
        errors = d.network.metrics.counter("service.front.errors")
        cases = [
            (["STATS", "-1"], "usage: STATS [window]"),
            (["REJOIN", "sx/A"], "bad shard prefix 'sx' (want s<i>/replica)"),
            (["REJOIN", "s7/A"], "no shard 7"),
            (
                ["REJOIN", "nope"],
                "unknown replica 'nope' on shard 0 (have ['A', 'B', 'C'])",
            ),
        ]
        for frame, detail in cases:
            before = errors.value
            reply = asyncio.run(service._dispatch(frame))
            assert reply == protocol.encode_error("ERR", detail), frame
            assert errors.value - before == 1, frame
