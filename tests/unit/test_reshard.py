"""Unit tests for live resharding: the Resharder state machine, epoch
enforcement, writes made while a range is moving, abort/close
semantics, the reshard auditor, and the hot-shard controller."""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterSpec
from repro.core.errors import ConfigurationError, StaleEpochError
from repro.service.client import DirectoryClient
from repro.service.server import DirectoryService
from repro.shard import (
    RangeShardMap,
    ReshardController,
    ShardedDirectory,
    VersionedShardMap,
)


def make_directory(boundaries=("m",), seed=7, config="3-2-2"):
    return ShardedDirectory.create(
        ClusterSpec(config=config, seed=seed),
        shards=len(boundaries) + 1,
        shard_map=RangeShardMap(list(boundaries)),
    )


def seeded(directory, n=16):
    """Insert ``key00..`` and return the model dict."""
    model = {}
    for i in range(n):
        key, value = f"key{i:02d}", f"v{i}"
        directory.insert(key, value)
        model[key] = value
    return model


def assert_audits_clean(directory):
    """Replica invariants and every completed migration, no violations."""
    auditor = directory.make_auditor()
    auditor.run()
    auditor.audit_reshard()
    assert auditor.report.violations == []


class TestResharderPhases:
    def test_phases_run_in_order(self):
        with make_directory() as d:
            seeded(d)
            resharder = d.begin_split("key08")
            assert resharder.PHASES == (
                "copy", "cutover", "drain", "done", "aborted"
            )
            assert resharder.phase == "copy"
            resharder.step()
            assert resharder.phase == "cutover"
            assert d.epoch == 0  # copied, but the source still answers
            resharder.step()
            assert resharder.phase == "drain"
            assert d.epoch == 1  # the epoch installs at cutover...
            resharder.step()
            assert resharder.done
            assert d.resharder is None  # ...and drain retires the machine

    def test_drain_retried_after_lost_quorum_leaves_a_clean_record(self):
        # A drain step that cannot reach a write quorum is retried, not
        # failed: once it completes the record is clean and the audit's
        # source-side check (nothing moved is still authoritative there)
        # is what judges it.
        with make_directory() as d:
            seeded(d)
            resharder = d.begin_split("key08")
            resharder.step()
            resharder.step()
            assert resharder.phase == "drain"
            source = d.clusters[resharder.source]
            source.crash("A")
            source.crash("B")  # one of three left: below quorum
            resharder.step()
            assert resharder.phase == "drain"  # nothing drained, retrying
            source.recover("A")
            source.recover("B")
            resharder.run()
            assert d.reshard_log[-1].violations == []
            assert_audits_clean(d)

    def test_migration_moves_exactly_the_delta_range(self):
        with make_directory() as d:
            model = seeded(d)
            d.begin_split("key08").run()
            record = d.reshard_log[-1]
            assert (record.low, record.high) == ("key08", "m")
            assert record.moved == 8  # key08..key15
            assert record.violations == []
            for key, value in model.items():
                assert d.lookup(key) == (True, value)
                want = 2 if "key08" <= key < "m" else 0
                assert d.shard_for(key) == want

    def test_epoch_history_and_reshard_log(self):
        with make_directory() as d:
            seeded(d)
            d.begin_split("key08").run()
            assert sorted(d.map_history) == [0, 1]
            assert len(d.reshard_log) == 1
            assert d.reshard_status() == {
                "epoch": 1,
                "active": False,
                "migrations": 1,
            }
            assert d.metrics.snapshot()["reshard.migrations"] == 1

    def test_concurrent_reshard_rejected(self):
        with make_directory() as d:
            seeded(d)
            d.begin_split("key04")
            with pytest.raises(ConfigurationError):
                d.begin_split("key10")

    def test_deleted_keys_stay_deleted_across_migration(self):
        # The COPY phase must merge gap (deletion) versions, or a
        # deleted key's stale entry would resurrect on the target.
        with make_directory() as d:
            seeded(d)
            d.delete("key10")
            d.begin_split("key08").run()
            assert d.lookup("key10")[0] is False
            assert "key10" not in d.authoritative_state()


class TestWritesDuringMigration:
    """Writes on moving keys issued between COPY and CUTOVER.

    Nothing forwards them to the target as they happen: the cutover's
    compare-and-heal carries them over, the same way whether the caller
    is the library or a client of the front door.
    """

    def _script(self, model):
        """Seeded inserts, updates and deletes inside ``[key08, m)``:
        copied keys deleted and rewritten, new keys born and rewritten."""
        rng = random.Random(5)
        moving = sorted(k for k in model if "key08" <= k < "m")
        ops = []
        for i in range(12):
            kind = rng.choice(("insert", "update", "delete"))
            if kind == "insert":
                key, value = f"key8{i:02d}", f"born{i}"
                moving.append(key)
            else:
                key = rng.choice(moving)
                value = f"rewritten{i}" if kind == "update" else None
                if kind == "delete":
                    moving.remove(key)
            ops.append((kind, key, value))
        return ops

    def _migrate(self, d, writer, pump):
        """Seed, copy, run the script, finish; returns what was observed.

        ``writer`` takes the client writes (the directory itself, or a
        client of its front door); ``pump(fn, *args)`` runs one piece of
        migration work where this path runs it.
        """

        def apply(kind, key, value):
            args = (key,) if value is None else (key, value)
            getattr(writer, kind)(*args)

        model = {f"key{i:02d}": f"v{i}" for i in range(16)}
        for key, value in model.items():
            apply("insert", key, value)
        resharder = pump(d.begin_split, "key08")
        phases = [resharder.phase]
        pump(resharder.step)  # COPY: the target holds the seeded range
        phases.append(resharder.phase)
        for kind, key, value in self._script(model):
            apply(kind, key, value)
            if kind == "delete":
                del model[key]
            else:
                model[key] = value
        assert d.epoch == 0  # every one of them ran on the source
        while not resharder.done:
            pump(resharder.step)
            phases.append(resharder.phase)
        # After cutover the target answers them.
        target = d.clusters[resharder.target].suite.authoritative_state()
        assert target == {k: v for k, v in model.items() if "key08" <= k < "m"}
        assert resharder.moved == target
        assert d.authoritative_state() == model
        assert d.reshard_log[-1].violations == []
        assert_audits_clean(d)
        d.check_invariants()
        return phases, set(resharder.moved)

    def _library(self):
        with make_directory() as d:
            return self._migrate(d, d, lambda fn, *args: fn(*args))

    def _wire(self):
        spec = ClusterSpec(config="3-2-2", seed=7, transport="asyncio")
        with ShardedDirectory.create(
            spec, shards=2, shard_map=RangeShardMap(["m"])
        ) as d, DirectoryService(d).start() as svc, DirectoryClient(
            svc.host, svc.port
        ) as client:
            return self._migrate(
                d,
                client,
                lambda fn, *args: svc.transport.submit(
                    svc._admin_on_shard(0, fn, *args)
                ),
            )

    def test_library_writes_after_the_copy_reach_the_target(self):
        phases, moved = self._library()
        assert phases == ["copy", "cutover", "drain", "done"]
        assert {"key09", "key804"} <= moved and "key12" not in moved

    def test_wire_and_library_run_the_same_migration(self):
        assert self._wire() == self._library()

    def test_reads_stay_on_source_until_cutover(self):
        with make_directory() as d:
            seeded(d)
            resharder = d.begin_split("key08")
            resharder.step()
            assert d.epoch == 0
            assert d.shard_for("key09") == resharder.source
            d.require_epoch("key09", 0)  # a stale client is still right


class TestFinalStateOracle:
    def test_bit_identical_to_never_resharded_control(self):
        # The same operation stream against a resharded and a control
        # directory must converge to the identical authoritative state.
        ops = [("insert", f"k{i:02d}", f"v{i}") for i in range(20)]
        ops += [("update", f"k{i:02d}", f"w{i}") for i in range(0, 20, 3)]
        ops += [("delete", f"k{i:02d}", None) for i in (4, 11, 17)]

        def run(reshard_at):
            d = make_directory(boundaries=("zz",))  # everything on s0
            resharder = None
            for index, (kind, key, value) in enumerate(ops):
                if index == reshard_at:
                    resharder = d.begin_split("k10")
                if resharder is not None and not resharder.done:
                    resharder.step()
                getattr(d, kind)(*(a for a in (key, value) if a is not None))
            if resharder is not None and not resharder.done:
                resharder.run()
            state = d.authoritative_state()
            assert_audits_clean(d)
            d.close()
            return state

        assert run(reshard_at=None) == run(reshard_at=8)

    def test_audit_reshard_catches_key_left_on_source(self):
        with make_directory() as d:
            seeded(d)
            d.begin_split("key08").run()
            record = d.reshard_log[-1]
            # Sabotage: resurrect a moved key on its old owner.
            d.clusters[record.source].suite.insert("key09x", "ghost")
            auditor = d.make_auditor()
            auditor.audit_reshard()
            assert any(
                v.key == "key09x" and v.check == "reshard"
                for v in auditor.report.violations
            )


class TestAbortAndClose:
    def test_abort_mid_copy_leaves_old_epoch_authoritative(self):
        with make_directory() as d:
            model = seeded(d)
            resharder = d.begin_split("key08")
            resharder.abort()
            assert d.epoch == 0
            assert d.resharder is None
            for key, value in model.items():
                assert d.lookup(key) == (True, value)
            # A fresh attempt succeeds after the abort.
            assert d.begin_split("key08").run().record.violations == []

    def test_abort_after_cutover_rejected(self):
        with make_directory() as d:
            seeded(d)
            resharder = d.begin_split("key08")
            for _ in range(2):  # copy, cutover
                resharder.step()
            assert resharder.phase == "drain"
            with pytest.raises(ConfigurationError):
                resharder.abort()

    def test_close_mid_copy_is_idempotent_and_aborts(self):
        d = make_directory()
        seeded(d)
        resharder = d.begin_split("key08")
        d.close()
        assert resharder.phase == "aborted"
        assert d.resharder is None
        d.close()  # second close: a no-op, not an error

    def test_close_mid_drain_finishes_the_migration(self):
        d = make_directory()
        seeded(d)
        resharder = d.begin_split("key08")
        for _ in range(2):
            resharder.step()
        assert resharder.phase == "drain"
        d.close()
        assert resharder.done
        assert len(d.reshard_log) == 1

    def test_close_propagates_to_every_suite(self):
        # All suites (including one added live by a split) share one
        # transport; close() must release it exactly once, covering the
        # late-added shard too.  The asyncio transport records closure.
        d = ShardedDirectory.create(
            ClusterSpec(config="1-1-1", seed=7, transport="asyncio"),
            shards=2,
            shard_map=RangeShardMap(["m"]),
        )
        seeded(d, n=8)
        d.begin_split("key04").run()  # 3 suites after the split
        assert len(d.clusters) == 3
        d.close()
        assert d.transport._closed
        d.close()  # still idempotent with the extra shard attached


class TestEpochEnforcement:
    def test_stale_epoch_raises_only_for_moved_keys(self):
        with make_directory() as d:
            seeded(d)
            d.begin_split("key08").run()
            d.require_epoch("key01", 0)  # unmoved: the old map was right
            d.require_epoch("key09", 1)
            with pytest.raises(StaleEpochError) as excinfo:
                d.require_epoch("key09", 0)  # moved: stale map misroutes
            assert excinfo.value.epoch == 1
            with pytest.raises(StaleEpochError):
                d.require_epoch("key01", 99)  # unknown epoch: no history

    def test_install_map_requires_successor_epoch(self):
        with make_directory() as d:
            current = d.shard_map
            with pytest.raises(ConfigurationError):
                d.install_map(current.split("a").split("b"))  # skips epoch 1


class TestReshardController:
    def test_auto_splits_hot_shard_under_skew(self):
        spec = ClusterSpec(config="3-2-2", seed=11)
        with ShardedDirectory.create(
            spec, shards=4, shard_map=RangeShardMap.uniform(4)
        ) as d:
            controller = ReshardController(
                d, hot_factor=2.0, max_splits=1, window=500.0
            )
            import random

            rng = random.Random(4)
            keys = sorted({rng.random() ** 4 for _ in range(80)})
            for i, key in enumerate(keys):
                d.insert(key, i)
            for round_index in range(40):
                for key in keys[:: 7]:
                    d.lookup(key)  # skewed read pressure on shard 0
                if controller.tick() == "split":
                    break
            controller.finish()
            assert d.epoch == 1
            assert len(d.reshard_log) == 1
            assert d.reshard_log[0].source == 0
            assert_audits_clean(d)

    def test_max_splits_bounds_the_controller(self):
        spec = ClusterSpec(config="1-1-1", seed=3)
        with ShardedDirectory.create(
            spec, shards=2, shard_map=RangeShardMap.uniform(2)
        ) as d:
            controller = ReshardController(
                d, hot_factor=1.5, max_splits=0, window=500.0
            )
            for i in range(12):
                d.insert(i / 100.0, i)
            for _ in range(10):
                for i in range(12):
                    d.lookup(i / 100.0)
                assert controller.tick() is None
            assert d.epoch == 0

    def test_hot_factor_validated(self):
        with make_directory() as d:
            with pytest.raises(ConfigurationError):
                ReshardController(d, hot_factor=1.0)

    def test_single_epoch_wrap_is_free(self):
        # A never-resharded directory: plain maps wrap at epoch 0.
        with make_directory() as d:
            assert isinstance(d.shard_map, VersionedShardMap)
            assert d.epoch == 0
            assert d.resharder is None
            seeded(d, n=4)
            assert d.reshard_status() == {
                "epoch": 0,
                "active": False,
                "migrations": 0,
            }
