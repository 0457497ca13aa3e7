"""End-to-end coverage of live resharding through the service.

Boots the real asyncio front door over a sharded directory and drives a
split through it: the ``SHARDMAP`` / ``RESHARD`` verbs, ``@epoch=``
reply stamping, the ``-MOVED`` redirect a stale client chases, and the
wire-compatibility promise that epoch-unaware clients never notice any
of it.  The front door only mounts on the asyncio transport, so the
socket tests run there; the same stale-epoch redirect contract over the
*simulated* substrate is exercised directly against the directory (the
server's dispatch gate is a one-line call into it) plus the wire codec
that would carry the error.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading

import pytest

from repro.cluster import ClusterSpec
from repro.core.errors import StaleEpochError
from repro.service import protocol, wire
from repro.service.client import DirectoryClient
from repro.service.server import DirectoryService
from repro.shard.maps import RangeShardMap
from repro.shard.sharded import ShardedDirectory


@pytest.fixture()
def service():
    spec = ClusterSpec(config="3-2-2", seed=13, transport="asyncio")
    with ShardedDirectory.create(
        spec, shards=2, shard_map=RangeShardMap(["m"])
    ) as d:
        with DirectoryService(d).start() as svc:
            yield svc


def load(client, n=16):
    for i in range(n):
        client.set(f"key{i:02d}", f"v{i}")


class TestShardMapVerb:
    def test_shardmap_shape_and_caching(self, service):
        with DirectoryClient(service.host, service.port) as c:
            info = c.shardmap()
            assert info["epoch"] == 0
            assert info["shards"] == 2
            assert info["kind"] == "range"
            assert info["boundaries"] == ["m"]
            assert info["owners"] == [0, 1]
            assert c.shardmap() is info  # cached until the epoch moves


class TestLiveSplitThroughTheService:
    def test_reshard_split_verb_migrates_and_bumps_epoch(self, service):
        with DirectoryClient(service.host, service.port) as c:
            load(c)
            result = c.reshard("key08")
            assert result["done"] is True
            assert result["epoch"] == 1
            assert result["kind"] == "split"
            assert result["violations"] == 0
            assert result["moved"] == 8  # key08..key15
            assert c.epoch == 1
            assert c.shardmap(refresh=True)["shards"] == 3
            status = c.reshard_status()
            assert status == {"epoch": 1, "active": False, "migrations": 1}
            for i in range(16):
                assert c.get(f"key{i:02d}") == f"v{i}"
            assert service.directory.shard_for("key09") == 2

    def test_stale_client_chases_moved_and_succeeds(self, service):
        with DirectoryClient(service.host, service.port) as fresh:
            load(fresh)
            stale = DirectoryClient(service.host, service.port)
            assert stale.get("key09") == "v9"  # caches epoch 0
            assert stale.epoch == 0
            fresh.reshard("key08")
            stale.set("key09", "rewritten")  # -MOVED, refresh, retry
            assert stale.redirects == 1
            assert stale.epoch == 1
            assert fresh.get("key09") == "rewritten"
            # Reads on unmoved keys never redirected.
            assert stale.get("key01") == "v1"
            assert stale.redirects == 1
            stale.close()

    def test_moved_redirect_is_not_a_front_error(self, service):
        with DirectoryClient(service.host, service.port) as fresh:
            load(fresh)
            stale = DirectoryClient(service.host, service.port)
            stale.get("key09")
            fresh.reshard("key08")
            stale.set("key09", "x")
            assert stale.redirects == 1
            assert fresh.metrics().get("service.front.errors", 0) == 0
            stale.close()

    def test_epoch_unaware_client_works_across_a_split(self, service):
        # The pre-epoch client, as raw frames on one connection held
        # open across the split: it stamps nothing, so it must see no
        # -MOVED and no @epoch= — the old reply bytes, unchanged.
        with DirectoryClient(service.host, service.port) as c:
            load(c)
            with socket.create_connection(
                (service.host, service.port), timeout=10
            ) as sock:
                stream = sock.makefile("rb")
                sock.sendall(protocol.encode_command("GET", "key09"))
                assert protocol.read_frame_sync(stream) == "v9"
                c.reshard("key08")  # key09 now lives on a new shard
                sock.sendall(
                    protocol.encode_command("SET", "key09", "old-write")
                )
                assert stream.readline() == b"+OK\r\n"
                sock.sendall(protocol.encode_command("LOOKUP", "key09"))
                assert protocol.read_frame_sync(stream) == ["1", "old-write"]
            assert c.get("key09") == "old-write"

    def test_stats_carry_epoch_and_reshard_state(self, service):
        with DirectoryClient(service.host, service.port) as c:
            load(c)
            assert c.stats()["epoch"] == 0
            c.reshard("key08")
            stats = c.stats()
            assert stats["epoch"] == 1
            assert stats["reshard"]["migrations"] == 1
            assert stats["reshard"]["active"] is False
            assert set(stats["per_shard"]) == {"s0", "s1", "s2"}


class TestRoutingAtExecution:
    """An op is routed in the callback that executes it.

    Were the owner looked up when the op is *queued*, a cutover landing
    between queueing and the drain would leave the op running on the
    shard that no longer owns its key: a ``SET`` there is orphaned (or
    deleted by DRAIN), a ``GET`` after DRAIN answers absent.  Played out
    on the loop, where the order of callbacks is the order they were
    scheduled in, so nothing here depends on timing.
    """

    def test_ops_queued_before_a_cutover_run_on_the_new_owner(self, service):
        d = service.directory
        with DirectoryClient(service.host, service.port) as c:
            load(c)
        assert d.shard_for("key09") == d.shard_for("key12") == 0

        async def split_between_queueing_and_the_drain():
            write = asyncio.ensure_future(
                service._dispatch(["SET", "key09", "late-write"])
            )
            read = asyncio.ensure_future(service._dispatch(["GET", "key12"]))
            # One turn: both ops take their first step and queue; the
            # drain they scheduled sits behind this task's next turn.
            await asyncio.sleep(0)
            queued = [item.key for item in service._pending]
            resharder = d.begin_split("key08")
            while not resharder.done:
                resharder.step()  # COPY ... CUTOVER, DRAIN: all before the drain
            return queued, await write, await read

        queued, wrote, got = service.transport.submit(
            split_between_queueing_and_the_drain()
        )
        assert queued == ["key09", "key12"]  # the split did overtake them
        assert d.epoch == 1 and d.shard_for("key09") == 2
        assert (wrote, got) == (b"+OK\r\n", b"$3\r\nv12\r\n")
        new_owner = d.clusters[2].suite.authoritative_state()
        old_owner = d.clusters[0].suite.authoritative_state()
        assert new_owner["key09"] == "late-write"
        assert "key09" not in old_owner and "key12" not in old_owner
        auditor = d.make_auditor()
        auditor.run()
        auditor.audit_reshard()
        assert auditor.report.violations == []
        with DirectoryClient(service.host, service.port) as c:
            assert c.get("key09") == "late-write"


class TestSplitIntoABusyShard:
    """Pipelined writers into a split's target while the split lands.

    A split aimed at an *existing* shard copies into, and heals, the
    replicas its target's clients are writing through.  Each phase step
    and each drain is one loop callback, so the two interleave between
    steps and never inside one; what this holds, black-box, is that the
    interleaving loses nothing: every writer's last value survives, the
    moved range arrives whole, and no lock is left behind.
    """

    WRITERS = 2
    BURST = 16

    def test_pipelined_writers_on_the_target_while_a_split_lands(self):
        spec = ClusterSpec(
            config="3-2-2", seed=21, transport="asyncio", fanout="parallel"
        )
        with ShardedDirectory.create(
            spec, shards=2, shard_map=RangeShardMap(["m"])
        ) as d, DirectoryService(d).start() as svc:
            moved = {f"g{i:02d}": f"v{i}" for i in range(32)}
            with DirectoryClient(svc.host, svc.port) as c:
                with c.pipeline() as p:
                    for key, value in moved.items():
                        p.set(key, value)
                    p.set("a-stays", "put")

            models = [{} for _ in range(self.WRITERS)]
            failures: list = []
            writing = [threading.Event() for _ in range(self.WRITERS)]
            stop = threading.Event()

            def writer(w: int) -> None:
                # Keys >= "m": shard 1 (the split's target) before,
                # during and after.  SETs and GETs take point locks
                # only, so nothing here can collide with the moved
                # range's locks.
                try:
                    with DirectoryClient(svc.host, svc.port) as client:
                        for burst in range(400):
                            with client.pipeline() as p:
                                slots = []
                                for i in range(self.BURST):
                                    key = f"w{w}k{(burst * 7 + i) % 48:02d}"
                                    value = f"{burst}.{i}"
                                    slots.append(p.set(key, value))
                                    models[w][key] = value
                            failures.extend(
                                s.error for s in slots if s.error is not None
                            )
                            writing[w].set()
                            if stop.is_set():
                                return
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)
                finally:
                    writing[w].set()

            async def split_onto_shard_1():
                # What RESHARD SPLIT does, with the one argument the
                # verb cannot carry: an existing target.
                resharder = await svc._admin_on_shard(0, d.begin_split, "g", 1)
                while not resharder.done:
                    await svc._admin_on_shard(0, resharder.step)

            threads = [
                threading.Thread(target=writer, args=(w,))
                for w in range(self.WRITERS)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                for thread in threads:
                    thread.start()
                for event in writing:
                    assert event.wait(timeout=30)
                svc.transport.submit(split_onto_shard_1())
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
            finally:
                stop.set()
                sys.setswitchinterval(interval)

            assert failures == []
            record = d.reshard_log[-1]
            assert (record.source, record.target) == (0, 1)
            assert record.moved == len(moved) and record.violations == []
            auditor = d.make_auditor()
            auditor.run()
            auditor.audit_reshard()
            assert auditor.report.violations == []
            expected = {"a-stays": "put", **moved}
            for model in models:
                expected.update(model)
            assert d.authoritative_state() == expected
            assert d.shard_for("g00") == 1 and d.shard_for("a-stays") == 0
            for cluster in d.clusters:
                cluster.check_invariants()
                for rep in cluster.representatives.values():
                    assert rep.locks.is_idle()


class TestEpochWireFormat:
    def _raw(self, service, payload: bytes) -> bytes:
        with socket.create_connection(
            (service.host, service.port), timeout=10
        ) as sock:
            sock.sendall(payload)
            return sock.makefile("rb").readline()

    def test_replies_stamped_only_when_requested(self, service):
        stamped = self._raw(
            service, protocol.encode_command("SET", "wk", "v", "@epoch=0")
        )
        assert stamped == b"+OK @epoch=0\r\n"
        plain = self._raw(service, protocol.encode_command("SET", "wk", "v"))
        assert plain == b"+OK\r\n"

    def test_future_epoch_is_stale_too(self, service):
        # An epoch the server never issued cannot be validated against
        # history, so it redirects the client to resynchronize.
        reply = self._raw(
            service, protocol.encode_command("GET", "wk", "@epoch=9")
        )
        assert reply.startswith(b"-MOVED 0")

    def test_malformed_epoch_metadata_is_dropped(self, service):
        reply = self._raw(
            service,
            protocol.encode_command("SET", "wk", "v", "@epoch=notanumber"),
        )
        assert reply == b"+OK\r\n"


class TestRedirectContractOnSimTransport:
    """The stale-epoch redirect over the simulated substrate.

    The asyncio front door cannot mount on :class:`SimTransport`, so
    here the client's side of the dance is played directly: a cached
    epoch-0 map keeps working for unmoved keys, misroutes a moved key
    (the server's ``require_epoch`` gate answers ``-MOVED``), and a
    refresh of the map resolves it — the identical protocol the socket
    tests drive end to end above.
    """

    def test_stale_epoch_redirect_and_refresh(self):
        spec = ClusterSpec(config="3-2-2", seed=13)  # simulated network
        with ShardedDirectory.create(
            spec, shards=2, shard_map=RangeShardMap(["m"])
        ) as d:
            for i in range(16):
                d.insert(f"key{i:02d}", f"v{i}")
            stale_epoch = d.epoch  # the "client's" cached map
            d.begin_split("key08").run()

            d.require_epoch("key01", stale_epoch)  # unmoved: no redirect
            with pytest.raises(StaleEpochError) as excinfo:
                d.require_epoch("key09", stale_epoch)  # moved: redirect
            # The error names the epoch to refresh to — the -MOVED
            # payload — and the retried request at that epoch succeeds.
            assert excinfo.value.epoch == 1
            d.require_epoch("key09", excinfo.value.epoch)
            assert d.lookup("key09") == (True, "v9")

    def test_stale_epoch_error_survives_the_wire_codec(self):
        # The internal RPC surface carries typed errors; a redirect must
        # arrive as a StaleEpochError with its epoch intact, not as an
        # anonymous RemoteError.
        err = wire.decode_error(wire.encode_error(StaleEpochError(3, "k")))
        assert isinstance(err, StaleEpochError)
        assert err.epoch == 3
        assert err.key == "k"
