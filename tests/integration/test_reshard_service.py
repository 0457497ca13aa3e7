"""End-to-end coverage of live resharding through the service.

Boots the real asyncio front door over a sharded directory and drives a
split through it: the ``SHARDMAP`` / ``RESHARD`` verbs, ``@epoch=``
reply stamping, the ``-MOVED`` redirect a stale client chases, and the
wire-compatibility promise that epoch-unaware clients never notice any
of it.  Only the asyncio transport owns a loop to listen on, so the
socket tests run there; the same stale-epoch redirect contract over a
*simulated* network sends frames through the front door's dispatch on
a loop of the test's own.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest

from repro.cluster import ClusterSpec
from repro.core.errors import StaleEpochError
from repro.service import protocol, wire
from repro.service import server
from repro.service.client import DirectoryClient, ServiceUnavailableError
from repro.service.server import DirectoryService
from repro.shard.maps import ShardMap
from repro.shard.sharded import ShardedDirectory


@pytest.fixture()
def service():
    spec = ClusterSpec(config="3-2-2", seed=13, transport="asyncio")
    with ShardedDirectory.create(
        spec, shards=2, shard_map=ShardMap.range(["m"])
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

        queued, wrote, got = service.network.submit(
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


class TestSplitWithoutReadQuorum:
    def test_split_is_unavailable_within_the_step_bound_then_succeeds(self):
        """One shard with two of its three replicas down cannot be read,
        so its split can never copy.  ``RESHARD SPLIT`` gives up after
        the admin step bound with ``-UNAVAILABLE`` and aborts: the epoch,
        the shard count and ``RESHARD STATUS`` are as before.  Once the
        replicas are back the same split runs to DONE."""
        spec = ClusterSpec(config="3-2-2", seed=13, transport="asyncio")
        with ShardedDirectory.create(
            spec, shards=1, shard_map=ShardMap.range([])
        ) as d:
            cluster = d.clusters[0]
            begun = []
            begin_split = d.begin_split

            def recording(*args):
                begun.append(begin_split(*args))
                return begun[-1]

            d.begin_split = recording
            with DirectoryService(d).start() as svc, DirectoryClient(
                svc.host, svc.port
            ) as c:
                load(c)
                cluster.crash("B")
                cluster.crash("C")
                errors = svc.network.metrics.counter("service.front.errors")
                before = errors.value
                with pytest.raises(
                    ServiceUnavailableError,
                    match=r"split at 'key08' did not finish in 10000 steps "
                    r"\(stuck in copy\)",
                ):
                    c.reshard("key08")
                assert errors.value - before == 1
                assert begun[0].phase == "aborted"
                assert begun[0].record.steps == server._ADMIN_MAX_STEPS
                assert c.reshard_status() == {
                    "epoch": 0, "active": False, "migrations": 0,
                }
                assert c.shards() == 1 and len(d.clusters) == 1
                cluster.recover("B")
                cluster.recover("C")
                result = c.reshard("key08")
                assert result["done"] is True and result["epoch"] == 1
                assert result["moved"] == 8 and result["violations"] == 0
                assert c.reshard_status() == {
                    "epoch": 1, "active": False, "migrations": 1,
                }
                for i in range(16):
                    assert c.get(f"key{i:02d}") == f"v{i}"
            assert d.shard_for("key09") == 1


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


class TestRedirectBudget:
    """A keyed call is a burst of one: it chases ``-MOVED`` through the
    same flush as a pipelined slot, so the two share one budget."""

    @staticmethod
    def _stub(moves):
        """A one-connection server.  ``SHARDMAP`` answers epoch 0; each
        keyed request is answered ``-MOVED 0`` ``moves`` times, then
        ``+OK``.  Returns the listener, its thread and the keyed
        requests it saw."""
        listener = socket.create_server(("127.0.0.1", 0))
        keyed = []

        def serve():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as stream:
                while True:
                    try:
                        frame = protocol.read_frame_sync(stream)
                    except ConnectionError:
                        return
                    command, _, _ = protocol.split_meta(frame)
                    if command[0] == "SHARDMAP":
                        reply = protocol.encode_bulk(json.dumps({"epoch": 0}))
                    else:
                        keyed.append(command)
                        reply = (
                            protocol.encode_error("MOVED", "0")
                            if len(keyed) <= moves
                            else protocol.encode_simple("OK")
                        )
                    conn.sendall(reply)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return listener, thread, keyed

    @staticmethod
    def _pipelined(client):
        with client.pipeline() as pipe:
            slot = pipe.set("k", "v")
        return slot.result()

    @pytest.mark.parametrize(
        "send",
        [lambda client: client.set("k", "v"), _pipelined],
        ids=["keyed", "pipelined"],
    )
    def test_three_redirects_then_served(self, send):
        listener, thread, keyed = self._stub(moves=3)
        try:
            with DirectoryClient(*listener.getsockname()) as client:
                assert send(client) is None
                assert client.redirects == 3
            thread.join(timeout=10)
        finally:
            listener.close()
        assert not thread.is_alive()
        assert keyed == [["SET", "k", "v"]] * 4


class TestRedirectContractOnSimTransport:
    """The stale-epoch redirect over a simulated network.

    A front door built over a simulated directory listens on nothing,
    but it serves whatever loop awaits its dispatch: real request frames
    go in and real reply bytes come out, on the simulated clock.  A
    cached epoch-0 map keeps working for unmoved keys, misroutes a moved
    key into ``-MOVED``, and the same request at the epoch that names is
    served — the protocol the socket tests drive end to end above.
    """

    def test_stale_epoch_redirect_and_refresh(self):
        spec = ClusterSpec(config="3-2-2", seed=13)  # simulated network
        with ShardedDirectory.create(
            spec, shards=2, shard_map=ShardMap.range(["m"])
        ) as d, DirectoryService(d) as svc:
            for i in range(16):
                d.insert(f"key{i:02d}", f"v{i}")
            d.begin_split("key08").run()

            async def send(*frame):
                return await svc._dispatch(list(frame))

            async def session():
                return [
                    await send("GET", "key01", "@epoch=0"),  # unmoved
                    await send("GET", "key09", "@epoch=0"),  # moved
                    await send("GET", "key09", "@epoch=1"),  # refreshed
                ]

            unmoved, moved, refreshed = asyncio.run(session())
            assert unmoved == b"$2\r\nv1\r\n"
            assert moved == b"-MOVED 1\r\n"
            assert refreshed == b"$2\r\nv9\r\n"
            assert d.lookup("key09") == (True, "v9")
            with pytest.raises(TypeError, match="AsyncioTransport"):
                svc.start()  # no loop of its own to listen on

    def test_stale_epoch_error_survives_the_wire_codec(self):
        # The internal RPC surface carries typed errors; a redirect must
        # arrive as a StaleEpochError with its epoch intact, not as an
        # anonymous RemoteError.
        err = wire.decode_error(wire.encode_error(StaleEpochError(3, "k")))
        assert isinstance(err, StaleEpochError)
        assert err.epoch == 3
        assert err.key == "k"
