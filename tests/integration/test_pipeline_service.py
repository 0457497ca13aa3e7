"""End-to-end coverage of the pipelined wire protocol.

The redesign lets one connection keep many requests in flight; the
server must read frames continuously, keep replies strictly in request
order, and fail a mid-burst slot (``-MOVED``, ``-UNAVAILABLE``, logical
errors) without poisoning its neighbours.  These tests drive the real
asyncio front door three ways:

* raw sockets — framing edge cases the client would never emit on its
  own: writes split mid-frame, metadata interleaved per request, EOF
  with replies still owed;
* the redesigned client API — ``pipeline()`` on both the async-first
  client and its blocking wrapper, per-slot results and errors;
* a reshard cutover interleaved with a pipelined burst — the regression
  for the stale-epoch case: only the moved slots chase ``-MOVED``, and
  the burst as a whole still succeeds;
* bytes that are not frames at all — answered ``-ERR protocol ...`` and
  hung up on, never a traceback, by the in-process service and by a
  ``python -m repro serve`` child alike;
* back-pressure, both ways — ``pipeline_depth`` bounds what one
  connection has in flight exactly, and a client that stops reading
  stops being read;
* the window refill — a drain waits, for a bounded time, for the
  requests a pipelining client is still writing;
* the thread census — serving adds one thread to the process, whatever
  the shard count and however many clients;
* every keyed verb in one wave — a burst mixing ``INSERT`` / ``SET`` /
  ``DELETE`` / ``DEL`` / ``GET`` is one grouped transaction per shard
  and answers byte for byte what the unbatched control answers.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cluster import ClusterSpec
from repro.core.errors import KeyAlreadyPresentError, KeyNotPresentError
from repro.service import server
from repro.service.client import (
    AsyncDirectoryClient,
    DirectoryClient,
)
from repro.service.protocol import ReplyError, encode_command, read_frame_sync
from repro.service.server import DirectoryService
from repro.shard.maps import RangeShardMap
from repro.shard.sharded import ShardedDirectory


@contextlib.contextmanager
def _serving(**options):
    spec = ClusterSpec(
        config="3-2-2", seed=17, transport="asyncio", fanout="parallel"
    )
    with ShardedDirectory.create(
        spec, shards=2, shard_map=RangeShardMap(["m"])
    ) as d:
        with DirectoryService(d, **options).start() as svc:
            yield svc


@pytest.fixture()
def service():
    with _serving() as svc:
        yield svc


def _connect(service):
    sock = socket.create_connection((service.host, service.port))
    return sock, sock.makefile("rb")


class TestRawFraming:
    def test_burst_replies_in_request_order(self, service):
        sock, reader = _connect(service)
        try:
            burst = b"".join(
                encode_command("SET", f"k{i}", f"v{i}") for i in range(20)
            ) + b"".join(encode_command("GET", f"k{i}") for i in range(20))
            sock.sendall(burst)
            for _ in range(20):
                assert read_frame_sync(reader) == "OK"
            for i in range(20):
                assert read_frame_sync(reader) == f"v{i}"
        finally:
            sock.close()

    def test_partial_writes_split_mid_frame(self, service):
        """The reader must tolerate frames arriving one byte at a time
        and across arbitrary chunk boundaries — TCP guarantees nothing
        about write/read alignment."""
        sock, reader = _connect(service)
        try:
            burst = b"".join(
                encode_command("SET", f"p{i}", f"w{i}") for i in range(6)
            )
            # Drip the first two frames byte by byte...
            split = len(encode_command("SET", "p0", "w0")) * 2
            for i in range(split):
                sock.sendall(burst[i : i + 1])
            # ...then the rest in chunks that straddle frame boundaries.
            rest = burst[split:]
            for start in range(0, len(rest), 7):
                sock.sendall(rest[start : start + 7])
            for _ in range(6):
                assert read_frame_sync(reader) == "OK"
            sock.sendall(encode_command("GET", "p5"))
            assert read_frame_sync(reader) == "w5"
        finally:
            sock.close()

    def test_interleaved_trace_and_epoch_metadata(self, service):
        """Per-request ``@trace=`` / ``@epoch=`` stamps must not shift
        positional reply alignment: only the requests that stamped an
        epoch get an epoch-stamped reply."""
        sock, reader = _connect(service)
        try:
            sock.sendall(
                encode_command("SET", "ma", "1", "@trace=t-0")
                + encode_command("SET", "mb", "2", "@epoch=0")
                + encode_command("GET", "ma", "@trace=t-1", "@epoch=0")
                + encode_command("GET", "mb")
            )
            assert read_frame_sync(reader) == "OK"  # traced, unstamped
            assert read_frame_sync(reader) == "OK @epoch=0"
            # A bulk GET reply has no room for metadata: value only.
            assert read_frame_sync(reader) == "1"
            assert read_frame_sync(reader) == "2"
        finally:
            sock.close()

    def test_eof_mid_pipeline_flushes_owed_replies(self, service):
        """Half-closing the write side with replies still owed must not
        drop them: the server finishes the in-flight requests, writes
        every reply, then closes."""
        sock, reader = _connect(service)
        try:
            n = 12
            sock.sendall(
                b"".join(
                    encode_command("SET", f"e{i}", f"x{i}") for i in range(n)
                )
            )
            sock.shutdown(socket.SHUT_WR)
            for _ in range(n):
                assert read_frame_sync(reader) == "OK"
            with pytest.raises(ConnectionError):
                read_frame_sync(reader)
        finally:
            sock.close()
        # The writes all committed despite the early EOF.
        with DirectoryClient(service.host, service.port) as c:
            for i in range(n):
                assert c.get(f"e{i}") == f"x{i}"


class TestClientPipeline:
    def test_set_then_get_same_key_orders(self, service):
        with DirectoryClient(service.host, service.port) as c:
            with c.pipeline() as pipe:
                first = pipe.set("k", "v1")
                read1 = pipe.get("k")
                pipe.set("k", "v2")
                read2 = pipe.get("k")
            assert first.result() is None
            assert read1.result() == "v1"
            assert read2.result() == "v2"

    def test_per_slot_errors_stay_in_their_slot(self, service):
        with DirectoryClient(service.host, service.port) as c:
            c.insert("taken", "old")
            with c.pipeline() as pipe:
                bad = pipe.insert("taken", "new")
                good = pipe.insert("fresh", "yes")
                miss = pipe.update("ghost", "no")
                read = pipe.get("taken")
            assert isinstance(bad.error, KeyAlreadyPresentError)
            assert good.result() is None
            assert isinstance(miss.error, KeyNotPresentError)
            assert read.result() == "old"  # the failed insert changed nothing
            with pytest.raises(KeyAlreadyPresentError):
                bad.result()

    def test_result_before_flush_raises(self, service):
        with DirectoryClient(service.host, service.port) as c:
            pipe = c.pipeline()
            handle = pipe.get("k")
            assert not handle.done
            with pytest.raises(RuntimeError):
                handle.result()
            pipe.flush()
            assert handle.done

    def test_pipeline_reusable_after_flush(self, service):
        with DirectoryClient(service.host, service.port) as c:
            with c.pipeline() as pipe:
                pipe.set("r", "1")
                results = pipe.flush()
                assert len(results) == 1 and results[0].ok
                again = pipe.get("r")
            assert again.result() == "1"

    def test_async_client_pipeline(self, service):
        async def drive():
            async with await AsyncDirectoryClient.connect(
                service.host, service.port
            ) as c:
                async with c.pipeline() as pipe:
                    pipe.set("a", "1")
                    read = pipe.get("a")
                    absent = pipe.get("nope")
                return read.result(), absent.result()

        assert asyncio.new_event_loop().run_until_complete(drive()) == (
            "1",
            None,
        )


class TestMovedMidBurst:
    """Satellite regression: reshard cutover interleaved with a burst."""

    def test_moved_slot_fails_alone_and_burst_recovers(self, service):
        with DirectoryClient(service.host, service.port) as fresh:
            for i in range(16):
                fresh.set(f"key{i:02d}", f"v{i}")
            stale = DirectoryClient(service.host, service.port)
            try:
                assert stale.get("key00") == "v0"  # caches epoch 0
                assert stale.epoch == 0
                # Queue a burst spanning both sides of the cut, then
                # reshard *before* the flush: the burst goes out with
                # the stale epoch stamped.
                pipe = stale.pipeline()
                handles = [pipe.get(f"key{i:02d}") for i in range(16)]
                extra = pipe.set("key09", "patched")
                fresh.reshard("key08")  # key08.. move to a new shard
                pipe.flush()
                # Every slot resolved — moved ones chased -MOVED on
                # their own, unmoved ones were answered first try.
                for i, handle in enumerate(handles):
                    assert handle.result() == f"v{i}", i
                assert extra.result() is None
                assert stale.epoch == 1  # refreshed mid-burst
                assert stale.get("key09") == "patched"
            finally:
                stale.close()

    def test_raw_stale_epoch_sees_moved_only_for_moved_keys(self, service):
        with DirectoryClient(service.host, service.port) as admin:
            admin.set("aaa", "left")
            admin.set("zzz", "right")
            admin.reshard("q")  # epoch 0 -> 1; keys >= "q" move
        sock, reader = _connect(service)
        try:
            sock.sendall(
                encode_command("GET", "aaa", "@epoch=0")
                + encode_command("GET", "zzz", "@epoch=0")
                + encode_command("GET", "aaa", "@epoch=1")
            )
            # Bulk replies carry no epoch stamp; the stale slot alone
            # fails, and the connection keeps serving afterwards.
            assert read_frame_sync(reader) == "left"
            moved = read_frame_sync(reader)
            assert isinstance(moved, ReplyError) and moved.code == "MOVED"
            assert read_frame_sync(reader) == "left"
        finally:
            sock.close()


class TestBackPressure:
    def test_pipeline_depth_bounds_in_flight_requests_exactly(
        self, monkeypatch
    ):
        """64 requests land in one write; with ``pipeline_depth=4`` the
        connection parses four, leaves the rest in its buffer until
        replies have left, and so no wave ever holds more than four —
        not "four plus whatever one ``recv`` held"."""
        waves: list = []
        process = server._ShardBatcher._process

        def recording(batcher, wave):
            waves.append(len(wave))
            process(batcher, wave)

        monkeypatch.setattr(server._ShardBatcher, "_process", recording)
        with _serving(pipeline_depth=4) as svc:
            sock, reader = _connect(svc)
            try:
                sock.sendall(
                    b"".join(
                        encode_command("SET", "depth", f"v{i}")
                        + encode_command("GET", "depth")
                        for i in range(32)
                    )
                )
                for i in range(32):
                    assert read_frame_sync(reader) == "OK"
                    assert read_frame_sync(reader) == f"v{i}"
            finally:
                sock.close()
        assert sum(waves) == 64
        assert max(waves) <= 4, waves
        assert max(waves) > 1, "nothing pipelined; the bound was not tested"

    def test_a_client_that_stops_reading_stops_being_read(self):
        """Far more replies than the socket buffers hold, to a client
        that reads none of them: the server must stop taking its
        requests (as ``await writer.drain()`` once made it) instead of
        answering all of them into memory — and lose none once the
        client does read."""
        values = {f"big{i}": chr(65 + i) * 32_768 for i in range(4)}
        sent = 1_000  # 32 MB of replies
        keys = [f"big{i % 4}" for i in range(sent)]
        with _serving(pipeline_depth=32) as svc:
            with DirectoryClient(svc.host, svc.port) as c:
                for key, value in values.items():
                    c.set(key, value)
            ops = svc.transport.metrics.counter("service.front.ops")
            before = ops.value
            sock, reader = _connect(svc)
            try:
                sock.settimeout(60)
                sock.sendall(b"".join(encode_command("GET", k) for k in keys))
                # Wait for the server to come to rest against the full pipe.
                seen, rested = -1, time.monotonic()
                while time.monotonic() - rested < 0.5:
                    if ops.value != seen:
                        seen, rested = ops.value, time.monotonic()
                    time.sleep(0.02)
                assert 0 < ops.value - before < sent
                for key in keys:
                    assert read_frame_sync(reader) == values[key]
                assert ops.value - before == sent
            finally:
                sock.close()


class TestWindowRefill:
    """A drain waits for the window a pipelining client is refilling.

    A client sent several replies in one write answers them with as many
    requests, one write each; a drain that ran on the first would leave
    wave size to a race.  The wait's length is set per test — a minute
    where the wait itself is watched, a few milliseconds where it must
    run out — so nothing here depends on how fast the host is.
    """

    @staticmethod
    def _burst(sock, reader, keys):
        sock.sendall(b"".join(encode_command("SET", k, "v") for k in keys))
        for _ in keys:
            assert read_frame_sync(reader) == "OK"

    @pytest.fixture()
    def waves(self, monkeypatch):
        sizes: list = []
        process = server._ShardBatcher._process

        def recording(batcher, wave):
            sizes.append(len(wave))
            process(batcher, wave)

        monkeypatch.setattr(server._ShardBatcher, "_process", recording)
        return sizes

    def test_the_refilled_window_runs_as_one_wave(
        self, service, waves, monkeypatch
    ):
        monkeypatch.setattr(server, "_REFILL_EACH", 60.0)
        keys = [f"a{i}" for i in range(4)]  # one shard
        sock, reader = _connect(service)
        try:
            self._burst(sock, reader, keys)
            del waves[:]
            # The first request of the refill queues and stays queued...
            sock.sendall(encode_command("SET", "a0", "v"))
            time.sleep(0.2)
            assert [item.key for item in service._pending] == ["a0"]
            assert waves == []
            # ...and the last one in releases the drain: one wave of four.
            for key in keys[1:]:
                sock.sendall(encode_command("SET", key, "v"))
            for _ in keys:
                assert read_frame_sync(reader) == "OK"
        finally:
            sock.close()
        assert waves == [4]

    def test_refills_that_never_come_cost_one_short_wait(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(server, "_REFILL_EACH", 0.005)
        sock, reader = _connect(service)
        try:
            sock.settimeout(30)
            self._burst(sock, reader, [f"a{i}" for i in range(4)])
            sock.sendall(encode_command("GET", "a0"))  # one, not four
            assert read_frame_sync(reader) == "v"
            assert service._refills == 0  # written off, not carried along
            # Too many owed to be waited for are written off the same
            # way, by the first drain that finds them overdue.
            self._burst(sock, reader, [f"a{i}" for i in range(32)])
            time.sleep(0.2)  # replies are written, then counted as owed
            assert service._refills > 16
            sock.sendall(encode_command("GET", "a0"))
            assert read_frame_sync(reader) == "v"
            assert service._refills == 0
        finally:
            sock.close()

    def test_one_reply_at_a_time_is_never_waited_for(
        self, service, waves, monkeypatch
    ):
        monkeypatch.setattr(server, "_REFILL_EACH", 60.0)
        sock, reader = _connect(service)
        try:
            sock.settimeout(30)
            for i in range(8):
                self._burst(sock, reader, [f"a{i}"])
                assert service._refills == 0
        finally:
            sock.close()
        assert waves == [1] * 8

    def test_a_deep_window_is_not_waited_for(self, service, monkeypatch):
        """More refills owed than ``_REFILL_MOST``: they take longer to
        arrive than a wave to run, so the drain runs what it has."""
        monkeypatch.setattr(server, "_REFILL_EACH", 60.0)
        sock, reader = _connect(service)
        try:
            sock.settimeout(30)
            self._burst(sock, reader, [f"a{i}" for i in range(32)])
            self._burst(sock, reader, ["a0"])
        finally:
            sock.close()


class TestThreadCensus:
    def test_serving_adds_one_thread_and_closing_returns_it(self):
        """Four shards, two clients pipelining at once: the process
        gains the transport's loop thread and nothing else, and closing
        the service and the directory gives it back."""
        baseline = set(threading.enumerate())
        spec = ClusterSpec(
            config="3-2-2", seed=17, transport="asyncio", fanout="parallel"
        )
        directory = ShardedDirectory.create(spec, shards=4, shard_map="hash")
        svc = DirectoryService(directory).start()
        failures: list = []

        def client(w: int) -> None:
            try:
                with DirectoryClient(svc.host, svc.port) as c:
                    for burst in range(30):
                        with c.pipeline() as pipe:
                            slots = [
                                pipe.set(f"w{w}k{(burst * 5 + i) % 64}", "v")
                                for i in range(32)
                            ]
                        failures.extend(
                            s.error for s in slots if s.error is not None
                        )
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        clients = [threading.Thread(target=client, args=(w,)) for w in (0, 1)]
        census = set()
        try:
            for thread in clients:
                thread.start()
            while any(thread.is_alive() for thread in clients):
                serving = set(threading.enumerate()) - baseline - set(clients)
                census.add(tuple(sorted(t.name for t in serving)))
                time.sleep(0.005)
            for thread in clients:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            svc.close()
            directory.close()
        assert failures == []
        assert sum(directory.routed) == 2 * 30 * 32
        assert all(routed > 0 for routed in directory.routed)
        assert census == {("repro-aio-transport",)}
        assert set(threading.enumerate()) - baseline == set()


class TestMixedVerbBurst:
    """Deletes ride in the wave: one burst, one wave per shard, and the
    replies a one-op-at-a-time service gives for the same bytes."""

    KEYS = ["a1", "a2", "a3", "z1", "z2", "z3"]  # three per shard

    @classmethod
    def _burst(cls):
        rng = random.Random(20)
        requests = []
        for i in range(60):
            verb = rng.choice(["INSERT", "SET", "DELETE", "DEL", "GET"])
            args = [f"v{i}"] if verb in ("INSERT", "SET") else []
            requests.append((verb, rng.choice(cls.KEYS), *args))
        return requests

    @staticmethod
    def _answers(svc, payload):
        """Everything ``payload`` is answered with, to the server's close."""
        with socket.create_connection((svc.host, svc.port), timeout=30) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as stream:
                return stream.read()

    def test_answers_what_the_unbatched_control_answers(self, monkeypatch):
        waves: list = []
        singles: list = []
        process = server._ShardBatcher._process
        run_single = server._ShardBatcher._run_single

        def recording(batcher, wave):
            waves.append(len(wave))
            process(batcher, wave)

        def counting(batcher, item):
            singles.append(item.verb)
            run_single(batcher, item)

        monkeypatch.setattr(server._ShardBatcher, "_process", recording)
        monkeypatch.setattr(server._ShardBatcher, "_run_single", counting)
        burst = self._burst()
        answers, states = {}, {}
        for batch_max in (128, 1):
            with _serving(batch_max=batch_max) as svc:
                with DirectoryClient(svc.host, svc.port) as c:
                    c.set("a1", "old")
                    c.set("z1", "old")
                del waves[:], singles[:]
                answers[batch_max] = self._answers(
                    svc, b"".join(encode_command(*parts) for parts in burst)
                )
                if batch_max > 1:
                    # One wave per shard, and nothing left it for the
                    # one-op path — not the deletes, not the refusals.
                    assert sorted(waves) == sorted(
                        sum(key[0] == side for _verb, key, *_ in burst)
                        for side in "az"
                    )
                    assert singles == []
                else:
                    assert waves == [1] * len(burst)
                    assert len(singles) == len(burst)
                states[batch_max] = [
                    cluster.suite.authoritative_state()
                    for cluster in svc.directory.clusters
                ]
                for cluster in svc.directory.clusters:
                    for rep in cluster.representatives.values():
                        assert rep.locks.is_idle()
        assert answers[128] == answers[1]
        assert states[128] == states[1]
        # Refusals sit in their own slots; nothing was poisoned.
        replies = answers[128]
        for marker in (
            b"-NOTFOUND ", b"-KEYEXISTS ", b"+OK", b":1", b":0", b"$-1"
        ):
            assert marker in replies, marker
        assert b"-ERR" not in replies and b"-UNAVAILABLE" not in replies


class TestStatsUnderBatching:
    def test_latency_samples_stay_per_op_in_multi_op_waves(self, service):
        """``STATS`` percentiles are per operation: a wave of N ops is N
        latency samples (each waited the wave), never one."""
        with DirectoryClient(service.host, service.port) as c:
            for burst in range(4):
                with c.pipeline() as pipe:
                    for i in range(32):
                        pipe.set(f"k{burst}-{i}", "v")
                        pipe.get(f"k{burst}-{i}")
            stats, snapshot = c.stats(), c.metrics()
        grouped = sum(
            value
            for name, value in snapshot.items()
            if name.endswith("suite.batch.ops")
        )
        assert grouped > 0, "no multi-op wave formed; the test shows nothing"
        recorded = snapshot["live.ops.recorded"]  # a fresh server: the delta
        assert recorded == 4 * 64
        samples = sum(
            row["latency"]["n"] for row in stats["per_shard"].values()
        )
        assert samples == recorded

    def test_deletes_inside_the_waves_are_counted_per_op(self, service):
        """With deletes grouped, a wave still yields one latency sample
        per op and one ``live.ops.failed`` per refused op — the absent
        ``DELETE``s that the fold answers without a message included."""
        refused = 0
        with DirectoryClient(service.host, service.port) as c:
            for burst in range(4):
                with c.pipeline() as pipe:
                    slots = []
                    for i in range(16):
                        key = f"k{burst}-{i}"
                        slots.append(pipe.insert(key, "v"))
                        slots.append(pipe.delete(key))
                        slots.append(pipe.delete(key))  # -NOTFOUND
                        slots.append(pipe.remove(key))  # :0, not a failure
                refused += sum(slot.error is not None for slot in slots)
            stats, snapshot = c.stats(), c.metrics()
        assert refused == 4 * 16
        grouped = sum(
            value
            for name, value in snapshot.items()
            if name.endswith("suite.batch.ops")
        )
        recorded = snapshot["live.ops.recorded"]
        assert grouped == recorded == 4 * 64, "a delete left its wave"
        assert recorded == sum(
            row["latency"]["n"] for row in stats["per_shard"].values()
        )
        assert refused == sum(
            value
            for name, value in snapshot.items()
            if name.endswith("live.ops.failed")
        )

    def test_stats_tell_how_the_deletes_walked(self, service):
        """Sixteen deletes far apart in one burst, then one written and
        deleted in the same burst: ``STATS`` says how many shared a walk
        and how many walked alone, and ``SLOW`` shows the ``batch:walk``
        spans under the waves' ``op:batch``."""
        with DirectoryClient(service.host, service.port) as c:
            with c.pipeline() as pipe:
                for i in range(64):
                    pipe.set(f"k{i:02d}", "v")
            with c.pipeline() as pipe:
                for i in range(2, 64, 4):
                    pipe.delete(f"k{i:02d}")
                pipe.set("k99", "v")
                pipe.delete("k99")
            stats, slow = c.stats(), c.slow(64)
        walks = [row["walks"] for row in stats["per_shard"].values()]
        together = sum(w["deletes_shared"] for w in walks)
        alone = sum(w["deletes_alone"] for w in walks)
        # k99 for certain; another only if the hash put two of the
        # sixteen side by side on one shard.
        assert together + alone == 17 and alone >= 1 and together >= 12
        assert sum(w["shared"] for w in walks) >= 1

        def spans(tree):
            yield tree
            for child in tree.get("children", ()):
                yield from spans(child)

        batches = [
            s for entry in slow for s in spans(entry["span"])
            if s["name"] == "op:batch"
        ]
        walked = [
            child["attrs"]["deletes"]
            for batch in batches
            for child in batch["children"]
            if child["name"] == "batch:walk"
        ]
        assert sum(walked) >= 17 and 1 in walked


#: What a peer can get wrong, and the exact reply each earns.  The long
#: line carries no terminator, so which of the reader's two limit
#: messages it trips does not depend on how TCP chunks it.
MALFORMED = {
    "bare line, as typed into nc": (
        b"PING\r\n",
        b"-ERR protocol unknown frame type b'P'\r\n",
    ),
    "length that is not a number": (
        b"$abc\r\n",
        b"-ERR protocol malformed frame: invalid literal for int() "
        b"with base 10: b'abc'\r\n",
    ),
    "bulk that is not UTF-8": (
        b"*1\r\n$2\r\n\xff\xfe\r\n",
        b"-ERR protocol malformed frame: 'utf-8' codec can't decode "
        b"byte 0xff in position 0: invalid start byte\r\n",
    ),
    "unknown type byte": (
        b"?what\r\n",
        b"-ERR protocol unknown frame type b'?'\r\n",
    ),
    "70 KB line": (
        b"x" * 70_000,
        b"-ERR protocol malformed frame: Separator is not found, "
        b"and chunk exceed the limit\r\n",
    ),
}


def _send_garbage(address, payload: bytes) -> bytes:
    """Everything the server sends back before it hangs up."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(payload)
        with sock.makefile("rb") as stream:
            received = stream.readline()
            try:
                received += stream.read()  # returns at the server's close
            except ConnectionResetError:
                pass  # closed with bytes of ours unread: a reset, not a FIN
        return received


def _ping(address) -> str:
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(encode_command("PING"))
        with sock.makefile("rb") as stream:
            return read_frame_sync(stream)


class TestMalformedFrames:
    """A malformed frame gets an answer, not a traceback."""

    @pytest.mark.parametrize("case", MALFORMED)
    def test_answered_then_closed(self, service, caplog, case):
        payload, expected = MALFORMED[case]
        address = (service.host, service.port)
        errors = service.transport.metrics.counter("service.front.errors")
        before = errors.value
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            assert _send_garbage(address, payload) == expected
            assert _ping(address) == "PONG"  # the next connection is served
        assert errors.value == before + 1
        assert not caplog.records, caplog.text  # nothing unhandled on the loop

    def test_replies_already_owed_flush_first(self, service):
        address = (service.host, service.port)
        received = _send_garbage(
            address,
            encode_command("SET", "owed", "1")
            + encode_command("GET", "owed")
            + b"PING\r\n"
            + encode_command("SET", "owed", "never read"),
        )
        assert received == (
            b"+OK\r\n$1\r\n1\r\n" + MALFORMED["bare line, as typed into nc"][1]
        )
        with DirectoryClient(*address) as c:
            assert c.get("owed") == "1"

    def test_serve_child_answers_and_keeps_stderr_clean(self, tmp_path):
        ready, stderr = tmp_path / "ready", tmp_path / "stderr"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        with open(stderr, "wb") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--shards", "2",
                 "--ready-file", str(ready)],
                env=env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                deadline = time.monotonic() + 30
                while not (ready.exists() and ready.read_text().endswith("\n")):
                    assert child.poll() is None, stderr.read_text()
                    assert time.monotonic() < deadline, "serve never got ready"
                    time.sleep(0.05)
                host, port = ready.read_text().split()
                address = (host, int(port))
                for case, (payload, expected) in MALFORMED.items():
                    assert _send_garbage(address, payload) == expected, case
                    assert _ping(address) == "PONG", case
            finally:
                child.send_signal(signal.SIGINT)
                try:
                    child.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    child.kill()
                    child.wait(timeout=20)
        assert stderr.read_text() == ""
