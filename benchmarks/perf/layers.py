"""Isolated per-layer costs: each layer's public calls with no layer above.

Every ``layer.*_us`` value is the median over five batches of
microseconds per call; the ``suite_sim`` and ``wave32_msgs`` values are
message counts on the simulated transport and repeat exactly.  A layer
is measured *with* the layers below it (a suite op pays its RPCs), never
with the ones above (no front door, no batcher).
"""

from __future__ import annotations

import asyncio
import random
import socket
import statistics
import time
from typing import Any, Callable

from benchmarks.perf.counted import InProcessServer
from repro.cluster import STORE_FACTORIES, ClusterSpec
from repro.core.batch import BatchOp
from repro.core.config import SuiteConfig
from repro.core.entries import LookupReply
from repro.core.keys import KeyRange, wrap
from repro.core.quorum import RandomQuorumPolicy
from repro.core.representative import DirectoryRepresentative
from repro.net.rpc import RpcCall
from repro.service import protocol, wire
from repro.shard.sharded import ShardedDirectory
from repro.storage.wal import WriteAheadLog
from repro.txn.locks import LockMode, LockTable
from repro.txn.transaction import Participant
from repro.txn.twopc import DecisionLog, TwoPhaseCoordinator

BATCHES = 5


def _us_per_call(batch: Callable[[int], float], number: int) -> float:
    """``batch(n)`` runs n calls and returns the seconds they took."""
    return statistics.median(
        batch(number) / number * 1e6 for _ in range(BATCHES)
    )


def _loop_us(fn: Callable[[], Any], number: int) -> float:
    def batch(n: int) -> float:
        started = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - started

    return _us_per_call(batch, number)


def _each_us(fn: Callable[[int], Any], number: int) -> float:
    """Like :func:`_loop_us` for calls that need a fresh argument each time."""
    serial = iter(range(10**9))

    def batch(n: int) -> float:
        args = [next(serial) for _ in range(n)]
        started = time.perf_counter()
        for i in args:
            fn(i)
        return time.perf_counter() - started

    return _us_per_call(batch, number)


# -- service.protocol, service.wire, shard, core.quorum -----------------------


def _framing(n: int) -> "dict[str, float]":
    frame = protocol.encode_command("SET", "c0k1234", "s123456")

    def read_batch(count: int) -> float:
        async def read_all() -> float:
            reader = asyncio.StreamReader()
            reader.feed_data(frame * count)
            reader.feed_eof()
            started = time.perf_counter()
            for _ in range(count):
                await protocol.read_frame(reader)
            return time.perf_counter() - started

        return asyncio.run(read_all())

    args = (17, wrap("c0k1234"))
    reply = wire.dump(wire.encode_value(LookupReply(True, 5, "s123456")))
    return {
        "layer.protocol.encode_command_us": _loop_us(
            lambda: protocol.encode_command("SET", "c0k1234", "s123456"), 20 * n
        ),
        "layer.protocol.read_frame_us": _us_per_call(read_batch, 2 * n),
        "layer.wire.dump_us": _loop_us(
            lambda: wire.dump([[wire.encode_value(a) for a in args], {}]), 5 * n
        ),
        "layer.wire.load_us": _loop_us(
            lambda: wire.decode_value(wire.load(reply)), 5 * n
        ),
    }


def _routing(n: int) -> "dict[str, float]":
    directory = ShardedDirectory.create(
        ClusterSpec(config="3-2-2", seed=0), shards=4, shard_map="hash"
    )
    config = SuiteConfig.from_xyz("3-2-2")
    policy, rng, names = RandomQuorumPolicy(), random.Random(0), list(config.names)
    return {
        "layer.shard.shard_for_us": _loop_us(
            lambda: directory.shard_for("c0k1234"), 20 * n
        ),
        "layer.quorum.choose_us": _loop_us(
            lambda: policy.choose("read", names, config, rng), 10 * n
        ),
    }


# -- service.server, service.aio, core.suite, core.batch, txn.twopc: over a real loop


class _Echo:
    """A hosted service whose methods cost nothing: what is left is the RPC."""

    def ping(self) -> int:
        return 1

    def prepare(self, txn_id: int) -> bool:
        return True

    def commit(self, txn_id: int) -> None:
        return None

    abort = commit


def _suite_ops(directory: ShardedDirectory, n: int) -> "dict[str, float]":
    for i in range(400):
        directory.insert(f"L{i}", "v")
    return {
        "layer.suite.lookup_us": _each_us(
            lambda i: directory.lookup(f"L{i % 400}"), n
        ),
        "layer.suite.insert_us": _each_us(
            lambda i: directory.insert(f"N{i}", "v"), n
        ),
        "layer.suite.update_us": _each_us(
            lambda i: directory.update(f"L{i % 400}", "w"), n
        ),
        # Deletes what the insert batches above created, in their order.
        "layer.suite.delete_us": _each_us(
            lambda i: directory.delete(f"N{i}"), n // 2
        ),
    }


def _wave(tag: int) -> "list[BatchOp]":
    """A 32-op wave shaped like ``pipelined_reads``: 28 reads, 4 writes."""
    ops = [BatchOp("lookup", f"L{(tag * 32 + i) % 400}", None) for i in range(28)]
    ops += [BatchOp("upsert", f"L{(tag * 4 + i) % 400}", "u") for i in range(3)]
    ops.append(BatchOp("insert", f"W{tag}", "w"))
    return ops


def _over_sockets(n: int) -> "dict[str, float]":
    out: "dict[str, float]" = {}
    with InProcessServer() as server:
        transport = server.directory.transport
        with socket.create_connection(
            (server.service.host, server.service.port)
        ) as sock, sock.makefile("rb") as stream:
            ping = protocol.encode_command("PING")

            def round_trip() -> None:
                sock.sendall(ping)
                protocol.read_frame_sync(stream)

            out["layer.server.ping_rtt_us"] = _loop_us(round_trip, n // 3)

        async def noop() -> None:
            return None

        out["layer.aio.thread_hop_us"] = _loop_us(
            lambda: transport.submit(noop()), n // 2
        )
        nodes = [f"bench-echo{i}" for i in range(3)]
        for node in nodes:
            transport.ensure_node(node)
            transport.host(node, "echo", _Echo())
        endpoint = transport.endpoint(origin="bench")
        out["layer.aio.call_rtt_us"] = _loop_us(
            lambda: endpoint.call(nodes[0], "echo", "ping"), n // 3
        )
        calls = [RpcCall(node, "echo", "ping") for node in nodes]
        out["layer.aio.scatter3_rtt_us"] = _loop_us(
            lambda: endpoint.scatter(calls).complete_all(), n // 5
        )
        coordinator = TwoPhaseCoordinator(endpoint, DecisionLog(), parallel=True)
        participants = {
            name: Participant(node, "echo") for name, node in zip("AB", nodes)
        }
        out["layer.twopc.commit_us"] = _each_us(
            lambda i: coordinator.commit(i + 1, participants), n // 10
        )
        out.update(_suite_ops(server.directory, n // 12))
        suite = server.directory.clusters[0].suite
        waves = max(2, n // 100)
        out["layer.batch.wave32_us_per_op"] = _each_us(
            lambda i: suite.execute_batch(_wave(i)), waves
        ) / 32
    return out


# -- the simulated transport: message counts, exact ----------------------------


def _simulated() -> "dict[str, float]":
    directory = ShardedDirectory.create(
        ClusterSpec(config="3-2-2", seed=0, fanout="parallel"),
        shards=4, shard_map="hash",
    )
    stats = directory.network.stats
    for i in range(400):
        directory.insert(f"L{i}", "v")

    def cost(fn: Callable[[int], Any], count: int) -> "tuple[float, float]":
        messages, rounds = stats.messages, stats.rpc_rounds
        for i in range(count):
            fn(i)
        return (
            (stats.messages - messages) / count,
            (stats.rpc_rounds - rounds) / count,
        )

    out: "dict[str, float]" = {}
    for name, fn in (
        ("lookup", lambda i: directory.lookup(f"L{i}")),
        ("insert", lambda i: directory.insert(f"N{i}", "v")),
        ("update", lambda i: directory.update(f"L{i}", "w")),
        ("delete", lambda i: directory.delete(f"N{i}")),
    ):
        messages, rounds = cost(fn, 100)
        out[f"layer.suite_sim.{name}_msgs"] = messages
        out[f"layer.suite_sim.{name}_rounds"] = rounds
    suite = directory.clusters[0].suite
    messages, _ = cost(lambda i: suite.execute_batch(_wave(i)), 10)
    out["layer.batch.wave32_msgs_per_op"] = messages / 32
    return out


# -- core.representative, txn.locks, storage ------------------------------------


def _representative(n: int) -> "dict[str, float]":
    rep = DirectoryRepresentative("A")
    for i in range(1000):
        rep.rep_insert(1, wrap(2 * i), 1, "v")
    rep.commit(1)
    txn = iter(range(2, 10**9))

    # Each sample is one operation and the commit that releases its locks,
    # so the lock table stays as small as it is between service ops.
    def lookup(i: int) -> None:
        t = next(txn)
        rep.rep_lookup(t, wrap(2 * (i % 1000)))
        rep.commit(t)

    def insert(i: int) -> None:
        t = next(txn)
        rep.rep_insert(t, wrap(2 * (i % 1000)), 2, "w")
        rep.commit(t)

    def neighbors(i: int) -> None:
        t = next(txn)
        key = wrap(2 * (i % 998) + 3)
        rep.rep_predecessor(t, key)
        rep.rep_successor(t, key)
        rep.commit(t)

    def coalesce_batch(count: int) -> float:
        t = next(txn)
        for i in range(count):
            rep.rep_insert(t, wrap(2 * i + 1), 2, "ghost")
        rep.commit(t)
        started = time.perf_counter()
        for i in range(count):
            t = next(txn)
            rep.rep_coalesce(t, wrap(2 * i), wrap(2 * i + 2), 3)
            rep.commit(t)
        return time.perf_counter() - started

    table = LockTable()
    point = KeyRange.point(wrap("c0k1234"))

    def lock_cycle() -> None:
        table.acquire(7, LockMode.REP_LOOKUP, point, wait=False)
        table.release_all(7)

    wal = WriteAheadLog()
    key = wrap("c0k1234")
    return {
        "layer.rep.lookup_us": _each_us(lookup, 2 * n),
        "layer.rep.insert_us": _each_us(insert, 2 * n),
        "layer.rep.neighbors_us": _each_us(neighbors, 2 * n),
        "layer.rep.coalesce_us": _us_per_call(coalesce_batch, min(900, n)),
        "layer.locks.acquire_release_us": _loop_us(lock_cycle, 10 * n),
        "layer.wal.append_us": _loop_us(
            lambda: wal.log_insert(1, key, 1, "v"), 20 * n
        ),
    }


STORE_ENTRIES = 10_000


def _stores(n: int) -> "dict[str, float]":
    out: "dict[str, float]" = {}
    rng = random.Random(1)
    probes = [wrap(rng.randrange(2 * STORE_ENTRIES)) for _ in range(512)]
    count = min(n, 1000)
    for name in ("sorted", "btree", "skiplist"):
        store = STORE_FACTORIES[name]()
        for i in range(STORE_ENTRIES):
            store.insert(wrap(2 * i), 1, i)
        inserts: "list[float]" = []

        def coalesce_batch(_: int) -> float:
            """Insert ``count`` odd keys (timed apart), then coalesce each away."""
            started = time.perf_counter()
            for i in range(count):
                store.insert(wrap(2 * i + 1), 2, i)
            middle = time.perf_counter()
            for i in range(count):
                store.coalesce(wrap(2 * i), wrap(2 * i + 2), 3)
            inserts.append((middle - started) / count * 1e6)
            return time.perf_counter() - middle

        out[f"layer.store.{name}.coalesce_us"] = _us_per_call(coalesce_batch, count)
        out[f"layer.store.{name}.insert_us"] = statistics.median(inserts)
        cursor = iter(range(10**9))
        out[f"layer.store.{name}.lookup_us"] = _loop_us(
            lambda: store.lookup(probes[next(cursor) % 512]), 5 * n
        )
    return out


def run_all(scale: float = 1.0) -> "dict[str, float]":
    """Every isolated layer metric; ``scale`` shrinks the batches (smoke)."""
    n = max(100, int(1000 * scale))
    out: "dict[str, float]" = {}
    out.update(_framing(n))
    out.update(_routing(n))
    out.update(_over_sockets(n))
    out.update(_simulated())
    out.update(_representative(n))
    out.update(_stores(n))
    return out
