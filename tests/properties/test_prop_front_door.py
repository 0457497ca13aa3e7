"""Property: the task-free front door answers as the task-per-request one.

The front door takes a keyed request synchronously as it is parsed: it
is validated, queued for the next drain with no task, answered by its
wave and flushed by the drain.  ``ReferenceService`` below is a copy of
the code it replaced, where every frame became a task that awaited a
future its wave resolved, and one ``except`` ladder turned exceptions
into replies.  Random bursts of requests go through both, on twin
directories, and every reply must match byte for byte, as must the
final state of every shard and the front door's ``service.front.ops`` /
``service.front.errors`` counts; both directories must audit clean with
no lock or undo record left.

A burst mixes all seven keyed verbs (hits, the paper's refusals, arity
errors), unknown verbs, frames that are not arrays of strings, ``@trace=``
and current, stale and unknown ``@epoch=`` stamps, and the admin verbs
whose answers do not depend on timing (``PING``, ``SHARDS``,
``SHARDMAP``).  ``SIZE`` is not ordered against keyed ops pipelined
around it (see ``repro.service.server``), so it is only ever sent alone,
to a quiescent directory.  The bursts run through ``_dispatch`` on a
simulated directory and over real sockets on the asyncio transport,
pipelined in one write, pipelined in pieces cut at random byte offsets
(so frames straddle deliveries), and one request at a time.  The
reference door decodes its socket with the buffer the front door had
then (``stepped_framing``), so the socket runs referee the one-pass
decoder too.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec
from repro.core.batch import BatchOp
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    QuorumUnavailableError,
    ReproError,
    StaleEpochError,
    TransactionError,
)
from repro.service import protocol, server
from repro.service.protocol import ReplyError, encode_command
from repro.shard.maps import ShardMap
from repro.shard.sharded import ShardedDirectory
from tests.properties.stepped_framing import SteppedFrameBuffer
from tests.scope import assert_clean

# -- the reference: the task-per-request front door ---------------------------


class _ReferenceShardTelemetry(server._ShardTelemetry):
    def run(self, wave: "list[_WaveItem]") -> "list[Any]":
        size = len(wave)
        self._directory.note_routed(self.index, size)
        if size == 1:
            span = self.tracer.span(
                f"service:{wave[0].verb}", key=wave[0].key, shard=self.index
            )
        else:
            span = self.tracer.span(
                "service:BATCH", size=size, shard=self.index
            )
        for item in reversed(wave):
            if item.trace is not None:
                span.attrs["trace"] = item.trace
                break
        outcomes: "list[Any] | None" = None
        try:
            with span:
                outcomes = self.cluster.suite.execute_batch(
                    [BatchOp(item.kind, item.key, item.value) for item in wave]
                )
            return outcomes
        finally:
            self.latency.observe(span.duration, size)
            for item in wave:
                self.hot_keys.offer(item.key)
            failed = (
                size
                if outcomes is None
                else sum(1 for out in outcomes if out.error is not None)
            )
            if failed:
                self.failed.inc(failed)
            self._recorded.inc(size)


@dataclass(slots=True)
class _WaveItem:
    verb: str
    kind: str
    key: str
    value: Any
    trace: Any
    future: "asyncio.Future"


class _ReferenceBatcher:
    def __init__(self, service: "ReferenceService", index: int) -> None:
        self.service = service
        self.index = index
        self.batch_max = service.batch_max

    def drain(self, items: "list[_WaveItem]") -> None:
        for start in range(0, len(items), self.batch_max):
            self._process(items[start : start + self.batch_max])

    def _process(self, wave: "list[_WaveItem]") -> None:
        try:
            self._run_batch(wave)
        except Exception as exc:  # never strand a waiting client
            for item in wave:
                if not item.future.done():
                    item.future.set_exception(exc)

    def _run_batch(self, wave: "list[_WaveItem]") -> None:
        outcomes = self.service.telemetry.shards[self.index].run(wave)
        for item, outcome in zip(wave, outcomes):
            if outcome.error is not None:
                item.future.set_exception(outcome.error)
            else:
                item.future.set_result(outcome.value)


class _ReferenceConnection(asyncio.Protocol):
    def __init__(self, service: "ReferenceService") -> None:
        self.service = service
        self.depth = server._PIPELINE_DEPTH
        self.transport: Any = None
        self.buffer = SteppedFrameBuffer()
        self._owed: "deque[asyncio.Future]" = deque()
        self._reading = True
        self._writable = True
        self._finished = False
        # Refill debts are kept per connection, as the live door keeps
        # them: they shape waves, never replies.
        self.refills = 0

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.service._links.add(self)

    def data_received(self, data: bytes) -> None:
        self.buffer.feed(data)
        self._parse()

    def eof_received(self) -> bool:
        self.buffer.eof = True
        self._parse()
        return True

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self._flush()

    def connection_lost(self, exc: "Exception | None") -> None:
        self.transport = None
        for _ in range(self.refills):
            self.service._refilled()
        self.refills = 0
        self.service._links.discard(self)

    def _parse(self) -> None:
        loop = asyncio.get_running_loop()
        owed = self._owed
        while len(owed) < self.depth and not self._finished:
            try:
                frame = self.buffer.read_frame()
            except protocol.IncompleteFrame:
                break
            except ConnectionError:
                self._finished = True
            except protocol.ProtocolError as exc:
                self._finished = True
                self.service._failures.inc()
                reply = loop.create_future()
                reply.set_result(
                    protocol.encode_error("ERR", f"protocol {exc}")
                )
                owed.append(reply)
            else:
                task = loop.create_task(self.service._dispatch(frame))
                task.add_done_callback(self._flush)
                owed.append(task)
                if self.refills:
                    self.refills -= 1
                    self.service._refilled()
        reading = len(owed) < self.depth and not self._finished
        if reading != self._reading and self.transport is not None:
            self._reading = reading
            if not self.buffer.eof:
                if reading:
                    self.transport.resume_reading()
                else:
                    self.transport.pause_reading()
        if self._finished:
            self._flush()

    def _flush(self, _done: Any = None) -> None:
        owed, transport = self._owed, self.transport
        if self._writable and owed and owed[0].done():
            replies = []
            while owed and owed[0].done():
                try:
                    replies.append(owed.popleft().result())
                except Exception as exc:
                    replies.append(
                        protocol.encode_error(
                            "ERR", f"internal {type(exc).__name__}: {exc}"
                        )
                    )
            if transport is not None:
                transport.write(b"".join(replies))
                if len(replies) > 1:
                    self.service._expect_refills(self, len(replies))
        if transport is None:
            return
        if self._finished:
            if not owed:
                transport.close()
        elif not self._reading and len(owed) < self.depth:
            self._parse()


class ReferenceService(server.DirectoryService):
    """The front door as it was: a task per frame, a future per op."""

    def __init__(self, directory: ShardedDirectory, **options: Any) -> None:
        super().__init__(directory, **options)
        self._batchers = [
            _ReferenceBatcher(self, i) for i in range(len(directory.clusters))
        ]
        for shard in self.telemetry.shards:
            shard.__class__ = _ReferenceShardTelemetry

    async def _start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _ReferenceConnection(self),
            host=self.host,
            port=self.port or 0,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _dispatch(self, frame: Any) -> bytes:
        if (
            not isinstance(frame, list)
            or not frame
            or not all(isinstance(p, str) for p in frame)
        ):
            return protocol.encode_error("ERR", "expected a command array")
        self._ops.inc()
        parts, trace, epoch = protocol.split_meta(frame)
        if not parts:
            self._failures.inc()
            return protocol.encode_error("ERR", "expected a command array")
        command, args = parts[0].upper(), parts[1:]
        try:
            row = self._VERBS[command]
        except KeyError:
            self._failures.inc()
            return protocol.encode_error("ERR", f"unknown command {command!r}")
        try:
            if not row.fewest <= len(args) <= row.most:
                raise server._Usage
            if row.kind is None:
                reply = await row.reply(self, *args)
            else:
                if epoch is not None:
                    self.directory.require_epoch(args[0], epoch)
                reply = row.reply(
                    await self._on_shard(command, row.kind, trace, *args)
                )
            if epoch is not None:
                reply = protocol.stamp_epoch(reply, self.directory.epoch)
            return reply
        except StaleEpochError as exc:
            return protocol.encode_error("MOVED", str(exc.epoch))
        except server._Usage:
            self._failures.inc()
            return protocol.encode_error("ERR", f"usage: {row.usage}")
        except KeyAlreadyPresentError as exc:
            return protocol.encode_error("KEYEXISTS", str(exc.key))
        except KeyNotPresentError as exc:
            return protocol.encode_error("NOTFOUND", str(exc.key))
        except (QuorumUnavailableError, NetworkError, TransactionError) as exc:
            self._failures.inc()
            return protocol.encode_error(
                "UNAVAILABLE", f"{type(exc).__name__}: {exc}"
            )
        except ReproError as exc:
            self._failures.inc()
            return protocol.encode_error(
                "ERR", f"{type(exc).__name__}: {exc}"
            )
        except Exception as exc:
            self._failures.inc()
            return protocol.encode_error(
                "ERR", f"internal {type(exc).__name__}: {exc}"
            )

    def _sync_shards(self) -> None:
        while len(self._batchers) < len(self.directory.clusters):
            i = len(self._batchers)
            self._batchers.append(_ReferenceBatcher(self, i))
            self.telemetry.ensure_shard(i)

    async def _on_shard(
        self, verb: str, kind: str, trace: Any, key: str, value: Any = None
    ) -> Any:
        loop = asyncio.get_running_loop()
        item = _WaveItem(verb, kind, key, value, trace, loop.create_future())
        if not self._pending:
            loop.call_soon(self._drain)
        self._pending.append(item)
        return await item.future

    def _drain(self, waited: bool = False) -> None:
        if self._refills:
            loop = asyncio.get_running_loop()
            if waited or loop.time() >= self._refill_by:
                self._write_off_refills()
            elif self._refills <= server._REFILL_MOST:
                self._lingering = loop.call_at(
                    self._refill_by, self._drain, True
                )
                return
        self._lingering = None
        pending, self._pending = self._pending, []
        shares: "dict[int, list[_WaveItem]]" = {}
        for item in pending:
            try:
                index = self.directory.shard_for(item.key)
            except Exception as exc:
                item.future.set_exception(exc)
                continue
            shares.setdefault(index, []).append(item)
        for index, items in shares.items():
            if index >= len(self._batchers):
                self._sync_shards()
            self._batchers[index].drain(items)


# -- the twins -----------------------------------------------------------------

#: Keys on every shard once ``_twin`` has split at "g": [, g) stays on
#: shard 0, [g, m) moves to shard 2, [m, ) is shard 1.
KEYS = ["", "a", "c", "g", "h", "k", "m", "p", "z"]
PRELOAD = ["a", "h", "p"]

#: Requests that are not arrays of strings, as ``_dispatch`` takes them
#: and as a socket carries them.
NOT_ARRAYS = [
    ("GET", b"+GET\r\n"),
    (7, b":7\r\n"),
    (None, b"$-1\r\n"),
    ([], b"*0\r\n"),
    (["GET", 1], b"*2\r\n$3\r\nGET\r\n:1\r\n"),
    (["GET", None], b"*2\r\n$3\r\nGET\r\n$-1\r\n"),
    (ReplyError("ERR", "x"), b"-ERR x\r\n"),
]

#: Metadata a request may carry: trace ids (one malformed), the current
#: epoch, a stale one that still routes unmoved keys, an unknown one,
#: and a field the server does not define.
META = [
    "@trace=t1", "@trace=bad!", "@epoch=1", "@epoch=0", "@epoch=9",
    "@bogus",
]

KEYED = {
    "LOOKUP": 1, "GET": 1, "DELETE": 1, "DEL": 1,
    "INSERT": 2, "UPDATE": 2, "SET": 2,
}


def _twin(**fields: Any) -> ShardedDirectory:
    spec = ClusterSpec(config="3-2-2", seed=13, **fields)
    d = ShardedDirectory.create(spec, shards=2, shard_map=ShardMap.range(["m"]))
    for key in PRELOAD:
        d.insert(key, f"v{key}")
    d.begin_split("g").run()  # epoch 0 -> 1: [g, m) moves to shard 2
    return d


@st.composite
def _request(draw: Any) -> Any:
    """One request: ``(frame for _dispatch, bytes for a socket)``."""
    kind = draw(
        st.sampled_from(["keyed"] * 8 + ["arity", "unknown", "junk", "admin"])
    )
    if kind == "junk":
        return draw(st.sampled_from(NOT_ARRAYS))
    if kind == "admin":
        parts = [draw(st.sampled_from(["PING", "SHARDS", "SHARDMAP", "ping"]))]
    elif kind == "unknown":
        parts = [draw(st.sampled_from(["FOO", "GETT", ""]))]
    else:
        verb = draw(st.sampled_from(sorted(KEYED)))
        arity = KEYED[verb]
        if kind == "arity":
            arity = draw(st.sampled_from([n for n in (0, 1, 2, 3) if n != arity]))
        args = [draw(st.sampled_from(KEYS))] + [
            draw(st.sampled_from(["x", "y", ""])) for _ in range(arity - 1)
        ]
        parts = [draw(st.sampled_from([verb, verb.lower()]))] + args[:arity]
    parts += draw(st.lists(st.sampled_from(META), max_size=2))
    return parts, encode_command(*parts)


#: A run: bursts of requests, each burst sent together; a burst may
#: instead be a lone ``SIZE``, which the directory answers quiescent.
_SIZE = (["SIZE"], encode_command("SIZE"))
_RUNS = st.lists(
    st.one_of(
        st.lists(_request(), min_size=1, max_size=10),
        st.just([_SIZE]),
    ),
    min_size=1,
    max_size=5,
)


def _counts(svc: server.DirectoryService) -> "tuple[int, int]":
    metrics = svc.network.metrics
    return (
        metrics.counter("service.front.ops").value,
        metrics.counter("service.front.errors").value,
    )


def _settled(d: ShardedDirectory) -> "list[dict[Any, Any]]":
    """Every shard's state; asserts nothing is held and audits are clean."""
    assert_clean(d)
    auditor = d.make_auditor()
    auditor.run()
    assert auditor.report.violations == []
    return [cluster.suite.authoritative_state() for cluster in d.clusters]


def _dispatched(svc: server.DirectoryService, bursts: Any) -> "list[list[bytes]]":
    async def run() -> "list[list[bytes]]":
        return [
            list(await asyncio.gather(*(svc._dispatch(f) for f, _ in burst)))
            for burst in bursts
        ]

    return asyncio.run(run())


def _sim_outcome(cls: Any, bursts: Any) -> Any:
    with _twin() as d, cls(d) as svc:
        before = _counts(svc)
        replies = _dispatched(svc, bursts)
        after = _counts(svc)
        return replies, _settled(d), (after[0] - before[0], after[1] - before[1])


@settings(deadline=None)
@given(bursts=_RUNS)
def test_dispatch_answers_as_the_task_per_request_front_door(bursts):
    assert _sim_outcome(server.DirectoryService, bursts) == _sim_outcome(
        ReferenceService, bursts
    )


# -- over a socket -------------------------------------------------------------


def _recv_all(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(chunks)
        chunks.append(data)


class _Tap:
    """A binary stream that keeps every byte read through it."""

    def __init__(self, stream: Any) -> None:
        self._stream, self.taken = stream, bytearray()

    def readline(self, size: int = -1) -> bytes:
        line = self._stream.readline(size)
        self.taken += line
        return line

    def read(self, n: int) -> bytes:
        data = self._stream.read(n)
        self.taken += data
        return data


def _pipelined(address: Any, burst: Any) -> bytes:
    """Every reply byte one write of the whole burst gets."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(b"".join(raw for _, raw in burst))
        sock.shutdown(socket.SHUT_WR)
        return _recv_all(sock)


def _in_pieces(address: Any, burst_and_cuts: Any) -> bytes:
    """Every reply byte the burst gets when written in pieces, cut at the
    given offsets, a moment apart: frames straddle the reads."""
    burst, cuts = burst_and_cuts
    payload = b"".join(raw for _, raw in burst)
    edges = sorted({0, len(payload)} | {cut % len(payload) for cut in cuts})
    with socket.create_connection(address, timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for start, end in zip(edges, edges[1:]):
            sock.sendall(payload[start:end])
            time.sleep(0.002)
        sock.shutdown(socket.SHUT_WR)
        return _recv_all(sock)


def _one_at_a_time(address: Any, burst: Any) -> "list[bytes]":
    """The raw reply to each request, sent only once the last is in."""
    replies = []
    with socket.create_connection(address, timeout=30) as sock:
        with sock.makefile("rb") as stream:
            tap = _Tap(stream)
            for _, raw in burst:
                sock.sendall(raw)
                protocol.read_frame_sync(tap)
                replies.append(bytes(tap.taken))
                tap.taken.clear()
    return replies


def _socket_outcome(cls: Any, bursts: Any, send: Any) -> Any:
    with _twin(transport="asyncio", fanout="parallel") as d:
        with cls(d).start() as svc:
            before = _counts(svc)
            replies = [send((svc.host, svc.port), burst) for burst in bursts]
            after = _counts(svc)
        return replies, _settled(d), (after[0] - before[0], after[1] - before[1])


@settings(max_examples=15, deadline=None)
@given(bursts=_RUNS)
def test_pipelined_socket_answers_as_the_task_per_request_front_door(bursts):
    assert _socket_outcome(
        server.DirectoryService, bursts, _pipelined
    ) == _socket_outcome(ReferenceService, bursts, _pipelined)


@settings(max_examples=15, deadline=None)
@given(bursts=_RUNS)
def test_depth_one_socket_answers_as_the_task_per_request_front_door(bursts):
    assert _socket_outcome(
        server.DirectoryService, bursts, _one_at_a_time
    ) == _socket_outcome(ReferenceService, bursts, _one_at_a_time)


@settings(max_examples=15, deadline=None)
@given(
    bursts=st.lists(
        st.tuples(
            st.lists(_request(), min_size=1, max_size=10),
            st.lists(st.integers(min_value=1, max_value=10**6), max_size=6),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_a_burst_in_pieces_is_answered_as_the_task_per_request_front_door(
    bursts,
):
    assert _socket_outcome(
        server.DirectoryService, bursts, _in_pieces
    ) == _socket_outcome(ReferenceService, bursts, _in_pieces)
