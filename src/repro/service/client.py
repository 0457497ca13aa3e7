"""Client library for the directory service front door.

Two clients over the same wire protocol (:mod:`repro.service.protocol`):

* :class:`AsyncDirectoryClient` — the implementation: an asyncio client
  the load generator opens by the hundred, with a
  :meth:`~AsyncDirectoryClient.pipeline` context manager that queues
  operations and flushes them as **one pipelined burst** (the server
  reads frames continuously and replies strictly in order, so a burst
  of N requests costs one round trip instead of N);
* :class:`DirectoryClient` — its blocking face, *derived* from it: a
  private event loop plus one wrapper per coroutine of the async
  client, generated at import, so a verb added there appears here with
  the same name, signature and docstring.  It satisfies the
  :class:`~repro.core.interface.Directory` protocol, so everything that
  drives a simulated directory (conformance tests, benchmark loops)
  drives a remote one unchanged.

Both translate the strict error replies back into the repo's exception
types (``-KEYEXISTS`` → :class:`KeyAlreadyPresentError`, ``-NOTFOUND``
→ :class:`KeyNotPresentError`, ``-UNAVAILABLE`` →
:class:`QuorumUnavailableError`-shaped :class:`ServiceUnavailableError`)
so the error contract crosses the wire intact.  Any other ``-CODE``
raises :class:`~repro.service.protocol.ReplyError`.

Keys and values are strings on this surface — the service stores what
you send and returns it byte-for-byte.

Pipelining::

    with DirectoryClient(host, port) as client:
        with client.pipeline() as p:
            p.set("a", "1")
            got = p.get("b")          # a PipelineResult, not a value
        print(got.result())           # resolved by the implicit flush

Each queued op returns a :class:`PipelineResult` slot; ``flush()``
(implicit on clean context-manager exit) writes every queued frame in
one buffer, reads the replies positionally, and resolves each slot
independently — a mid-burst ``-KEYEXISTS`` / ``-NOTFOUND`` /
``-UNAVAILABLE`` fails only its own slot (``result()`` re-raises it),
never the neighbours.  ``-MOVED`` redirects are chased per slot: the
client refreshes its shard map and re-issues only the moved slots as a
follow-up burst, so a live reshard cannot desync the pipeline.

Both clients stamp a unique trace id onto every request as a trailing
``@trace=<id>`` metadata element.  The server adopts the id onto the
root span of the work the request triggers, so ``SLOW`` output can be
correlated back to the exact client call that caused it; the last
stamped id is kept on ``client.last_trace``.  Servers that predate the
field simply strip or ignore it — metadata is reserved, never an
argument.

The admin plane rides the same socket: :meth:`DirectoryClient.stats`
(windowed rates and per-shard breakdown), :meth:`DirectoryClient.slow`
(slowest recent ops, sampled ones with their span trees), and
:meth:`DirectoryClient.metrics` (raw registry snapshot) decode the
JSON bulk replies of ``STATS`` / ``SLOW`` / ``METRICS``.

Both clients are also *epoch-aware*: on the first keyed operation they
fetch the server's shard map (``SHARDMAP``) and from then on stamp the
cached epoch onto every keyed request as ``@epoch=<n>`` metadata.  When
a live reshard moves the key's range, the server answers ``-MOVED
<epoch>``; the client refreshes its map and retries transparently
(counted on ``client.redirects``), so a migration is invisible to
callers.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import itertools
import json
import operator
import re
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    StaleEpochError,
)
from repro.service import protocol
from repro.service.protocol import ReplyError


class ServiceUnavailableError(NetworkError):
    """The service answered ``-UNAVAILABLE`` (quorum loss, node down)."""


class _TraceStamper:
    """Per-connection trace-id source: ``<8 hex chars>-<seq>``."""

    def __init__(self) -> None:
        self._prefix = uuid.uuid4().hex[:8]
        self._seq = itertools.count(1)

    def next(self) -> str:
        return f"{self._prefix}-{next(self._seq)}"


def _raise_reply(reply: Any) -> Any:
    """Map error replies onto the repo's exception types."""
    if isinstance(reply, ReplyError):
        if reply.code == "KEYEXISTS":
            raise KeyAlreadyPresentError(reply.detail)
        if reply.code == "NOTFOUND":
            raise KeyNotPresentError(reply.detail)
        if reply.code == "UNAVAILABLE":
            raise ServiceUnavailableError(reply.detail)
        raise reply
    return reply


#: Reply metadata: a trailing `` @epoch=<n>`` on a simple string.  Array
#: replies instead carry a trailing ``@epoch=<n>`` element.
_EPOCH_REPLY = re.compile(r"\A(.*) @epoch=(\d{1,18})\Z", re.DOTALL)
_EPOCH_ELEMENT = re.compile(r"\A@epoch=(\d{1,18})\Z")

#: How many ``-MOVED`` redirects one pipelined slot — a keyed call is a
#: burst of one — will chase before giving up.  Each redirect refreshes
#: the shard map, so more than a couple in a row means the server is
#: resharding faster than we can follow.
_MAX_REDIRECTS = 3


class PipelineResult:
    """One queued op's slot in a pipelined burst.

    Resolved by :meth:`Pipeline.flush` /
    :meth:`AsyncPipeline.flush`; :meth:`result` then returns the op's
    decoded value or re-raises the exact exception the sequential call
    would have raised.
    """

    __slots__ = ("_value", "_error", "_done")

    def __init__(self) -> None:
        self._done = False
        self._value: Any = None
        self._error: "BaseException | None" = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def error(self) -> "BaseException | None":
        return self._error

    @property
    def ok(self) -> bool:
        """True once resolved without an error (mirrors
        :attr:`repro.core.batch.BatchOutcome.ok`)."""
        return self._done and self._error is None

    def result(self) -> Any:
        if not self._done:
            raise RuntimeError("pipeline not flushed yet")
        if self._error is not None:
            raise self._error
        return self._value

    def _resolve(self, value: Any) -> None:
        self._value = value
        self._done = True

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._done = True


def _decode_lookup(reply: Any) -> tuple[bool, Any]:
    present, value = reply
    return (present == "1", value)


def _decode_ok(reply: Any) -> None:
    return None


def _decode_value(reply: Any) -> Any:
    return reply


def _decode_count(reply: Any) -> bool:
    return reply == 1


@dataclass(slots=True)
class _QueuedOp:
    """A keyed command queued in a pipeline, awaiting its burst."""

    parts: tuple[str, ...]
    key: str
    decode: Callable[[Any], Any]
    handle: PipelineResult = field(default_factory=PipelineResult)


class AsyncPipeline:
    """Queue keyed ops; flush them as one pipelined burst.

    Obtained from :meth:`AsyncDirectoryClient.pipeline`.  The queueing
    methods mirror the client's keyed surface but perform no I/O: each
    returns a :class:`PipelineResult` immediately.  :meth:`flush`
    writes every queued frame in a single buffer, reads the replies in
    order, and resolves each slot independently; exiting the ``async
    with`` block cleanly flushes implicitly.  The pipeline is reusable
    — ops queued after a flush form the next burst.
    """

    def __init__(self, client: "AsyncDirectoryClient") -> None:
        self._client = client
        self._ops: "list[_QueuedOp]" = []

    def __len__(self) -> int:
        return len(self._ops)

    def _queue(
        self, decode: Callable[[Any], Any], *parts: str
    ) -> PipelineResult:
        op = _QueuedOp(parts, parts[1], decode)
        self._ops.append(op)
        return op.handle

    # -- the queued keyed surface (no I/O until flush) -----------------------

    def lookup(self, key: str) -> PipelineResult:
        return self._queue(_decode_lookup, "LOOKUP", key)

    def insert(self, key: str, value: str) -> PipelineResult:
        return self._queue(_decode_ok, "INSERT", key, value)

    def update(self, key: str, value: str) -> PipelineResult:
        return self._queue(_decode_ok, "UPDATE", key, value)

    def delete(self, key: str) -> PipelineResult:
        return self._queue(_decode_ok, "DELETE", key)

    def get(self, key: str) -> PipelineResult:
        return self._queue(_decode_value, "GET", key)

    def set(self, key: str, value: str) -> PipelineResult:
        return self._queue(_decode_ok, "SET", key, value)

    def remove(self, key: str) -> PipelineResult:
        return self._queue(_decode_count, "DEL", key)

    # -- the burst -----------------------------------------------------------

    async def flush(self) -> "list[PipelineResult]":
        """Send every queued op as one burst; resolve and return slots.

        Replies are read positionally — exactly one per request, in
        request order — so per-slot errors never desync the burst.
        Slots answered ``-MOVED`` are re-issued (only them) as a
        follow-up burst after a shard-map refresh, up to
        :data:`_MAX_REDIRECTS` rounds; a slot still moving after that
        fails with :class:`StaleEpochError`.
        """
        ops, self._ops = self._ops, []
        if not ops:
            return []
        client = self._client
        pending = ops
        try:
            if client.epoch is None:
                await client.shardmap()
            for round_no in range(_MAX_REDIRECTS + 1):
                if not pending:
                    break
                if round_no > 0:
                    await client.shardmap(refresh=True)
                buf = bytearray()
                for op in pending:
                    client.last_trace = client._stamper.next()
                    buf += protocol.encode_command(
                        *op.parts,
                        f"@trace={client.last_trace}",
                        f"@epoch={client.epoch}",
                    )
                client._writer.write(bytes(buf))
                await client._writer.drain()
                replies = [await client._read_frame() for _ in pending]
                moved: "list[_QueuedOp]" = []
                for op, reply in zip(pending, replies):
                    if isinstance(reply, ReplyError) and reply.code == "MOVED":
                        client.redirects += 1
                        moved.append(op)
                        continue
                    reply = client._strip_epoch(reply)
                    try:
                        op.handle._resolve(op.decode(_raise_reply(reply)))
                    except Exception as exc:
                        op.handle._fail(exc)
                pending = moved
        except BaseException as exc:
            # The wire broke mid-burst: no reply slot will ever resolve,
            # so fail them all with the transport error and re-raise.
            for op in ops:
                if not op.handle.done:
                    op.handle._fail(exc)
            raise
        for op in pending:  # still -MOVED after every refresh
            op.handle._fail(StaleEpochError(client.epoch, key=op.key))
        return [op.handle for op in ops]

    async def __aenter__(self) -> "AsyncPipeline":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.flush()


class AsyncDirectoryClient:
    """Asyncio client — the primary implementation; open with :meth:`connect`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout: "float | None" = 30.0,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._timeout = timeout
        self._closed = False
        self._stamper = _TraceStamper()
        #: The trace id stamped onto the most recent request, if any.
        self.last_trace: "str | None" = None
        self._map: "dict[str, Any] | None" = None
        #: The shard-map epoch this client last saw from the server.
        self.epoch: "int | None" = None
        #: How many ``-MOVED`` redirects this client has chased.
        self.redirects = 0

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7379,
        *,
        timeout: "float | None" = 30.0,
    ) -> "AsyncDirectoryClient":
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        return cls(reader, writer, timeout=timeout)

    def pipeline(self) -> AsyncPipeline:
        """A fresh :class:`AsyncPipeline` bound to this connection."""
        return AsyncPipeline(self)

    async def _read_frame(self) -> Any:
        return await asyncio.wait_for(
            protocol.read_frame(self._reader), self._timeout
        )

    async def _request(self, *parts: str) -> Any:
        self.last_trace = trace = self._stamper.next()
        self._writer.write(protocol.encode_command(*parts, f"@trace={trace}"))
        await self._writer.drain()
        return _raise_reply(await self._read_frame())

    def _note_epoch(self, epoch: int) -> None:
        if epoch != self.epoch:
            self._map = None
        self.epoch = epoch

    def _strip_epoch(self, reply: Any) -> Any:
        """Adopt and remove ``@epoch=`` reply metadata, if stamped."""
        if isinstance(reply, str):
            match = _EPOCH_REPLY.fullmatch(reply)
            if match is not None:
                self._note_epoch(int(match.group(2)))
                return match.group(1)
        elif isinstance(reply, list) and reply and isinstance(reply[-1], str):
            match = _EPOCH_ELEMENT.fullmatch(reply[-1])
            if match is not None:
                self._note_epoch(int(match.group(1)))
                return reply[:-1]
        return reply

    async def _alone(
        self, queue: Callable[..., PipelineResult], *args: str
    ) -> Any:
        """One keyed op as a burst of one: ``queue`` (an
        :class:`AsyncPipeline` method) on a fresh pipeline, flushed, so
        it chases ``-MOVED`` exactly as a pipelined slot does."""
        pipeline = AsyncPipeline(self)
        slot = queue(pipeline, *args)
        await pipeline.flush()
        return slot.result()

    # -- the Directory surface ----------------------------------------------

    async def lookup(self, key: str) -> tuple[bool, Any]:
        return await self._alone(AsyncPipeline.lookup, key)

    async def insert(self, key: str, value: str) -> None:
        await self._alone(AsyncPipeline.insert, key, value)

    async def update(self, key: str, value: str) -> None:
        await self._alone(AsyncPipeline.update, key, value)

    async def delete(self, key: str) -> None:
        await self._alone(AsyncPipeline.delete, key)

    async def size(self) -> int:
        return await self._request("SIZE")

    # -- service extras ------------------------------------------------------

    async def ping(self) -> bool:
        return await self._request("PING") == "PONG"

    async def get(self, key: str) -> "str | None":
        return await self._alone(AsyncPipeline.get, key)

    async def set(self, key: str, value: str) -> None:
        await self._alone(AsyncPipeline.set, key, value)

    async def remove(self, key: str) -> bool:
        """Lenient delete (``DEL``): True if the key was present."""
        return await self._alone(AsyncPipeline.remove, key)

    async def shards(self) -> int:
        return await self._request("SHARDS")

    async def shardmap(self, *, refresh: bool = False) -> dict[str, Any]:
        """``SHARDMAP``: the server's routing map, cached by epoch."""
        if self._map is None or refresh:
            info = json.loads(await self._request("SHARDMAP"))
            self._map = info
            self.epoch = info["epoch"]
        return self._map

    async def reshard(self, boundary: str) -> dict[str, Any]:
        """``RESHARD SPLIT boundary``: run a live split to completion."""
        result = json.loads(
            await self._request("RESHARD", "SPLIT", boundary)
        )
        self._note_epoch(result["epoch"])
        return result

    async def reshard_status(self) -> dict[str, Any]:
        """``RESHARD STATUS``: epoch, migration count, in-flight phase."""
        return json.loads(await self._request("RESHARD", "STATUS"))

    async def rejoin(self, replica: str, shard: int = 0) -> str:
        """Admin verb: rejoin ``replica`` on ``shard``; returns its state."""
        target = f"s{shard}/{replica}" if shard else replica
        return await self._request("REJOIN", target)

    # -- the admin/telemetry plane -------------------------------------------

    async def stats(self, window: "float | None" = None) -> dict[str, Any]:
        """``STATS [window]``: windowed rates + per-shard breakdown."""
        parts = ("STATS",) if window is None else ("STATS", str(window))
        return json.loads(await self._request(*parts))

    async def slow(self, n: int = 10) -> list[dict[str, Any]]:
        """``SLOW n``: the slowest recent ops, each with its root span
        (and the tree below it when its wave was sampled)."""
        return json.loads(await self._request("SLOW", str(n)))

    async def metrics(self) -> dict[str, Any]:
        """``METRICS``: the server's raw registry snapshot."""
        return json.loads(await self._request("METRICS"))

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncDirectoryClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


class Pipeline(AsyncPipeline):
    """The blocking face of :class:`AsyncPipeline`.

    Obtained from :meth:`DirectoryClient.pipeline`.  The queueing
    methods are inherited — they perform no I/O — and :meth:`flush`
    runs the burst on the client's private event loop.  Exiting the
    ``with`` block cleanly flushes implicitly.
    """

    def __init__(self, client: "DirectoryClient") -> None:
        super().__init__(client._inner)
        self._run = client._run

    def flush(self) -> "list[PipelineResult]":
        return self._run(super().flush())

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()


class DirectoryClient:
    """Blocking client; a remote :class:`Directory` on one socket.

    It owns a private event loop and an :class:`AsyncDirectoryClient`
    — one implementation of the protocol, two calling conventions.
    Only the lifecycle is written out here; every verb is generated
    from the async client below the class.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7379,
        *,
        timeout: "float | None" = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self._closed = False
        self._loop = asyncio.new_event_loop()
        try:
            self._inner = self._run(
                AsyncDirectoryClient.connect(host, port, timeout=timeout)
            )
        except BaseException:
            self._loop.close()
            raise

    def _run(self, coro: Any) -> Any:
        return self._loop.run_until_complete(coro)

    def pipeline(self) -> Pipeline:
        """A fresh :class:`Pipeline` bound to this connection."""
        return Pipeline(self)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._run(self._inner.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "DirectoryClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _blocking(method: Any) -> Any:
    """The blocking face of one :class:`AsyncDirectoryClient` coroutine."""

    @functools.wraps(method)
    def call(self: DirectoryClient, *args: Any, **kwargs: Any) -> Any:
        return self._run(method(self._inner, *args, **kwargs))

    return call


# Every coroutine of the async client that DirectoryClient does not
# define itself (``_request`` included: it is how a script sends a verb
# the client has no method for), then its documented state, read-only.
for _name, _member in vars(AsyncDirectoryClient).items():
    if (
        inspect.iscoroutinefunction(_member)
        and not _name.startswith("__")
        and _name not in vars(DirectoryClient)
    ):
        setattr(DirectoryClient, _name, _blocking(_member))
for _name in ("last_trace", "epoch", "redirects"):
    _read = operator.attrgetter(f"_inner.{_name}")
    setattr(DirectoryClient, _name, property(_read))
