"""The wall-clock transport: representatives as asyncio socket servers.

:class:`AsyncioTransport` implements the
:class:`~repro.net.transport.Transport` protocol over real sockets and
real time.  One event loop runs in a dedicated background thread; every
*node* is an asyncio server bound to an ephemeral loopback port, hosting
its services exactly as a simulated :class:`~repro.net.node.Node` does.
Suite front-ends (which are synchronous) run in ordinary threads and
marshal each RPC into the loop with ``run_coroutine_threadsafe``; the
remote method executes *in the loop thread*, which serializes every call
landing on a node the way a one-thread-per-node server would — and is
what makes representative state thread-safe without locks.

The fault surface maps onto the existing hierarchy:

* target node crashed (or never registered) →
  :class:`~repro.core.errors.NodeDownError` — a crashed node's server
  answers ``-NODEDOWN`` but performs nothing, and a vanished connection
  counts the same;
* origin node crashed → :class:`~repro.core.errors.OriginDownError`;
* no reply within ``rpc_timeout`` wall seconds →
  :class:`~repro.core.errors.RpcTimeoutError` — like its simulated twin
  this is *ambiguous*: the request may or may not have executed, so
  scatter replies conservatively mark ``effect_applied`` and 2PC reaches
  the node to resolve it;
* application exceptions ride the ``-APPERR`` reply back, re-raised as
  their original class (:mod:`repro.service.wire`).

Wire format, per call: a RESP array ``[service, method, payload]`` where
``payload`` is one JSON document holding the encoded ``(args, kwargs)``;
the reply is a bulk string holding the encoded result, or an error
frame.  Connections are pooled per target node and reused; a per-node
semaphore (``channels_per_node``, default 8) caps how many are open at
once, so a wide grouped scatter multiplexes onto the pooled channels
instead of opening one socket per in-flight call.

Time: :class:`WallClock` counts *seconds* since the transport started.
``advance(delta)`` cannot push real time, so it sleeps ``delta *
tick_seconds`` (default 1 ms per simulated tick) — retry backoff written
against the simulated clock stays a real, bounded backoff here.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable

from repro.core.errors import (
    NetworkError,
    NodeDownError,
    OriginDownError,
    RpcTimeoutError,
)
from repro.net.node import CrashAware
from repro.net.rpc import RpcCall, RpcReply
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_TRACER
from repro.service import protocol, wire


class WallClock:
    """Real time presented through the :class:`~repro.net.transport.Clock` slice.

    ``now`` is monotonic seconds since construction.  ``advance`` maps
    simulated ticks onto short real sleeps (``tick_seconds`` each) so
    backoff loops written for the simulator behave sanely; ``advance_to``
    sleeps until the target instant, never backwards.
    """

    def __init__(self, tick_seconds: float = 0.001) -> None:
        self.tick_seconds = tick_seconds
        self._epoch = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def advance(self, delta: float) -> float:
        if delta > 0:
            time.sleep(delta * self.tick_seconds)
        return self.now()

    def advance_to(self, when: float) -> float:
        # Hedged-gather straggler deadlines are wall instants already
        # reached by the time the caller waits on them; a future instant
        # is waited out for real.
        remaining = when - self.now()
        if remaining > 0:
            time.sleep(min(remaining, 1.0))
        return self.now()


class _AioNode:
    """One node: an asyncio server plus its hosted services."""

    def __init__(self, node_id: str, channels: int) -> None:
        self.node_id = node_id
        self.services: dict[str, Any] = {}
        self.up = True
        self.server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        #: Idle pooled client connections to this node.
        self.pool: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        #: Caps concurrent outbound RPCs — a grouped scatter of K calls
        #: multiplexes onto at most ``channels`` pooled connections
        #: instead of opening K sockets at once.
        self.gate = asyncio.Semaphore(channels)
        #: Server-side writers of live inbound connections (for shutdown).
        self.links: set[asyncio.StreamWriter] = set()


class AsyncioTransport:
    """Loopback socket substrate satisfying the ``Transport`` protocol."""

    def __init__(
        self,
        *,
        metrics: MetricsRegistry | None = None,
        host: str = "127.0.0.1",
        rpc_timeout: float = 10.0,
        tick_seconds: float = 0.001,
        channels_per_node: int = 8,
    ) -> None:
        if channels_per_node < 1:
            raise ValueError(
                f"channels_per_node must be >= 1: {channels_per_node}"
            )
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = WallClock(tick_seconds)
        self.host_addr = host
        self.rpc_timeout = rpc_timeout
        self.channels_per_node = channels_per_node
        self._nodes: dict[str, _AioNode] = {}
        self._closed = False
        self._lock = threading.Lock()
        self._calls = self._metrics.counter("service.rpc.calls")
        self._errors = self._metrics.counter("service.rpc.errors")
        self._latency = self._metrics.histogram("service.rpc.seconds")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-aio-transport", daemon=True
        )
        self._thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The transport's event loop (front doors attach servers here)."""
        return self._loop

    def submit(self, coro: Any) -> Any:
        """Run a coroutine on the loop from any thread; returns its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    # -- Transport protocol --------------------------------------------------

    @property
    def clock(self) -> WallClock:
        return self._clock

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def endpoint(self, origin: str = "client", tracer: Any = None) -> "AsyncioEndpoint":
        return AsyncioEndpoint(self, origin=origin, tracer=tracer)

    def ensure_node(self, node_id: str) -> None:
        with self._lock:
            if node_id in self._nodes or self._closed:
                return
            node = _AioNode(node_id, self.channels_per_node)
            self._nodes[node_id] = node
        self.submit(self._start_server(node))

    def host(self, node_id: str, service_name: str, service: Any) -> None:
        node = self._node(node_id)
        if service_name in node.services:
            raise ValueError(
                f"service {service_name!r} already hosted on {node_id}"
            )
        node.services[service_name] = service

    def local_service(self, node_id: str, service_name: str) -> Any:
        node = self._node(node_id)
        if not node.up:
            raise NodeDownError(node_id)
        try:
            return node.services[service_name]
        except KeyError:
            raise KeyError(
                f"no service {service_name!r} on node {node_id}"
            ) from None

    def is_up(self, node_id: str) -> bool:
        return self._node(node_id).up

    def reachable(self, src: str, dst: str) -> bool:
        src_node = self._nodes.get(src)
        if src_node is not None and not src_node.up:
            return False
        dst_node = self._nodes.get(dst)
        return dst_node is not None and dst_node.up

    def crash(self, node_id: str) -> None:
        node = self._node(node_id)
        if not node.up:
            return
        node.up = False
        for service in node.services.values():
            if isinstance(service, CrashAware):
                service.on_crash()

    def recover(self, node_id: str) -> None:
        node = self._node(node_id)
        if node.up:
            return
        for service in node.services.values():
            if isinstance(service, CrashAware):
                service.on_recover()
        node.up = True

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._loop.is_running():
            try:
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop
                ).result(timeout=10)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if not self._loop.is_running():
            self._loop.close()

    async def _shutdown(self) -> None:
        for node in self._nodes.values():
            for reader, writer in node.pool:
                writer.close()
            node.pool.clear()
            if node.server is not None:
                node.server.close()
                await node.server.wait_closed()
            # Closing the inbound writers feeds EOF to their handlers,
            # which exit on their own — cancelling them instead trips
            # the 3.11 streams done-callback on cancelled tasks.
            for writer in list(node.links):
                writer.close()
        current = asyncio.current_task()
        stragglers = [t for t in asyncio.all_tasks() if t is not current]
        if stragglers:
            await asyncio.wait(stragglers, timeout=5)

    # -- server side ---------------------------------------------------------

    def _node(self, node_id: str) -> _AioNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    async def _start_server(self, node: _AioNode) -> None:
        server = await asyncio.start_server(
            lambda r, w: self._serve_connection(node, r, w),
            host=self.host_addr,
            port=0,
        )
        node.server = server
        node.port = server.sockets[0].getsockname()[1]

    async def _serve_connection(
        self,
        node: _AioNode,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        node.links.add(writer)
        try:
            while True:
                try:
                    frame = await protocol.read_frame(reader)
                except (ConnectionError, asyncio.IncompleteReadError):
                    return
                except protocol.ProtocolError:
                    return  # framing is lost: hang up without a word
                writer.write(self._dispatch(node, frame))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            node.links.discard(writer)
            writer.close()

    def _dispatch(self, node: _AioNode, frame: Any) -> bytes:
        """Execute one RPC frame against a node; returns the reply bytes.

        Runs in the loop thread — one frame at a time per connection, and
        interleaved frame-at-a-time across connections, which serializes
        all mutation of this node's services.
        """
        if (
            not isinstance(frame, list)
            or len(frame) != 3
            or not all(isinstance(p, str) for p in frame)
        ):
            return protocol.encode_error("ERR", "malformed rpc frame")
        if not node.up:
            return protocol.encode_error("NODEDOWN", node.node_id)
        service_name, method, payload = frame
        try:
            service = node.services[service_name]
            args, kwargs = wire.load(payload)
            bound = getattr(service, method)
            result = bound(
                *[wire.decode_value(a) for a in args],
                **{k: wire.decode_value(v) for k, v in kwargs.items()},
            )
        except Exception as exc:  # application error: rides the reply back
            return protocol.encode_error(
                "APPERR", wire.dump(wire.encode_error(exc))
            )
        return protocol.encode_bulk(wire.dump(wire.encode_value(result)))

    # -- client side ---------------------------------------------------------

    async def _acquire(
        self, node: _AioNode
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        while node.pool:
            reader, writer = node.pool.pop()
            if not writer.is_closing():
                return reader, writer
        if node.port is None:
            raise NodeDownError(node.node_id)
        return await asyncio.open_connection(self.host_addr, node.port)

    def _release(
        self,
        node: _AioNode,
        conn: tuple[asyncio.StreamReader, asyncio.StreamWriter],
    ) -> None:
        if not conn[1].is_closing():
            node.pool.append(conn)

    async def call_async(
        self,
        node_id: str,
        service_name: str,
        method: str,
        args: tuple,
        kwargs: dict,
        timeout: float | None = None,
    ) -> Any:
        """One RPC over the socket; raises the mapped error hierarchy."""
        node = self._nodes.get(node_id)
        if node is None or not node.up:
            raise NodeDownError(node_id)
        payload = wire.dump(
            [
                [wire.encode_value(a) for a in args],
                {k: wire.encode_value(v) for k, v in kwargs.items()},
            ]
        )
        request = protocol.encode_command(service_name, method, payload)
        budget = self.rpc_timeout if timeout is None else timeout
        started = time.perf_counter()
        self._calls.inc()
        try:
            conn = None
            # The per-node gate multiplexes wide scatters onto a bounded
            # channel pool instead of one socket per in-flight call.
            async with node.gate:
                try:
                    conn = await self._acquire(node)
                    reader, writer = conn
                    writer.write(request)
                    await writer.drain()
                    reply = await asyncio.wait_for(
                        protocol.read_frame(reader), timeout=budget
                    )
                except asyncio.TimeoutError:
                    if conn is not None:
                        conn[1].close()
                        conn = None
                    raise RpcTimeoutError(
                        node_id, method=f"{service_name}.{method}"
                    ) from None
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    if conn is not None:
                        conn[1].close()
                        conn = None
                    raise NodeDownError(node_id) from None
                finally:
                    if conn is not None:
                        self._release(node, conn)
        except NetworkError:
            self._errors.inc()
            raise
        finally:
            self._latency.observe(time.perf_counter() - started)
        if isinstance(reply, protocol.ReplyError):
            if reply.code == "NODEDOWN":
                raise NodeDownError(node_id)
            if reply.code == "APPERR":
                raise wire.decode_error(wire.load(reply.detail))
            raise protocol.ProtocolError(str(reply))
        return wire.decode_value(wire.load(reply))


class _AsyncioBatch:
    """A completed scatter round over the asyncio transport.

    All members were issued concurrently and have already resolved by
    the time the batch is returned (the wall-clock analogue of the
    simulator's eager member simulation); the ``complete_*`` gathers
    just select which replies the caller waits on.
    """

    def __init__(self, replies: list[RpcReply], started: float) -> None:
        self.replies = replies
        self.started = started
        self.waited: list[RpcReply] = []

    @property
    def width(self) -> int:
        return len(self.replies)

    @property
    def lock_deadline(self) -> float:
        return max(
            (r.arrival for r in self.replies if r.effect_applied),
            default=self.started,
        )

    def complete_all(self) -> list[RpcReply]:
        self.waited = list(self.replies)
        return self.waited

    def complete_first(
        self, target: int, weight_of: Callable[[RpcReply], int]
    ) -> tuple[list[RpcReply], bool]:
        ranked = sorted(
            (r for r in self.replies if r.ok),
            key=lambda r: (r.arrival, self.replies.index(r)),
        )
        waited: list[RpcReply] = []
        got = 0
        for reply in ranked:
            waited.append(reply)
            got += weight_of(reply)
            if got >= target:
                self.waited = waited
                return waited, True
        self.waited = list(self.replies)
        return self.waited, False


class AsyncioEndpoint:
    """The ``RpcEndpoint`` calling surface, marshalled onto the loop.

    Owned by one synchronous caller (a suite front-end or the 2PC
    coordinator); ``call`` blocks the calling thread on the loop-side
    coroutine, ``scatter`` issues every member concurrently and blocks
    until all have resolved.
    """

    def __init__(
        self, transport: AsyncioTransport, origin: str = "client", tracer: Any = None
    ) -> None:
        self.transport = transport
        self.origin = origin
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.attempt = 0

    def bind_tracer(self, tracer: Any) -> None:
        """Install a tracer after construction.

        The front door builds its per-shard ring tracers only once it
        owns the directory, well after the cluster wired this endpoint;
        ``call`` reads ``self.tracer`` on every invocation, so rebinding
        takes effect immediately.
        """
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _check_origin(self) -> None:
        node = self.transport._nodes.get(self.origin)
        if node is not None and not node.up:
            raise OriginDownError(self.origin)

    def call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        payload_items: int = 1,
        **kwargs: Any,
    ) -> Any:
        self._check_origin()
        if self.tracer.enabled:
            with self.tracer.span(
                f"rpc:{service_name}.{method}",
                dst=node_id,
                origin=self.origin,
                payload_items=payload_items,
            ) as span:
                if self.attempt:
                    span.set("attempt", self.attempt)
                return self._invoke(node_id, service_name, method, args, kwargs)
        return self._invoke(node_id, service_name, method, args, kwargs)

    def _invoke(
        self, node_id: str, service_name: str, method: str, args: tuple, kwargs: dict
    ) -> Any:
        future = asyncio.run_coroutine_threadsafe(
            self.transport.call_async(
                node_id, service_name, method, args, kwargs
            ),
            self.transport._loop,
        )
        # wait_for inside the coroutine bounds the call; the outer margin
        # only guards against a wedged loop.
        return future.result(timeout=self.transport.rpc_timeout + 30.0)

    def try_call(
        self,
        node_id: str,
        service_name: str,
        method: str,
        *args: Any,
        default: Any = None,
        **kwargs: Any,
    ) -> Any:
        try:
            return self.call(node_id, service_name, method, *args, **kwargs)
        except NetworkError:
            return default

    def scatter(
        self, calls: list[RpcCall], label: str | None = None
    ) -> _AsyncioBatch:
        self._check_origin()
        clock = self.transport.clock
        started = clock.now()
        replies = [RpcReply(call) for call in calls]
        futures = [
            asyncio.run_coroutine_threadsafe(
                self._member(reply, clock), self.transport._loop
            )
            for reply in replies
        ]
        for future in futures:
            future.result(
                timeout=(self.transport.rpc_timeout + 30.0)
                * (1 + max((c.retries for c in calls), default=0))
            )
        return _AsyncioBatch(replies, started)

    async def _member(self, reply: RpcReply, clock: WallClock) -> None:
        """One scatter member's attempt chain, entirely on the loop."""
        call = reply.call
        budget = call.retries
        while True:
            reply.attempts += 1
            try:
                reply.value = await self.transport.call_async(
                    call.node_id,
                    call.service_name,
                    call.method,
                    call.args,
                    call.kwargs,
                )
            except RpcTimeoutError as exc:
                reply.timeouts += 1
                # Ambiguous outcome: the request may have executed, so
                # the member counts as effect-applied and 2PC will reach
                # the node to release whatever it holds.
                reply.effect_applied = True
                if budget > 0:
                    budget -= 1
                    continue
                reply.error = exc
            except NodeDownError as exc:
                reply.error = exc
            except Exception as exc:
                reply.error = exc
                reply.app_error = True
                reply.effect_applied = True
            else:
                reply.effect_applied = True
            reply.arrival = clock.now()
            return

    def __repr__(self) -> str:
        return f"AsyncioEndpoint(origin={self.origin!r})"
