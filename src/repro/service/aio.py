"""The wall-clock transport: co-located representatives, called directly.

:class:`AsyncioTransport` implements the
:class:`~repro.net.transport.Transport` protocol in real time for nodes
that live in *this* process.  It keeps a node registry (services, up /
down) as a simulated :class:`~repro.net.node.Node` does, and an RPC to a
node it hosts is a method call on the hosted service, made on the
calling thread: no socket, no codec, no thread hop.  One logical message
is still one ``service.rpc.calls`` bump, so the paper's message cost
reads as it did when every call crossed loopback TCP.

Threading model.  The transport owns one event loop on a background
thread; the client-facing front door (:mod:`repro.service.server`) puts
its listening socket there through :meth:`AsyncioTransport.submit` and
serves from that thread alone — its suites, and through them the hosted
replicas, run as loop callbacks.  The transport itself has no opinion:
suite front-ends are synchronous, a hosted method executes on whichever
thread called it (the loop under the front door, ordinary threads when a
directory is driven directly), and what serializes the calls landing on
one node is the hosted service's own lock — a representative's
``_latch``, which every RPC-reachable method takes.  Arguments and
results are shared by reference, so a hosted method must neither keep a
caller's container nor hand out its own.

The fault surface maps onto the existing hierarchy:

* target node crashed (or never registered) →
  :class:`~repro.core.errors.NodeDownError`, raised before the call is
  counted — nothing was sent;
* origin node crashed → :class:`~repro.core.errors.OriginDownError`;
* application exceptions propagate to the caller as themselves.

There is no :class:`~repro.core.errors.RpcTimeoutError` here: a call
between co-located nodes cannot be lost or late, it returns or raises.
Ambiguous outcomes belong to transports with a wire under them (today,
the simulator's lossy network).

Time is :class:`WallClock`: real seconds since the transport started,
with simulated ticks mapped onto short real sleeps.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable

from repro.core.errors import NetworkError, NodeDownError, OriginDownError
from repro.net.node import CrashAware
from repro.net.rpc import RpcCall, RpcReply
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_TRACER


#: Real seconds one simulated tick sleeps for under :class:`WallClock`.
#: Retry backoff is written in ticks (``RetryPolicy``: 10 rising to 500);
#: at a millisecond each that is 10 ms to half a second of real waiting,
#: the range a retry against a live socket wants.
_TICK_SECONDS = 0.001


class WallClock:
    """Real time presented through the :class:`~repro.net.transport.Clock` slice.

    ``now`` is monotonic seconds since construction.  ``advance`` maps
    simulated ticks onto short real sleeps (``_TICK_SECONDS`` each) so
    backoff loops written for the simulator behave sanely; ``advance_to``
    sleeps until the target instant, never backwards.
    """

    def __init__(self) -> None:
        self._epoch = time.monotonic()

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def advance(self, delta: float) -> float:
        if delta > 0:
            time.sleep(delta * _TICK_SECONDS)
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
    """One node: its hosted services and whether it is running."""

    __slots__ = ("node_id", "services", "up")

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.services: dict[str, Any] = {}
        self.up = True


class AsyncioTransport:
    """In-process substrate satisfying the ``Transport`` protocol."""

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = WallClock()
        self._nodes: dict[str, _AioNode] = {}
        self._closed = False
        self._lock = threading.Lock()
        self._calls = self._metrics.counter("service.rpc.calls")
        self._errors = self._metrics.counter("service.rpc.errors")
        self._latency = self._metrics.histogram("service.rpc.seconds")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-aio-transport", daemon=True
        )
        self._thread.start()

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
            if node_id not in self._nodes and not self._closed:
                self._nodes[node_id] = _AioNode(node_id)

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
        # Queued even if the thread has not entered the loop yet, so a
        # transport closed straight after construction still stops.
        try:
            asyncio.run_coroutine_threadsafe(
                self._settle(), self._loop
            ).result(timeout=10)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        if not self._loop.is_running():
            self._loop.close()

    async def _settle(self) -> None:
        """Let what a front door left on the loop (connection handlers
        that have just been fed EOF) finish before the loop stops."""
        current = asyncio.current_task()
        stragglers = [t for t in asyncio.all_tasks() if t is not current]
        if stragglers:
            await asyncio.wait(stragglers, timeout=5)

    def _node(self, node_id: str) -> _AioNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"unknown node {node_id!r}") from None

    # -- the call ------------------------------------------------------------

    def invoke(
        self, node_id: str, service_name: str, method: str, args: tuple, kwargs: dict
    ) -> Any:
        """One logical message: run ``service.method`` on the calling thread.

        A down (or unknown) target is refused before anything is
        counted; everything after that is one call in
        ``service.rpc.calls`` and one sample — the method's execution
        time — in ``service.rpc.seconds``.
        """
        node = self._nodes.get(node_id)
        if node is None or not node.up:
            raise NodeDownError(node_id)
        started = time.perf_counter()
        self._calls.inc()
        try:
            return getattr(node.services[service_name], method)(*args, **kwargs)
        except NetworkError:
            self._errors.inc()
            raise
        finally:
            self._latency.observe(time.perf_counter() - started)


class _AsyncioBatch:
    """A completed scatter round over the asyncio transport.

    Every member has already run, in issue order, by the time the batch
    is returned (the wall-clock analogue of the simulator's eager member
    simulation); the ``complete_*`` gathers just select which replies
    the caller waits on.
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
        # Members ran one after another, so issue order is arrival order.
        waited: list[RpcReply] = []
        got = 0
        for reply in self.replies:
            if not reply.ok:
                continue
            waited.append(reply)
            got += weight_of(reply)
            if got >= target:
                self.waited = waited
                return waited, True
        self.waited = list(self.replies)
        return self.waited, False


class AsyncioEndpoint:
    """The ``RpcEndpoint`` calling surface over :class:`AsyncioTransport`.

    Owned by one synchronous caller (a suite front-end or the 2PC
    coordinator).  ``call`` runs the hosted method on the calling thread;
    ``scatter`` walks its members in issue order, so a "parallel" round
    costs the sum of its members here — between co-located nodes there
    is no wire time to overlap.
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
                return self.transport.invoke(
                    node_id, service_name, method, args, kwargs
                )
        return self.transport.invoke(node_id, service_name, method, args, kwargs)

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
        invoke = self.transport.invoke
        now = self.transport.clock.now
        started = now()
        replies = []
        for call in calls:
            reply = RpcReply(call)
            reply.attempts = 1
            try:
                reply.value = invoke(
                    call.node_id,
                    call.service_name,
                    call.method,
                    call.args,
                    call.kwargs,
                )
            except NodeDownError as exc:
                reply.error = exc  # refused: nothing ran, nothing to enlist
            except Exception as exc:
                reply.error = exc
                reply.app_error = True
                reply.effect_applied = True
            else:
                reply.effect_applied = True
            reply.arrival = now()
            replies.append(reply)
        return _AsyncioBatch(replies, started)

    def __repr__(self) -> str:
        return f"AsyncioEndpoint(origin={self.origin!r})"
