"""The wall-clock transport: the simulator's network, run in real time.

:class:`AsyncioTransport` is a :class:`~repro.net.network.Network` that
reads a :class:`WallClock` and has free links (``uniform_latency(0.0)``),
plus the event loop the front door serves from.  Served replicas
therefore run on exactly the substrate the simulator's do: the same node
registry, the same :class:`~repro.net.rpc.RpcEndpoint` and scatter, the
same traffic ledger, partitions and crash/recover.  An RPC to a hosted
node is a method call on the hosted service, made on the calling thread:
no socket, no codec, no thread hop.  ``service.rpc.calls`` is a gauge
over the network's ``rpc_rounds``, so the paper's message cost reads as
it did when every call crossed loopback TCP.  The ledger is bumped
without a lock, and is exact: one thread at a time calls through a
network (the front door's loop thread, or the client holding the baton
in :mod:`repro.sim.threads`).

Threading model.  The transport owns one event loop on a background
thread; the client-facing front door (:mod:`repro.service.server`) puts
its listening socket there through :meth:`AsyncioTransport.submit` and
serves from that thread alone — its suites, and through them the hosted
replicas, run as loop callbacks.  The transport itself has no opinion:
suite front-ends are synchronous and a hosted method executes on
whichever thread called it.  Nothing serializes two callers: a hosted
representative takes no lock, so a directory that a front door serves is
driven from the loop (:meth:`AsyncioTransport.submit`) or while the
front door is idle, never from a second thread at the same time.
Arguments and results are shared by reference, so a hosted method must
neither keep a caller's container nor hand out its own.

The fault surface is the network's: a crashed or partitioned target
raises :class:`~repro.core.errors.NodeDownError` before anything is
counted, a crashed origin :class:`~repro.core.errors.OriginDownError`,
and application exceptions ride back to the caller as themselves.  No
fault model is installed, so nothing is lost or late: a co-located call
returns or raises.  (``Network.rpc_timeout`` is in ticks while
:meth:`WallClock.advance_to` waits in seconds, so lossy links stay a
simulator-only experiment.)
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any

from repro.net.network import Network, uniform_latency
from repro.net.rpc import RpcEndpoint
from repro.obs.metrics import MetricsRegistry


#: Real seconds one simulated tick sleeps for under :class:`WallClock`.
#: Retry backoff is written in ticks (``RetryPolicy``: 10 rising to 500);
#: at a millisecond each that is 10 ms to half a second of real waiting,
#: the range a retry against a live socket wants.
_TICK_SECONDS = 0.001


class WallClock:
    """Real time presented through the :class:`~repro.net.clock.Clock` slice.

    ``now`` is :func:`time.monotonic` itself, so a served clock read is
    one C call; only differences of it mean anything (``STATS`` reports
    its uptime as one).  ``advance`` maps simulated ticks onto short real
    sleeps (``_TICK_SECONDS`` each) so backoff loops written for the
    simulator behave sanely; ``advance_to`` sleeps until the target
    instant, never backwards.
    """

    now = staticmethod(time.monotonic)

    def advance(self, delta: float) -> float:
        if delta > 0:
            time.sleep(delta * _TICK_SECONDS)
        return self.now()

    def advance_to(self, when: float) -> float:
        # A gather's arrivals on free links are the instant its scatter
        # was issued, already past by the time it is gathered; a future
        # instant is waited out for real.
        now = self.now()
        if when > now:
            time.sleep(min(when - now, 1.0))
            now = self.now()
        return now


class AsyncioTransport(Network):
    """A :class:`Network` on a wall clock, plus the front door's loop."""

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        super().__init__(
            clock=WallClock(), latency=uniform_latency(0.0), metrics=metrics
        )
        stats = self.stats
        self.metrics.gauge("service.rpc.calls", lambda: stats.rpc_rounds)
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-aio-transport", daemon=True
        )
        self._thread.start()

    def submit(self, coro: Any) -> Any:
        """Run a coroutine on the loop from any thread; returns its result."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def endpoint(self, origin: str = "client", tracer: Any = None) -> "AsyncioEndpoint":
        return AsyncioEndpoint(self, origin=origin, tracer=tracer)

    def close(self) -> None:
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


class AsyncioEndpoint(RpcEndpoint):
    """The simulator's :class:`RpcEndpoint`, handed out by :class:`AsyncioTransport`."""

    #: No behaviour of their own: the reference benchmark's span pass
    #: wraps ``call`` and ``scatter`` by looking them up in this class's
    #: own dict, so the names stay here.
    call = RpcEndpoint.call
    scatter = RpcEndpoint.scatter
