"""The wall-clock directory service: the paper's algorithm behind a real socket.

The simulated stack runs the quorum algorithm on virtual time; this
package runs the *same* algorithm (same suite, same representatives,
same 2PC) as a long-lived networked service:

* :mod:`repro.service.wire` — JSON codec for the values a replica RPC
  carries (bounded keys, entries, replies, errors); unused while every
  replica is co-located, kept for the remote-process transport;
* :mod:`repro.service.protocol` — the redis-like RESP framing the front
  door speaks;
* :mod:`repro.service.aio` — :class:`~repro.service.aio.AsyncioTransport`,
  the simulator's :class:`~repro.net.network.Network` on a wall clock
  plus the event loop the front door serves from, hosting
  representatives in this process and calling them directly;
* :mod:`repro.service.server` — the client-facing front door
  (``GET``/``SET``/``DEL``/``LOOKUP``/``INSERT``/...), one suite
  front-end per shard, plus its live-telemetry plane (the
  ``STATS``/``SLOW``/``METRICS`` admin verbs behind ``repro top``);
* :mod:`repro.service.client` — the client library
  (:class:`~repro.service.client.DirectoryClient` and its asyncio twin);
* :mod:`repro.service.loadgen` — the closed-loop load generator behind
  ``python -m repro load`` and ``BENCH_service.json``.
"""

from repro.service.aio import AsyncioTransport, WallClock

__all__ = ["AsyncioTransport", "WallClock"]
