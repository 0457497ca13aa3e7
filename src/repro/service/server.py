"""The client-facing front door: a sharded directory behind one socket.

:class:`DirectoryService` serves a
:class:`~repro.shard.sharded.ShardedDirectory` on an event loop.
:meth:`~DirectoryService.start` attaches a single listening socket to
the loop of the :class:`~repro.service.aio.AsyncioTransport` the
directory's representatives are hosted on; the same front door over a
simulated network serves whichever loop drives
:meth:`~DirectoryService._dispatch`.  Clients speak a redis-like protocol
(:mod:`repro.service.protocol`) with plain string commands — one row of
the verb table (:class:`_Verb`) each::

    PING                     -> +PONG
    LOOKUP key               -> *2  ("1"/"0", value or null bulk)
    INSERT key value         -> +OK          | -KEYEXISTS key
    UPDATE key value         -> +OK          | -NOTFOUND key
    DELETE key               -> +OK          | -NOTFOUND key
    GET key                  -> $value       | $-1
    SET key value            -> +OK             (insert-or-update)
    DEL key                  -> :1 / :0         (delete-if-present)
    SIZE                     -> :N
    SHARDS                   -> :N
    REJOIN [s<i>/]replica    -> +UP          | -ERR unknown replica ...
    STATS [window]           -> $json          (windowed rates, per shard)
    SLOW [n]                 -> $json          (slowest recent ops + roots)
    METRICS                  -> $json          (raw registry snapshot)
    SHARDMAP                 -> $json          (epoch, boundaries, owners)
    RESHARD STATUS           -> $json          (epoch + migration phase)
    RESHARD SPLIT boundary   -> $json          (live split, runs to DONE)

Requests may carry trailing ``@``-prefixed metadata elements (stripped
before arity checks, see :func:`repro.service.protocol.split_meta`).
Two fields are defined today: ``@trace=<id>``, the client-stamped trace
id the service adopts onto the root span of the operation it triggers,
and ``@epoch=<n>``, the shard-map epoch of the client's cached routing
map.  An epoch-stamped keyed request whose key moved since that epoch
is answered ``-MOVED <current-epoch>`` instead of being executed — the
client refreshes its map (``SHARDMAP``) and retries; epoch-stamped
requests also get their replies stamped with the server's current
``@epoch=``, so clients learn of a cutover on the first op after it.
Clients that stamp no epoch see neither redirects nor reply metadata.

``REJOIN`` is the operator verb for the replica lifecycle
(:mod:`repro.repl`): it recovers the named representative on shard
``i`` (default 0), marks it non-voting, and reconciles it against every
up voting peer before it votes again, replying ``+UP`` then.  The join
is taken one step per loop turn, so each step is atomic against client
operations (no extra locking) and the shard's clients are served between
the steps; a join whose peers never make a read quorum replies
``-UNAVAILABLE`` and leaves the replica non-voting.  ``RESHARD SPLIT``
is stepped and bounded the same way: a split whose source never makes
a read quorum replies ``-UNAVAILABLE`` and is aborted before its
cutover, the epoch unchanged.

The strict verbs carry the paper's error contract across the wire; the
lenient ``GET``/``SET``/``DEL`` triple is what load generators want.
Availability failures (quorum loss, node down) reply ``-UNAVAILABLE``
and any other server-side exception ``-ERR`` — a client never sees a
broken connection for an application error.  The one thing that does
end a connection is bytes that are not frames (a bare ``PING`` line
typed into ``nc``, a length that is not a number, a bulk that is not
UTF-8): framing cannot be recovered, so the server answers ``-ERR
protocol <detail>`` behind whatever replies it still owes and closes.

Concurrency model: **one thread serves** — the serving loop's thread
reads the sockets, parses the frames, runs the quorum algorithm, the
representatives it calls and the stores under them, and writes the
replies.  Nothing on that path can block (lock conflicts raise,
co-located calls cannot time out), and the algorithm is CPU-bound
Python, so a second thread would add hand-offs and no parallelism.
Connections are *pipelined* (:class:`_Connection`): each frame is taken
as it is parsed, replies leave strictly in request order, a burst at a
time, and a client may keep many requests in flight on one socket.  A
keyed op costs no task: it is queued in arrival order, and one loop
callback later a *drain* looks up each key's owner — at execution time,
so a live split's cutover can never slip between routing and running —
runs every owning shard's share (:class:`_ShardBatcher`) in waves and
writes the replies, in that one callback.  A wave is whatever arrived
while the previous waves ran — plus, when a windowed client has just
been sent a burst of replies, the few requests it is still writing back,
which the drain waits for (4 ms at most,
:meth:`DirectoryService._expect_refills`) so that wave size does not
hang on a race — and it executes as **one** grouped quorum transaction,
whatever its verbs (:meth:`~repro.core.suite.DirectorySuite.
execute_batch` — one shared read round, one 2PC group commit, per-op
error results preserved; the wave's ``DELETE``/``DEL``s add one shared
neighbour walk and coalesce).  Arrival order is preserved item by item,
so two pipelined ops on the same key observe each other exactly as they
would have one at a time.  A wave of one — all an unpipelined client
ever forms — takes the same road: the fold of one op *is* the paper's
algorithm, with section 4's several results per message.  So do faults:
an aborted wave re-runs each of its ops as a wave of one, and a live
split heals its target and drains its source in waves too.  Shards take
turns: what batching buys is fewer quorum rounds per op, not overlap.
Admin work (``SIZE``, ``REJOIN``, a ``RESHARD SPLIT``'s phases) runs as
a task whose steps are loop callbacks of their own, so it interleaves
with the drains — and is not ordered against keyed ops pipelined around
it: a ``SIZE`` counts every op its connection queued before it (unless
the drain is waiting for a refill) and may count some queued after it.
A hosted service that *can* block — a proxy for a replica in another
process — must bring its own thread or an awaitable scatter; it must not
run on this loop.

Live telemetry (:class:`ServiceTelemetry`) instruments the waves: every
wave leaves one timed root — ``service:<VERB>`` for a wave of one,
``service:BATCH`` for a wider one — in a bounded per-shard
:class:`~repro.obs.spans.RingTracer`, which ``SLOW`` ranks; one wave in
``_SUBTREE_EVERY`` per shard also records the suite's op/quorum/commit
tree beneath its root.  Each wave feeds a rolling latency window and a
space-saving hot-key sketch, and bumps the directory's ``shard.routed``
counter — which is what makes the ``STATS`` windowed rates meaningful in
service mode.  All of it is owned by the serving thread and takes no
lock; the admin verbs that read it run between waves, on the same
thread.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.batch import BatchOp
from repro.core.errors import (
    ConfigurationError,
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    QuorumUnavailableError,
    ReproError,
    StaleEpochError,
    TransactionError,
)
from repro.obs.live import RollingHistogram, SpaceSaving, WindowedView
from repro.obs.spans import NULL_TRACER, RingTracer
from repro.service import protocol
from repro.shard.sharded import ShardedDirectory


#: Seconds ``STATS`` rates look back when the request names no window,
#: and the span of each shard's latency percentiles.  A minute smooths a
#: burst and still moves while an operator is watching.
_STATS_WINDOW = 60.0
#: Registry samples the windowed view keeps, one per ``STATS`` request:
#: twenty minutes of ``repro top`` at its 2 s poll, so a minute-wide
#: window always finds a baseline at least that old.
_STATS_SAMPLES = 600
#: Roots in a shard's span ring (one per wave, bare or with its sampled
#: tree), which is what ``SLOW n`` ranks at query time: with
#: ``RingTracer.SPANS_PER_ROOT`` that is at most 4,096 spans, ≈ 2 MB a
#: shard — the last several hundred waves stay ranked and the server's
#: memory does not follow its uptime.
_RING_ROOTS = 512
#: One wave in this many, per shard, records the suite's span tree below
#: its root; the others keep a bare root and run the suite untraced.  On
#: the counted plane's ``serial_verbs`` a tree for every wave costs 34
#: interpreter calls an op (442.8 against 408.4 with none): one in eight
#: pays 4.7 (1.1 %), one in sixteen would save 2 more and halve the
#: trees a 512-root ring holds, 64 to 32.
_SUBTREE_EVERY = 8
#: Keys a shard's hot-key sketch tracks: any key taking more than an
#: eighth of the shard's traffic is guaranteed a slot, and ``repro top``
#: has a column's room for fewer still.
_HOT_KEYS = 8


class _ShardTelemetry:
    """One shard's live instrumentation, written only by its waves.

    The shard's suite runs untraced, except during a wave whose subtree
    is sampled (the first, then one in ``_SUBTREE_EVERY``): that wave
    binds the shard's :class:`RingTracer` into the suite, so the spans
    it opens below its ``service:`` root land in the same ring.  The
    RPC endpoint and the representatives keep their construction-time
    null tracer: the live plane's trees stop at the suite's quorum
    rounds (an ``rpc:`` span on a free wall-clock link would be retimed
    to close at its own start).
    """

    def __init__(
        self,
        index: int,
        cluster: Any,
        directory: ShardedDirectory,
        now: Any,
        recorded: Any,
    ) -> None:
        self.index = index
        self.cluster = cluster
        self._directory = directory
        self._recorded = recorded
        self._now = now
        self.tracer = RingTracer(now, capacity=_RING_ROOTS)
        cluster.suite.tracer = NULL_TRACER
        self._untraced = 0  # waves to run before the next sampled subtree
        self.latency = RollingHistogram(now, window=_STATS_WINDOW)
        self.hot_keys = SpaceSaving(_HOT_KEYS)
        # Registered eagerly (not on first failure) so the name exists
        # in every snapshot; the shard-scoped view makes it
        # ``shard<i>.live.ops.failed``, a genuinely per-shard count —
        # unlike the suite op counters, which all shards share.
        self.failed = cluster.metrics.counter("live.ops.failed")

    def run(self, wave: "list[_WaveItem]") -> "list[Any]":
        """Execute one wave as one grouped transaction, fully instrumented.

        One root covers it: a wave of one is ``service:<VERB>`` with its
        ``key``, as the op alone would read, a wider wave
        ``service:BATCH`` with its ``size``; the rightmost client-stamped
        trace id is adopted onto it.  A sampled wave's root is a span
        over the suite's ``op:batch`` tree; any other's is bare, two
        clock reads and one ring entry.  The bookkeeping is per
        *operation*: every op in a wave waited the wave's duration, so
        the rolling percentiles stay per-op exactly when load arrives and
        ``latency.n`` keeps step with ``live.ops.recorded``.
        """
        size = len(wave)
        self._directory.note_routed(self.index, size)
        if size == 1:
            name = f"service:{wave[0].row.verb}"
            attrs = {"key": wave[0].key, "shard": self.index}
        else:
            name = "service:BATCH"
            attrs = {"size": size, "shard": self.index}
        for item in reversed(wave):
            if item.trace is not None:
                attrs["trace"] = item.trace
                break
        ops = [BatchOp(i.row.kind, i.key, i.value) for i in wave]
        suite = self.cluster.suite
        outcomes: "list[Any] | None" = None
        if self._untraced:
            self._untraced -= 1
            start = self._now()
            status = "ok"
            try:
                outcomes = suite.execute_batch(ops)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                end = self._now()
                self.tracer.keep_bare(name, start, end, status, attrs)
                self._account(wave, outcomes, start, end)
        else:
            self._untraced = _SUBTREE_EVERY - 1
            root = self.tracer.span(name, **attrs)
            suite.tracer = self.tracer
            try:
                with root:
                    outcomes = suite.execute_batch(ops)
            finally:  # the ``with`` block has sealed the root
                suite.tracer = NULL_TRACER
                self._account(wave, outcomes, root.start, root.end)
        return outcomes

    def _account(self, wave: list, outcomes: Any, start: float, end: float) -> None:
        size = len(wave)
        self.latency.observe(end - start, size, end)
        for item in wave:
            self.hot_keys.offer(item.key)
        failed = size if outcomes is None else 0
        for out in outcomes or ():
            failed += out.error is not None
        if failed:
            self.failed.inc(failed)
        self._recorded.inc(size)


@dataclass(slots=True)
class _WaveItem:
    """A reply owed, in request order: a keyed op waits in the drain
    queue until its wave sets ``reply``, and whoever sets it calls
    ``link`` (its connection's flush, or the future ``_dispatch`` awaits)."""

    link: Any
    row: "_Verb | None" = None
    key: Any = None
    value: Any = None
    trace: Any = None
    epoch: "int | None" = None
    reply: "bytes | None" = None
    task: "asyncio.Task | None" = None  # an admin verb's, held till done


class _ShardBatcher:
    """Forms and runs one shard's waves, on the loop thread.

    A drain hands it the shard's share of everything that arrived while
    the previous drain ran; it cuts that into waves of up to
    ``batch_max`` and runs them one after another.  A wave — of one op
    or of ``batch_max`` — is one grouped quorum transaction, whatever
    its verbs (:meth:`~repro.core.suite.DirectorySuite.execute_batch`:
    the wave's deletes share one neighbour walk and coalesce inside it,
    and the read round and the 2PC with the rest).  Arrival order is
    preserved item by item — a wave is the *same sequence* run one op at
    a time, just paid for with shared quorum rounds.
    """

    def __init__(self, service: "DirectoryService", index: int) -> None:
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
                if item.reply is None:
                    item.reply = self.service._refusal(exc, item.row)

    def _run_batch(self, wave: "list[_WaveItem]") -> None:
        service = self.service
        outcomes = service.telemetry.shards[self.index].run(wave)
        for item, outcome in zip(wave, outcomes):
            if outcome.error is not None:
                item.reply = service._refusal(outcome.error, item.row)
            elif item.epoch is None:
                item.reply = item.row.reply(outcome.value)
            else:
                reply = item.row.reply(outcome.value)
                epoch = service.directory.epoch
                item.reply = protocol.stamp_epoch(reply, epoch)

    #: No caller: every wave runs through :meth:`_run_batch`.  The name
    #: stays only because the reference benchmark's span pass wraps it.
    _run_single = _run_batch


class ServiceTelemetry:
    """The front door's live plane: windows, sketches, rings, membership.

    Owns one :class:`WindowedView` over the whole registry plus one
    :class:`_ShardTelemetry` per shard, and assembles the ``STATS`` /
    ``SLOW`` / ``METRICS`` replies.  Readers and writers share the
    serving loop's thread, which owns everything here, so a reply is a
    consistent cut between two waves and nothing takes a lock.
    """

    def __init__(self, directory: ShardedDirectory) -> None:
        network = directory.network
        self.directory = directory
        self.clock = network.clock
        self._started = self.clock.now()
        self.metrics = network.metrics
        self.view = WindowedView(
            self.metrics,
            self.clock.now,
            window=_STATS_WINDOW,
            history=_STATS_SAMPLES,
        )
        self._admin = self.metrics.counter("live.admin.requests")
        self._samples = self.metrics.counter("live.window.samples")
        self._recorded = self.metrics.counter("live.ops.recorded")
        self.shards: "list[_ShardTelemetry]" = []
        self.ensure_shard(len(directory.clusters) - 1)

    def ensure_shard(self, index: int) -> None:
        """Instrument every shard up to ``index``: at construction, and
        the shards a live split added since."""
        while len(self.shards) <= index:
            i = len(self.shards)
            self.shards.append(_ShardTelemetry(
                i, self.directory.clusters[i], self.directory,
                self.clock.now, self._recorded,
            ))

    def sample(self) -> float:
        """Take a registry sample for the windowed view."""
        self._samples.inc()
        return self.view.sample()

    def stats(self, window: float | None = None) -> dict[str, Any]:
        """The ``STATS`` reply body (takes a fresh sample first)."""
        self._admin.inc()
        if self.directory.resharder is None:
            # Quiescent: adopt any shard a completed split added.
            self.ensure_shard(len(self.directory.clusters) - 1)
        self.sample()
        rates = self.view.rates(window)
        per_shard: dict[str, Any] = {}
        total_ops = 0.0
        for shard in self.shards:
            name = f"s{shard.index}"
            suite = shard.cluster.suite
            ops_rate = rates.get(f"shard.routed.{name}")
            total_ops += ops_rate
            shared = suite._batch_walk_deletes
            per_shard[name] = {
                "ops_per_s": ops_rate,
                "routed": self.directory.routed[shard.index],
                "err_per_s": rates.get(f"shard{shard.index}.live.ops.failed"),
                "latency": shard.latency.snapshot(),
                "hot_keys": [list(row) for row in shard.hot_keys.top()],
                # How the waves' deletes walked (repro.core.batch):
                # together, ahead of the fold, or alone in their turn.
                "walks": {
                    "shared": shared.n,
                    "deletes_shared": round(shared.avg * shared.n),
                    "deletes_alone": suite._batch_rewalks.value,
                },
                "membership": {
                    rep: suite.membership.state(rep).value
                    for rep in sorted(shard.cluster.representatives)
                },
            }
        service = {
            "ops": self.metrics.counter("service.front.ops").value,
            "errors": self.metrics.counter("service.front.errors").value,
            "ops_per_s": rates.get("service.front.ops"),
            "err_per_s": rates.get("service.front.errors"),
            "rpc_per_s": rates.get("service.rpc.calls"),
            "retry_per_s": sum(
                r
                for n, r in rates.rates.items()
                if n.endswith("suite.retry.attempts")
            ),
        }
        return {
            "clock": self.clock.now() - self._started,
            "shards": len(self.shards),
            "epoch": self.directory.epoch,
            "reshard": self.directory.reshard_status(),
            "window_seconds": rates.elapsed,
            "ops_per_s": total_ops,
            "service": service,
            "per_shard": per_shard,
            "windows": dict(sorted(rates.rates.items())),
        }

    def slow(self, n: int = 10) -> list[dict[str, Any]]:
        """The ``SLOW n`` reply body: the slowest of the waves every
        shard's span ring still holds, ranked across shards at query
        time — the ring is the one record of a served op.  Bare roots
        and sampled trees rank together; a bare root's ``span`` has no
        children."""
        self._admin.inc()
        roots = [
            root
            for shard in self.shards
            for root in shard.tracer.finished_roots()
        ]
        roots.sort(key=lambda root: root.duration, reverse=True)
        return [
            {
                "duration": root.duration,
                "verb": root.name[len("service:"):],
                "key": root.attrs.get(
                    "key", f"[{root.attrs.get('size')} ops]"
                ),
                "shard": root.attrs["shard"],
                "trace": root.attrs.get("trace"),
                "status": root.status,
                "span": root.to_dict(),
            }
            for root in roots[:n]
        ]

    def snapshot(self) -> dict[str, Any]:
        """The ``METRICS`` reply body: the raw registry snapshot."""
        self._admin.inc()
        return self.metrics.snapshot()


class _Usage(ReproError):
    """A request fits no verb, or (raised bare) not its verb's usage line."""


def _named(exc: Exception, row: Any) -> str:
    return f"{type(exc).__name__}: {exc}"


#: The one exception -> reply mapping, keyed ops and admin verbs alike:
#: the first row whose class matches gives the code, whether it counts in
#: ``service.front.errors`` (redirects and refusals do not), the detail.
_REFUSALS: "tuple[tuple[Any, str, bool, Any], ...]" = (
    (StaleEpochError, "MOVED", False, lambda exc, _: str(exc.epoch)),
    (_Usage, "ERR", True, lambda exc, row: str(exc) or f"usage: {row.usage}"),
    (KeyAlreadyPresentError, "KEYEXISTS", False, lambda exc, _: str(exc.key)),
    (KeyNotPresentError, "NOTFOUND", False, lambda exc, _: str(exc.key)),
    (
        (QuorumUnavailableError, NetworkError, TransactionError),
        "UNAVAILABLE", True, _named,
    ),
    (ReproError, "ERR", True, _named),
    # The connection survives server bugs too.
    (Exception, "ERR", True, lambda exc, row: f"internal {_named(exc, row)}"),
)


class _Verb:
    """One row of the verb table; the usage line is its single source.

    The usage line is what ``docs/SERVICE.md`` and the module docstring
    list, what a bad request is answered with, and where the arity
    comes from: one argument per word after the verb, a ``[bracketed]``
    word optional, ``|`` between alternative forms.  A *keyed* verb
    (first argument a key) names the ``kind`` that
    :mod:`repro.core.batch` executes for it in its wave, and ``reply``
    frames that result; an *admin* verb has no kind and ``reply`` is its
    ``async (service, *args)`` handler.
    """

    __slots__ = ("verb", "usage", "kind", "reply", "fewest", "most")

    def __init__(self, usage: str, reply: Any, kind: "str | None" = None):
        self.usage, self.reply, self.kind = usage, reply, kind
        self.verb = usage.split()[0]
        counts = []
        for form in usage.split("|"):
            words = form.split()[1:]
            optional = [w for w in words if w[0] == "[" and w[-1] == "]"]
            counts += [len(words) - len(optional), len(words)]
        self.fewest, self.most = min(counts), max(counts)


def _text(value: Any) -> str:
    """Stored values go back out as text (the front door stores strings)."""
    return value if isinstance(value, str) else repr(value)


def _found(result: "tuple[bool, Any]") -> bytes:
    present, value = result
    return protocol.encode_array(
        ["1" if present else "0", _text(value) if present else None]
    )


def _value(result: "tuple[bool, Any]") -> bytes:
    present, value = result
    return protocol.encode_bulk(_text(value) if present else None)


_OK = protocol.encode_simple("OK")


def _ok(result: None) -> bytes:
    return _OK


def _json(body: Any) -> bytes:
    return protocol.encode_bulk(json.dumps(body, default=str))


#: Requests one connection may have in flight (:class:`_Connection`):
#: four default waves.  Past it the socket is not read, so a client that
#: writes and never reads costs the server at most this many replies.
_PIPELINE_DEPTH = 512

#: Steps one ``REJOIN`` or ``RESHARD SPLIT`` may take
#: (``ReplicaJoin.run``'s own bound).  A join or split whose source has
#: no read quorum up never finishes; failing steps take ≈ 15 µs each on
#: the serving thread, so this gives up in well under a second.
_ADMIN_MAX_STEPS = 10_000

#: Seconds a drain allows each request a pipelining client still owes
#: its window (see :meth:`DirectoryService._expect_refills`): several
#: times what a client needs to read a reply and write the next request.
_REFILL_EACH = 0.00025
#: Most owed requests a drain waits for.  A longer refill outlasts a
#: wave, and such waves are full anyway; times ``_REFILL_EACH`` this is
#: also the longest a client that stopped refilling can hold the others
#: up (4 ms, once).
_REFILL_MOST = 16


class _Connection(asyncio.Protocol):
    """One client socket: frames in, replies out in request order.

    ``data_received`` parses every complete frame the socket delivered
    and takes each at once (:meth:`DirectoryService._request`); the
    reply slots wait in ``_owed`` in request order, and whenever the one
    at the head is answered the answered run behind it leaves in a
    single ``transport.write`` — replies come back positionally even
    when ops complete out of order across shards, and a burst's replies
    cost one send.  Keyed ops queue in parse order, so same-connection
    ops keep their wire order; the drain that answers them flushes this
    connection in the same callback.

    At most :data:`_PIPELINE_DEPTH` requests are in flight.  At the bound
    parsing stops, the bytes behind it stay in the buffer and the socket
    is not read until replies have left; a client that stops *reading*
    has its replies held back here (``pause_writing``) instead of piled
    into the transport, so the same bound stops its requests too.
    """

    def __init__(self, service: "DirectoryService") -> None:
        self.service = service
        self.depth = _PIPELINE_DEPTH
        self.transport: Any = None
        self.buffer = protocol.FrameBuffer()
        self._owed: "deque[_WaveItem]" = deque()
        #: The socket is being read (not paused at the depth bound).
        self._reading = True
        #: The peer takes what is written (``pause_writing`` clears it).
        self._writable = True
        #: No frame will be parsed again: end-of-file, or bytes that are
        #: not frames.  The socket closes once nothing is owed.
        self._finished = False
        #: Requests this client still owes the window it was last sent
        #: (:meth:`DirectoryService._expect_refills`).
        self.refills = 0

    # -- asyncio.Protocol ------------------------------------------------------

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.service._links.add(self)

    def data_received(self, data: bytes) -> None:
        self.buffer.feed(data)
        self._parse()

    def eof_received(self) -> bool:
        # EOF mid-pipeline: in-flight requests still execute and their
        # replies still flush (the write side outlives the read side of
        # a half-closed socket), so the transport stays open.
        self.buffer.eof = True
        self._parse()
        return True

    def pause_writing(self) -> None:
        self._writable = False

    def resume_writing(self) -> None:
        self._writable = True
        self._flush()

    def connection_lost(self, exc: "Exception | None") -> None:
        # Requests in flight still run; what they answer is dropped.
        self.transport = None
        # Nor will the window this client owed come: a drain waiting
        # for it goes now.
        for _ in range(self.refills):
            self.service._refilled()
        self.refills = 0
        self.service._links.discard(self)

    # -- frames in -------------------------------------------------------------

    def _parse(self) -> None:
        service, owed = self.service, self._owed
        while len(owed) < self.depth and not self._finished:
            try:
                frame = self.buffer.read_frame()
            except protocol.IncompleteFrame:
                break
            except ConnectionError:
                self._finished = True
            except protocol.ProtocolError as exc:
                # Framing is lost, so nothing after this can be read:
                # say why — behind the replies already owed — and hang up.
                self._finished = True
                service._failures.inc()
                reply = protocol.encode_error("ERR", f"protocol {exc}")
                owed.append(_WaveItem(self._flush, reply=reply))
            else:
                owed.append(
                    service._request(frame, self._flush, self.buffer.command)
                )
                if self.refills:
                    self.refills -= 1
                    service._refilled()
        reading = len(owed) < self.depth and not self._finished
        if reading != self._reading and self.transport is not None:
            self._reading = reading
            if not self.buffer.eof:  # else: nothing more to deliver
                if reading:
                    self.transport.resume_reading()
                else:
                    self.transport.pause_reading()
        if self._finished:
            self._flush()
        elif owed and owed[0].reply is not None:
            # Answered on the spot (a refusal): sent on the next turn.
            asyncio.get_running_loop().call_soon(self._flush)

    # -- replies out -----------------------------------------------------------

    def _flush(self) -> None:
        owed, transport = self._owed, self.transport
        if self._writable and owed and owed[0].reply is not None:
            replies = []
            while owed and owed[0].reply is not None:
                replies.append(owed.popleft().reply)
            if transport is not None:
                transport.write(b"".join(replies))
                if len(replies) > 1:
                    self.service._expect_refills(self, len(replies))
        if transport is None:
            return  # connection lost: the answers had nowhere to go
        if self._finished:
            if not owed:
                transport.close()
        elif not self._reading and len(owed) < self.depth:
            self._parse()


class DirectoryService:
    """Serve a :class:`ShardedDirectory` over one loopback socket."""

    def __init__(
        self,
        directory: ShardedDirectory,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_max: int = 128,
    ) -> None:
        try:
            directory.shard_for("")  # wire keys are always str
        except TypeError:
            raise ConfigurationError(
                f"shard map {directory.shard_map.describe()} splits at "
                f"{list(directory.shard_map.boundaries)!r}, which do not "
                "compare with the string keys the wire carries; build the "
                "directory with a hash map or string boundaries"
            ) from None
        self.directory = directory
        self.network = directory.network
        self.host = host
        self.port: int | None = port or None
        self._server: asyncio.AbstractServer | None = None
        self._links: "set[_Connection]" = set()
        self._closed = False
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1: {batch_max}")
        #: Most ops one wave may hold.  ``1`` is the unbatched control:
        #: every wave is one op, through the same engine.  It exists for
        #: gate 4 of ``benchmarks/bench_service.py``, which replays one
        #: workload batched and unbatched and demands identical state.
        self.batch_max = batch_max
        #: Keyed ops in arrival order, awaiting the next drain.
        self._pending: "list[_WaveItem]" = []
        #: Requests pipelining clients still owe their windows, the loop
        #: time by which they are due, and the drain waiting for them.
        self._refills = 0
        self._refill_by = 0.0
        self._lingering: "asyncio.TimerHandle | None" = None
        self._batchers = [
            _ShardBatcher(self, i) for i in range(len(directory.clusters))
        ]
        metrics = self.network.metrics
        self._ops = metrics.counter("service.front.ops")
        self._failures = metrics.counter("service.front.errors")
        self.telemetry = ServiceTelemetry(directory)
        # A boot-time baseline sample: the very first STATS request
        # already has something to difference against.
        self.telemetry.sample()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "DirectoryService":
        """Bind and listen on the network's loop; returns self with
        :attr:`port` resolved.

        Only an :class:`~repro.service.aio.AsyncioTransport` owns a loop
        to listen on.  Over a simulated network the service is driven
        by awaiting :meth:`_dispatch` on a loop of the caller's.
        """
        if not hasattr(self.network, "submit"):
            raise TypeError(
                "DirectoryService.start needs a directory on an "
                f"AsyncioTransport (got {type(self.network).__name__})"
            )
        self.network.submit(self._start())
        return self

    async def _start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host=self.host, port=self.port or 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def close(self) -> None:
        """Stop listening and drop live connections (idempotent).

        Does *not* close the directory — the caller owns it.
        """
        if self._closed:
            return
        self._closed = True
        if self._server is None:
            return  # never started: nothing listens
        try:
            self.network.submit(self._stop())
        except Exception:
            pass

    async def _stop(self) -> None:
        self._server.close()
        # Links first: from 3.12 on ``wait_closed`` waits for them too.
        for link in list(self._links):
            link.transport.abort()
        await self._server.wait_closed()

    def __enter__(self) -> "DirectoryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the serving path ----------------------------------------------------

    def _request(
        self, frame: Any, link: Any, is_command: bool
    ) -> _WaveItem:
        """Take one request frame for ``link`` and return its reply slot:
        answered at once if malformed or misrouted, queued (no task) for
        the next :meth:`_drain` if keyed, run as a task if admin.

        ``is_command`` says whether ``frame`` is a command array (a
        non-empty list of strings): the socket's decoder knows it, and
        :meth:`_dispatch` works it out."""
        if not is_command:
            reply = protocol.encode_error("ERR", "expected a command array")
            return _WaveItem(link, reply=reply)
        self._ops.inc()
        row = None
        try:
            # Trailing @-metadata (trace id, client epoch) is stripped
            # before arity checks; unknown or malformed fields are
            # ignored, never errors.
            if frame[-1][:1] == "@":
                parts, trace, epoch = protocol.split_meta(frame)
                if not parts:
                    raise _Usage("expected a command array")
            else:
                parts, trace, epoch = frame, None, None
            command, args = parts[0].upper(), parts[1:]
            row = self._VERBS.get(command)
            if row is None:
                raise _Usage(f"unknown command {command!r}")
            if not row.fewest <= len(args) <= row.most:
                raise _Usage
            if row.kind is not None and epoch is not None:
                # The client told us which map it routed with; refuse
                # the op, before it queues, if the key has since moved.
                self.directory.require_epoch(args[0], epoch)
        except Exception as exc:
            return _WaveItem(link, row, reply=self._refusal(exc, row))
        loop = asyncio.get_running_loop()
        if row.kind is None:
            item = _WaveItem(link, row, trace=trace, epoch=epoch)
            item.task = loop.create_task(self._admin(item, args))
            return item
        item = _WaveItem(link, row, *args, trace=trace, epoch=epoch)
        if not self._pending:
            loop.call_soon(self._drain)
        self._pending.append(item)
        return item

    def _refusal(self, exc: Exception, row: "_Verb | None") -> bytes:
        """The reply to ``exc``, by the first row of ``_REFUSALS`` it fits."""
        for cls, code, failed, detail in _REFUSALS:
            if isinstance(exc, cls):  # the last row matches any Exception
                break
        if failed:
            self._failures.inc()
        return protocol.encode_error(code, detail(exc, row))

    async def _admin(self, item: _WaveItem, args: "list[str]") -> None:
        try:
            reply = await item.row.reply(self, *args)
            if item.epoch is not None:
                reply = protocol.stamp_epoch(reply, self.directory.epoch)
        except Exception as exc:
            reply = self._refusal(exc, item.row)
        item.reply = reply
        item.link()

    async def _dispatch(self, frame: Any) -> bytes:
        """:meth:`_request`, awaited: a front door over a simulated
        directory, or a test placing ops between callbacks, calls this."""
        fut = asyncio.get_running_loop().create_future()
        is_command = (
            isinstance(frame, list)
            and bool(frame)
            and all(isinstance(p, str) for p in frame)
        )
        # ``fut`` is done early only if the awaiting task was cancelled.
        item = self._request(
            frame, lambda: fut.done() or fut.set_result(0), is_command
        )
        if item.reply is None:
            await fut
        return item.reply

    #: No caller: keyed ops queue in :meth:`_request`.  The name stays
    #: only because the reference benchmark's span pass wraps it.
    _on_shard = _dispatch

    def _sync_shards(self) -> None:
        """Grow per-shard batchers (and telemetry) after a split added
        clusters."""
        while len(self._batchers) < len(self.directory.clusters):
            i = len(self._batchers)
            self._batchers.append(_ShardBatcher(self, i))
            self.telemetry.ensure_shard(i)

    def _drain(self, waited: bool = False) -> None:
        """Route and run everything queued since the last drain.

        The owner of a key is looked up *here*, in the callback that
        executes the op, never when it was queued: a live split's
        cutover is a callback of its own, so it lands before this drain
        or after it, and no op can run on a shard that stopped owning
        its key in between.

        It answers every op queued and flushes their links.  A drain that
        finds a few refills owed (:meth:`_expect_refills`) stands back
        once, until they are in or overdue; it then runs everything queued.
        """
        if self._refills:
            loop = asyncio.get_running_loop()
            if waited or loop.time() >= self._refill_by:
                self._write_off_refills()  # overdue: they are not coming
            elif self._refills <= _REFILL_MOST:
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
            except Exception as exc:  # a key the map cannot place
                item.reply = self._refusal(exc, item.row)
                continue
            shares.setdefault(index, []).append(item)
        for index, items in shares.items():
            if index >= len(self._batchers):
                # The current epoch routes to a shard a live split just
                # added; adopt it before its first wave.
                self._sync_shards()
            self._batchers[index].drain(items)
        for link in dict.fromkeys(item.link for item in pending):
            link()

    def _expect_refills(self, link: _Connection, count: int) -> None:
        """``link`` was just sent ``count`` > 1 replies in one write.

        A client with that many requests in flight keeps a window, and
        answers a burst of replies with as many new requests, written
        one by one.  A drain that starts on the first of them runs a
        wave of one while the rest arrive, and two such clients fall
        into step or out of it by chance — wave size, and with it the
        messages an op costs, then depends on which.  So the requests
        are counted as owed, and while only a few are, the next drain
        waits for them (:meth:`_drain`): its wave holds the windows
        whole.  A client that takes one reply at a time is owed nothing
        and never waited for.

        The debt is the connection's own: only a frame from ``link``
        pays it.  Were any frame to count, two clients taking turns —
        each drain one window, the other client's requests arriving
        while it runs — would each pay the other's debt, and the drain
        would be released without the window it waits for, wave after
        wave: taking turns would be as stable as going in step, and
        which one a run falls into would be left to chance.
        """
        now = asyncio.get_running_loop().time()
        if now > self._refill_by:
            self._write_off_refills()  # the last lot is overdue
        link.refills += count
        self._refills += count
        self._refill_by = now + min(self._refills, _REFILL_MOST) * _REFILL_EACH

    def _write_off_refills(self) -> None:
        self._refills = 0
        for link in self._links:
            link.refills = 0

    def _refilled(self) -> None:
        """A frame arrived that a connection owed; the last one in
        releases the drain that waited for it."""
        self._refills -= 1
        if not self._refills and self._lingering is not None:
            self._lingering.cancel()
            self._lingering = None
            asyncio.get_running_loop().call_soon(self._drain)

    async def _admin_on_shard(self, fn: Any, *args: Any) -> Any:
        """Run one step of admin work.

        The step is a loop callback of its own (this task's next turn),
        so it serializes against client waves by construction — no
        locking — and the drains queued before it run first.  A caller
        with many steps to take comes back through here for each, which
        is what lets client ops interleave with a long join or split.
        """
        await asyncio.sleep(0)
        return fn(*args)

    # -- admin verbs ---------------------------------------------------------

    async def _ping(self) -> bytes:
        return protocol.encode_simple("PONG")

    async def _size(self) -> bytes:
        total = 0
        for cluster in self.directory.clusters:
            total += await self._admin_on_shard(cluster.suite.size)
        return protocol.encode_integer(total)

    async def _shards(self) -> bytes:
        return protocol.encode_integer(len(self.directory.clusters))

    async def _stats(self, window: "str | None" = None) -> bytes:
        try:
            seconds = None if window is None else float(window)
        except ValueError:
            raise _Usage from None
        # A window is some seconds of history: zero, negative, infinite
        # and nan windows would each measure something else silently.
        if seconds is not None and not 0.0 < seconds < math.inf:
            raise _Usage
        return _json(self.telemetry.stats(seconds))

    async def _slow(self, n: str = "10") -> bytes:
        try:
            count = int(n)
        except ValueError:
            raise _Usage from None
        if count < 1:
            raise _Usage
        return _json(self.telemetry.slow(count))

    async def _metrics(self) -> bytes:
        return _json(self.telemetry.snapshot())

    async def _rejoin(self, target: str) -> bytes:
        prefix, _, replica = target.rpartition("/")
        try:
            index = int(prefix.lstrip("s")) if prefix else 0
        except ValueError:
            raise _Usage(
                f"bad shard prefix {prefix!r} (want s<i>/replica)"
            ) from None
        if not 0 <= index < len(self.directory.clusters):
            raise _Usage(f"no shard {index}")
        cluster = self.directory.clusters[index]
        if replica not in cluster.representatives:
            raise _Usage(
                f"unknown replica {replica!r} on shard {index} "
                f"(have {sorted(cluster.representatives)})"
            )
        from repro.repl import ReplicaJoin

        join = ReplicaJoin(
            cluster,
            replica,
            detector=getattr(cluster.suite, "_detector", None),
        )
        # One step per turn, so the shard's clients are served between
        # steps; bounded as ``ReplicaJoin.run`` is, because a join with
        # no read quorum of voting peers up never finishes.
        for _ in range(_ADMIN_MAX_STEPS):
            if await self._admin_on_shard(join.step):
                break
        else:
            raise NetworkError(
                f"join of {replica} did not finish in {_ADMIN_MAX_STEPS} steps"
            )
        return protocol.encode_simple(
            cluster.suite.membership.state(replica).name
        )

    async def _shardmap(self) -> bytes:
        shard_map = self.directory.shard_map
        return _json(
            {
                "epoch": shard_map.epoch,
                "shards": len(self.directory.clusters),
                "describe": shard_map.describe(),
                "kind": "hash" if shard_map.boundaries is None else "range",
                "boundaries": shard_map.boundaries,
                "owners": shard_map.owners,
            }
        )

    async def _reshard(self, sub: str, boundary: "str | None" = None) -> bytes:
        directory = self.directory
        if sub.upper() == "STATUS" and boundary is None:
            return _json(directory.reshard_status())
        if sub.upper() != "SPLIT" or boundary is None:
            raise _Usage
        # One phase step per turn: each step is atomic against client
        # waves (no torn copies), and waves run between the steps;
        # bounded as a join is, because a copy or cutover whose source
        # has no read quorum up retries forever.
        resharder = await self._admin_on_shard(directory.begin_split, boundary)
        for _ in range(_ADMIN_MAX_STEPS):
            if await self._admin_on_shard(resharder.step):
                break
        else:
            phase = resharder.phase
            if phase != "drain":  # the new epoch is not installed yet
                resharder.abort()
            raise NetworkError(
                f"split at {boundary!r} did not finish in {_ADMIN_MAX_STEPS} "
                f"steps (stuck in {phase})"
            )
        self._sync_shards()
        body: dict[str, Any] = {"epoch": directory.epoch, "done": True}
        if directory.reshard_log:
            body.update(directory.reshard_log[-1].summary())
        return _json(body)

    #: The verb table: every command the front door answers, keyed by
    #: the first word of its usage line.
    _VERBS = {
        row.verb: row
        for row in (
            _Verb("PING", _ping),
            _Verb("LOOKUP key", _found, "lookup"),
            _Verb("INSERT key value", _ok, "insert"),
            _Verb("UPDATE key value", _ok, "update"),
            _Verb("DELETE key", _ok, "delete"),
            _Verb("GET key", _value, "lookup"),
            _Verb("SET key value", _ok, "upsert"),
            _Verb("DEL key", protocol.encode_integer, "discard"),
            _Verb("SIZE", _size),
            _Verb("SHARDS", _shards),
            _Verb("REJOIN [s<i>/]replica", _rejoin),
            _Verb("STATS [window]", _stats),
            _Verb("SLOW [n]", _slow),
            _Verb("METRICS", _metrics),
            _Verb("SHARDMAP", _shardmap),
            _Verb("RESHARD STATUS | RESHARD SPLIT boundary", _reshard),
        )
    }
