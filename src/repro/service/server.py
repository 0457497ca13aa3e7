"""The client-facing front door: a sharded directory behind one socket.

:class:`DirectoryService` attaches a single listening socket to the
event loop of an :class:`~repro.service.aio.AsyncioTransport` that is
already hosting a :class:`~repro.shard.sharded.ShardedDirectory`'s
representatives.  Clients speak a redis-like protocol
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
    SLOW [n]                 -> $json          (slowest recent ops + spans)
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
``i`` (default 0) and drives a full snapshot + catch-up + cutover join
against its peers, replying ``+UP`` once the replica votes again.  The
join is taken one step per loop turn, so each step is atomic against
client operations (no extra locking) and the shard's clients are served
between the steps.

The strict verbs carry the paper's error contract across the wire; the
lenient ``GET``/``SET``/``DEL`` triple is what load generators want.
Availability failures (quorum loss, node down) reply ``-UNAVAILABLE``
and any other server-side exception ``-ERR`` — a client never sees a
broken connection for an application error.  The one thing that does
end a connection is bytes that are not frames (a bare ``PING`` line
typed into ``nc``, a length that is not a number, a bulk that is not
UTF-8): framing cannot be recovered, so the server answers ``-ERR
protocol <detail>`` behind whatever replies it still owes and closes.

Concurrency model: **one thread serves** — the transport's loop thread
reads the sockets, parses the frames, runs the quorum algorithm, the
representatives it calls and the stores under them, and writes the
replies.  Nothing on that path can block (lock conflicts raise,
co-located calls cannot time out), and the algorithm is CPU-bound
Python, so a second thread would add hand-offs and no parallelism.
Connections are *pipelined* (:class:`_Connection`): every complete frame
a socket delivers is dispatched as its own task, and replies leave
strictly in request order, a burst at a time, so a client may keep many
requests in flight on one socket and still parse replies positionally.
Keyed operations do not run where they are dispatched.  They queue in
arrival order, and one loop callback later a *drain* looks up each key's
owner — at execution time, so a live split's cutover can never slip
between routing and running — and hands every owning shard its share
(:class:`_ShardBatcher`) in waves: a wave is whatever arrived while the
previous waves ran — plus, when a client that keeps a window of requests
in flight has just been sent a burst of replies, the few requests it is
still writing back, which the drain waits for (4 ms at most,
:meth:`DirectoryService._expect_refills`), so that wave size does not
hang on which of them won a race — and each wave executes as **one**
grouped quorum transaction, whatever its verbs
(:meth:`~repro.core.suite.DirectorySuite.execute_batch` — one shared
read round, one 2PC group commit, per-op error results preserved; a
``DELETE``/``DEL`` adds only its own neighbour walk and coalesce).
Arrival order is preserved item by item, so two pipelined ops on the
same key observe each other exactly as they would have one at a time; a
wave of one runs the classic one-op path, so an unpipelined client gets
the paper's algorithm unchanged.
Shards take turns: what batching buys is fewer quorum rounds per op,
not overlap.  Admin work (``SIZE``, ``REJOIN``, a ``RESHARD SPLIT``'s
phases) is cut into steps that are loop callbacks of their own, so it
interleaves with the drains instead of holding them up.  A transport
that *can* block — replicas in other processes — must bring its own
thread or an awaitable scatter; it must not run on this loop.

Live telemetry (:class:`ServiceTelemetry`) instruments the waves: every
keyed operation runs inside a ``service:<VERB>`` root span recorded by
a bounded per-shard :class:`~repro.obs.spans.RingTracer` (also bound
into the shard's suite and RPC endpoint, so the full
op/quorum/rpc/commit tree nests beneath it), feeds a rolling latency
window, a space-saving hot-key sketch, and a slow-op ring, and bumps the
directory's ``shard.routed`` counter — which is what makes the ``STATS``
windowed rates meaningful in service mode.  The admin verbs that read it
run between waves, on the same thread.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.batch import BatchOp, _single
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
from repro.obs.live import RollingHistogram, SlowLog, SpaceSaving, WindowedView
from repro.obs.spans import RingTracer
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
#: Roots in a shard's span ring (a root is one op's tree or one wave's):
#: with ``RingTracer.SPANS_PER_ROOT`` that is at most 4,096 spans, ≈ 2 MB
#: a shard — the trees ``SLOW`` renders stay whole for the last several
#: hundred waves and the server's memory does not follow its uptime.
_RING_ROOTS = 512
#: Entries a shard's slow ring holds for ``SLOW n`` to rank at query
#: time: many screenfuls, yet few enough (1,024 spans' worth of trees)
#: that ranking them is nothing the serving thread notices.
_SLOW_OPS = 128
#: Keys a shard's hot-key sketch tracks: any key taking more than an
#: eighth of the shard's traffic is guaranteed a slot, and ``repro top``
#: has a column's room for fewer still.
_HOT_KEYS = 8


class _ShardTelemetry:
    """One shard's live instrumentation, written only by its waves.

    Installing it rebinds the shard suite's tracer and its RPC
    endpoint's tracer to a bounded :class:`RingTracer`, so the spans a
    keyed operation opens below the ``service:<VERB>`` root all land in
    the same per-shard ring.  Representatives keep their construction-
    time null tracer: the live plane's trees stop at the suite's quorum
    rounds and RPCs.
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
        self.tracer = RingTracer(now, capacity=_RING_ROOTS)
        cluster.suite.tracer = self.tracer
        cluster.suite.rpc.bind_tracer(self.tracer)
        self.latency = RollingHistogram(now, window=_STATS_WINDOW)
        self.hot_keys = SpaceSaving(_HOT_KEYS)
        self.slow = SlowLog(_SLOW_OPS)
        # Registered eagerly (not on first failure) so the name exists
        # in every snapshot; the shard-scoped view makes it
        # ``shard<i>.live.ops.failed``, a genuinely per-shard count —
        # unlike the suite op counters, which all shards share.
        self.failed = cluster.metrics.counter("live.ops.failed")

    def run(
        self, verb: str, kind: str, key: str, value: Any, trace: Any
    ) -> Any:
        """Execute one keyed operation on this shard, fully instrumented."""
        self._directory.note_routed(self.index)
        span = self.tracer.span(f"service:{verb}", key=key, shard=self.index)
        if trace is not None:
            span.attrs["trace"] = trace
        try:
            with span:
                return _single(self.cluster.suite, kind, key, value)
        finally:
            # The ``with`` block sealed the span (end timestamp and
            # status) before this runs, success or failure.
            self._account(span, verb, key, trace, (key,), span.status != "ok")

    def run_batch(
        self, ops: "list[BatchOp]", traces: "list[Any]"
    ) -> "list[Any]":
        """Execute one grouped wave, fully instrumented.

        One ``service:BATCH`` root span covers the grouped transaction
        (the suite's ``op:batch`` tree nests beneath it); the
        bookkeeping is still per operation, so ``STATS`` numbers stay
        exact under batching.
        """
        self._directory.note_routed(self.index, len(ops))
        stamped = [t for t in traces if t is not None]
        trace = stamped[-1] if stamped else None
        span = self.tracer.span(
            "service:BATCH", size=len(ops), shard=self.index
        )
        if trace is not None:
            span.attrs["trace"] = trace
        outcomes: "list[Any] | None" = None
        try:
            with span:
                outcomes = self.cluster.suite.execute_batch(ops)
            return outcomes
        finally:
            self._account(
                span,
                "BATCH",
                f"[{len(ops)} ops]",
                trace,
                [op.key for op in ops],
                len(ops)
                if outcomes is None
                else sum(1 for out in outcomes if out.error is not None),
            )

    def _account(
        self,
        span: Any,
        verb: str,
        label: str,
        trace: Any,
        keys: Any,
        failed: int,
    ) -> None:
        """The bookkeeping :meth:`run` and :meth:`run_batch` share.

        One latency sample and one hot-key offer per *operation*: every
        op in a wave waited the wave's duration, so the rolling
        percentiles stay per-op exactly when load arrives and
        ``latency.n`` keeps step with ``live.ops.recorded``.
        """
        self.latency.observe(span.duration, len(keys))
        for key in keys:
            self.hot_keys.offer(key)
        if failed:
            self.failed.inc(failed)
        self.slow.record(
            span, verb=verb, key=label, shard=self.index, trace=trace
        )
        self._recorded.inc(len(keys))


@dataclass(slots=True)
class _WaveItem:
    """One queued keyed operation awaiting its wave."""

    verb: str
    kind: str
    key: str
    value: Any
    trace: Any
    future: "asyncio.Future"


class _ShardBatcher:
    """Forms and runs one shard's waves, on the loop thread.

    A drain hands it the shard's share of everything that arrived while
    the previous drain ran; it cuts that into waves of up to
    ``batch_max`` and runs them one after another.  A wave is one
    grouped quorum transaction, whatever its verbs
    (:meth:`~repro.core.suite.DirectorySuite.execute_batch`: a
    ``delete`` pays its own neighbour walk and coalesce inside it and
    shares the read round and the 2PC with the rest); a wave of one
    takes the classic single-op path.  Arrival order is preserved item
    by item — a wave is the *same sequence* run one op at a time, just
    paid for with shared quorum rounds.
    """

    def __init__(self, service: "DirectoryService", index: int) -> None:
        self.service = service
        self.index = index
        self.batch_max = service.batch_max

    def drain(self, items: "list[_WaveItem]") -> None:
        for start in range(0, len(items), self.batch_max):
            wave = items[start : start + self.batch_max]
            try:
                self._process(wave)
            except Exception as exc:  # never strand a waiting client
                for item in wave:
                    if not item.future.done():
                        item.future.set_exception(exc)

    def _process(self, wave: "list[_WaveItem]") -> None:
        if len(wave) > 1:
            self._run_batch(wave)
        else:
            # Alone in its wave: the classic path — the paper's Figure
            # 8/9/13 algorithms, the reference grouped waves are checked
            # against, and the only one with read-repair on the op's own
            # key and hedged reads.
            self._run_single(wave[0])

    def _run_single(self, item: _WaveItem) -> None:
        try:
            result = self.service.telemetry.shards[self.index].run(
                item.verb, item.kind, item.key, item.value, item.trace
            )
        except Exception as exc:
            item.future.set_exception(exc)
        else:
            item.future.set_result(result)

    def _run_batch(self, segment: "list[_WaveItem]") -> None:
        ops = [BatchOp(item.kind, item.key, item.value) for item in segment]
        try:
            outcomes = self.service.telemetry.shards[self.index].run_batch(
                ops, [item.trace for item in segment]
            )
        except Exception as exc:
            for item in segment:
                item.future.set_exception(exc)
            return
        for item, outcome in zip(segment, outcomes):
            if outcome.error is not None:
                item.future.set_exception(outcome.error)
            else:
                item.future.set_result(outcome.value)


class ServiceTelemetry:
    """The front door's live plane: windows, sketches, rings, membership.

    Owns one :class:`WindowedView` over the whole registry plus one
    :class:`_ShardTelemetry` per shard, and assembles the ``STATS`` /
    ``SLOW`` / ``METRICS`` replies.  Readers and writers share the
    transport's loop thread, so a reply is a consistent cut between two
    waves.  (The structures underneath keep their own locks: the same
    registries are reached from many threads when a directory is driven
    without a front door.)
    """

    def __init__(self, directory: ShardedDirectory) -> None:
        transport = directory.transport
        self.directory = directory
        self.clock = transport.clock
        self.metrics = transport.metrics
        self.view = WindowedView(
            self.metrics,
            self.clock.now,
            window=_STATS_WINDOW,
            history=_STATS_SAMPLES,
        )
        self._admin = self.metrics.counter("live.admin.requests")
        self._samples = self.metrics.counter("live.window.samples")
        self._recorded = self.metrics.counter("live.ops.recorded")
        self.shards = [
            self._make_shard(i, cluster)
            for i, cluster in enumerate(directory.clusters)
        ]

    def _make_shard(self, index: int, cluster: Any) -> _ShardTelemetry:
        return _ShardTelemetry(
            index, cluster, self.directory, self.clock.now, self._recorded
        )

    def ensure_shard(self, index: int) -> None:
        """Instrument shards a live split added since construction."""
        while len(self.shards) <= index:
            i = len(self.shards)
            self.shards.append(self._make_shard(i, self.directory.clusters[i]))

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
            "rpc_err_per_s": rates.get("service.rpc.errors"),
            "retry_per_s": sum(
                r
                for n, r in rates.rates.items()
                if n.endswith("suite.retry.attempts")
            ),
        }
        return {
            "clock": self.clock.now(),
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
        """The ``SLOW n`` reply body: slowest recent ops across shards."""
        self._admin.inc()
        entries = [op for shard in self.shards for op in shard.slow.slowest(n)]
        entries.sort(key=lambda op: op.duration, reverse=True)
        return [op.to_dict() for op in entries[:n]]

    def snapshot(self) -> dict[str, Any]:
        """The ``METRICS`` reply body: the raw registry snapshot."""
        self._admin.inc()
        return self.metrics.snapshot()


class _Usage(ReproError):
    """A request does not fit its verb's usage line."""


class _Verb:
    """One row of the verb table; the usage line is its single source.

    The usage line is what ``docs/SERVICE.md`` and the module docstring
    list, what a bad request is answered with, and where the arity
    comes from: one argument per word after the verb, a ``[bracketed]``
    word optional, ``|`` between alternative forms.  A *keyed* verb
    (first argument a key) names the ``kind`` that
    :mod:`repro.core.batch` executes for it — alone or grouped is the
    wave's business — and ``reply`` frames that result; an *admin* verb
    has no kind and ``reply`` is its ``async (service, *args)`` handler.
    """

    __slots__ = ("usage", "kind", "reply", "fewest", "most")

    def __init__(self, usage: str, reply: Any, kind: "str | None" = None):
        self.usage, self.reply, self.kind = usage, reply, kind
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


#: Steps one ``REJOIN`` may take (``ReplicaJoin.run``'s own bound).
_JOIN_MAX_STEPS = 10_000

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
    and dispatches each as its own task; the tasks wait in ``_owed`` in
    request order, and whenever the one at the head is done the finished
    run behind it leaves in a single ``transport.write`` — replies come
    back positionally even when ops complete out of order across shards,
    and a burst's replies cost one send.  Dispatch order is
    deterministic: tasks take their first step in creation order and
    each queues its op before it first waits, so same-connection ops
    keep their wire order.

    At most ``pipeline_depth`` requests are in flight.  At the bound
    parsing stops, the bytes behind it stay in the buffer and the socket
    is not read until replies have left; a client that stops *reading*
    has its replies held back here (``pause_writing``) instead of piled
    into the transport, so the same bound stops its requests too.
    """

    def __init__(self, service: "DirectoryService") -> None:
        self.service = service
        self.depth = service.pipeline_depth
        self.transport: Any = None
        self.buffer = protocol.FrameBuffer()
        self._owed: "deque[asyncio.Future]" = deque()
        #: The socket is being read (not paused at the depth bound).
        self._reading = True
        #: The peer takes what is written (``pause_writing`` clears it).
        self._writable = True
        #: No frame will be parsed again: end-of-file, or bytes that are
        #: not frames.  The socket closes once nothing is owed.
        self._finished = False

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
        self.service._links.discard(self)

    # -- frames in -------------------------------------------------------------

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
                # Framing is lost, so nothing after this can be read:
                # say why — behind the replies already owed — and hang up.
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
                if self.service._refills:
                    self.service._refilled()
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

    # -- replies out -----------------------------------------------------------

    def _flush(self, _done: Any = None) -> None:
        owed, transport = self._owed, self.transport
        if self._writable and owed and owed[0].done():
            replies = []
            while owed and owed[0].done():
                try:
                    replies.append(owed.popleft().result())
                except Exception as exc:  # _dispatch never raises
                    replies.append(
                        protocol.encode_error(
                            "ERR", f"internal {type(exc).__name__}: {exc}"
                        )
                    )
            if transport is not None:
                transport.write(b"".join(replies))
                if len(replies) > 1:
                    self.service._expect_refills(len(replies))
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
        pipeline_depth: int = 512,
    ) -> None:
        transport = directory.transport
        if not hasattr(transport, "submit"):
            raise TypeError(
                "DirectoryService needs a directory on an AsyncioTransport "
                f"(got {type(transport).__name__})"
            )
        try:
            directory.shard_for("")  # wire keys are always str
        except TypeError:
            raise ConfigurationError(
                f"shard map {directory.shard_map.describe()} splits at "
                f"{directory.shard_map.boundaries!r}, which do not compare "
                "with the string keys the wire carries; build the "
                "directory with a hash map or string boundaries"
            ) from None
        self.directory = directory
        self.transport = transport
        self.host = host
        self.port: int | None = port or None
        self._server: asyncio.AbstractServer | None = None
        self._links: "set[_Connection]" = set()
        self._closed = False
        if batch_max < 1:
            raise ValueError(f"batch_max must be >= 1: {batch_max}")
        if pipeline_depth < 1:
            raise ValueError(f"pipeline_depth must be >= 1: {pipeline_depth}")
        #: Most ops one wave may hold.  ``1`` is the unbatched control:
        #: every wave is one op, so nothing ever groups.  It exists for
        #: gate 4 of ``benchmarks/bench_service.py``, which replays one
        #: workload batched and unbatched and demands identical state.
        self.batch_max = batch_max
        self.pipeline_depth = pipeline_depth
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
        metrics = transport.metrics
        self._ops = metrics.counter("service.front.ops")
        self._failures = metrics.counter("service.front.errors")
        self.telemetry = ServiceTelemetry(directory)
        # A boot-time baseline sample: the very first STATS request
        # already has something to difference against.
        self.telemetry.sample()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "DirectoryService":
        """Bind and listen; returns self with :attr:`port` resolved."""
        self.transport.submit(self._start())
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
        try:
            self.transport.submit(self._stop())
        except Exception:
            pass

    async def _stop(self) -> None:
        if self._server is None:
            return
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

    async def _dispatch(self, frame: Any) -> bytes:
        if (
            not isinstance(frame, list)
            or not frame
            or not all(isinstance(p, str) for p in frame)
        ):
            return protocol.encode_error("ERR", "expected a command array")
        self._ops.inc()
        # Trailing @-metadata (trace id, client epoch) is stripped before
        # arity checks; unknown or malformed fields are ignored, never
        # errors.
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
                raise _Usage
            if row.kind is None:
                reply = await row.reply(self, *args)
            else:
                if epoch is not None:
                    # The client told us which map it routed with; refuse
                    # the op (cheaply, on the loop) if the key has since
                    # moved.
                    self.directory.require_epoch(args[0], epoch)
                reply = row.reply(
                    await self._on_shard(command, row.kind, trace, *args)
                )
            if epoch is not None:
                reply = protocol.stamp_epoch(reply, self.directory.epoch)
            return reply
        except StaleEpochError as exc:
            # A redirect, not a failure: the client refreshes and retries.
            return protocol.encode_error("MOVED", str(exc.epoch))
        except _Usage:
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
        except Exception as exc:  # the connection survives server bugs too
            self._failures.inc()
            return protocol.encode_error(
                "ERR", f"internal {type(exc).__name__}: {exc}"
            )

    def _sync_shards(self) -> None:
        """Grow per-shard batchers (and telemetry) after a split added
        clusters."""
        while len(self._batchers) < len(self.directory.clusters):
            i = len(self._batchers)
            self._batchers.append(_ShardBatcher(self, i))
            self.telemetry.ensure_shard(i)

    async def _on_shard(
        self, verb: str, kind: str, trace: Any, key: str, value: Any = None
    ) -> Any:
        """Run one keyed op on whichever shard owns its key when it runs.

        Every client op takes this one road: into the arrival-order
        queue, out of it in the next :meth:`_drain`, onto the owning
        shard's :class:`_ShardBatcher`, whose waves decide — from what
        they hold, not from a switch — whether it runs alone or grouped.
        """
        loop = asyncio.get_running_loop()
        item = _WaveItem(verb, kind, key, value, trace, loop.create_future())
        if not self._pending:
            loop.call_soon(self._drain)
        self._pending.append(item)
        return await item.future

    def _drain(self, waited: bool = False) -> None:
        """Route and run everything queued since the last drain.

        The owner of a key is looked up *here*, in the callback that
        executes the op, never when it was queued: a live split's
        cutover is a callback of its own, so it lands before this drain
        or after it, and no op can run on a shard that stopped owning
        its key in between.

        A drain that finds a few window refills still owed
        (:meth:`_expect_refills`) stands back once, until they are in
        or overdue; what it then runs is still everything queued.
        """
        if self._refills:
            loop = asyncio.get_running_loop()
            if waited or loop.time() >= self._refill_by:
                self._refills = 0  # overdue: they are not coming
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
                item.future.set_exception(exc)
                continue
            shares.setdefault(index, []).append(item)
        for index, items in shares.items():
            if index >= len(self._batchers):
                # The current epoch routes to a shard a live split just
                # added; adopt it before its first wave.
                self._sync_shards()
            self._batchers[index].drain(items)

    def _expect_refills(self, count: int) -> None:
        """A connection was just sent ``count`` > 1 replies in one write.

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
        """
        now = asyncio.get_running_loop().time()
        if now > self._refill_by:
            self._refills = 0  # the last lot is overdue
        self._refills += count
        self._refill_by = now + min(self._refills, _REFILL_MOST) * _REFILL_EACH

    def _refilled(self) -> None:
        """A frame arrived while refills were owed; the last one in
        releases the drain that waited for it."""
        self._refills -= 1
        if not self._refills and self._lingering is not None:
            self._lingering.cancel()
            self._lingering = None
            asyncio.get_running_loop().call_soon(self._drain)

    async def _admin_on_shard(self, index: int, fn: Any, *args: Any) -> Any:
        """Run one step of admin work on shard ``index``.

        The step is a loop callback of its own (this task's next turn),
        so it serializes against client waves by construction — no
        locking — and the drains queued before it run first.  A caller
        with many steps to take comes back through here for each, which
        is what lets client ops interleave with a long join or split.
        Every shard shares the serving thread, so ``index`` places
        nothing; it records whose step this is.
        """
        await asyncio.sleep(0)
        return fn(*args)

    # -- admin verbs ---------------------------------------------------------

    async def _ping(self) -> bytes:
        return protocol.encode_simple("PONG")

    async def _size(self) -> bytes:
        total = 0
        for i, cluster in enumerate(self.directory.clusters):
            total += await self._admin_on_shard(i, cluster.suite.size)
        return protocol.encode_integer(total)

    async def _shards(self) -> bytes:
        return protocol.encode_integer(len(self.directory.clusters))

    async def _stats(self, window: "str | None" = None) -> bytes:
        try:
            seconds = None if window is None else float(window)
        except ValueError:
            raise _Usage from None
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
            return protocol.encode_error(
                "ERR", f"bad shard prefix {prefix!r} (want s<i>/replica)"
            )
        if not 0 <= index < len(self.directory.clusters):
            return protocol.encode_error("ERR", f"no shard {index}")
        cluster = self.directory.clusters[index]
        if replica not in cluster.representatives:
            return protocol.encode_error(
                "ERR",
                f"unknown replica {replica!r} on shard {index} "
                f"(have {sorted(cluster.representatives)})",
            )
        from repro.repl import ReplicaJoin

        join = ReplicaJoin(
            cluster,
            replica,
            detector=getattr(cluster.suite, "_detector", None),
        )
        # One step per turn, so the shard's clients are served between
        # steps; bounded as ``ReplicaJoin.run`` is, because a join with
        # no donor to pull from never finishes.
        for _ in range(_JOIN_MAX_STEPS):
            if await self._admin_on_shard(index, join.step):
                break
        else:
            raise RuntimeError(
                f"join of {replica} did not finish in {_JOIN_MAX_STEPS} steps"
            )
        return protocol.encode_simple(
            cluster.suite.membership.state(replica).name
        )

    async def _shardmap(self) -> bytes:
        shard_map = self.directory.shard_map
        boundaries = getattr(shard_map, "boundaries", None)
        return _json(
            {
                "epoch": shard_map.epoch,
                "shards": len(self.directory.clusters),
                "describe": shard_map.describe(),
                "kind": "range" if boundaries is not None else "hash",
                "boundaries": boundaries,
                "owners": getattr(shard_map, "owners", None),
            }
        )

    async def _reshard(self, sub: str, boundary: "str | None" = None) -> bytes:
        directory = self.directory
        if sub.upper() == "STATUS" and boundary is None:
            return _json(directory.reshard_status())
        if sub.upper() != "SPLIT" or boundary is None:
            raise _Usage
        # One phase step per turn: each step is atomic against client
        # waves (no torn copies), and waves run between the steps.
        source = directory.shard_for(boundary)
        resharder = await self._admin_on_shard(
            source, directory.begin_split, boundary
        )
        while not resharder.done:
            await self._admin_on_shard(source, resharder.step)
        self._sync_shards()
        body: dict[str, Any] = {"epoch": directory.epoch, "done": True}
        if directory.reshard_log:
            body.update(directory.reshard_log[-1].summary())
        return _json(body)

    #: The verb table: every command the front door answers, keyed by
    #: the first word of its usage line.
    _VERBS = {
        verb.usage.split()[0]: verb
        for verb in (
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
