"""The load drivers: raw frames over asyncio streams, every reply checked.

Closed loop keeps a *sliding window* of ``depth`` requests outstanding per
connection — a reply is read, checked, timed from its own write, and
replaced by one new request — so per-verb latencies are each op's own and
a slow delete does not stamp its time on its neighbours.  Open loop sends
on a seeded Poisson schedule whatever the server does and charges latency
from the *scheduled* instant.

The same drivers run in the benchmark process (timed plane) and in a
child process (counted plane, :func:`client_job`), where fixed op counts
replace the clock.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from benchmarks.perf import estimators
from benchmarks.perf.workloads import (
    WORKLOADS,
    ConnectionModel,
    Op,
    Workload,
    is_internal_error,
    reply_matches,
)
from repro.service import protocol

READBACK_KEYS = 256


@dataclass
class Tally:
    """What the oracle saw.  ``failed`` is everything that is not a
    correct reply: wrong replies, unpredicted errors, broken connections."""

    attempted: int = 0
    wrong: int = 0
    internal_errors: int = 0
    broken: int = 0
    examples: "list[str]" = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.wrong + self.broken

    def check(self, op: Op, reply: Any) -> bool:
        if reply_matches(op, reply):
            return True
        self.wrong += 1
        if is_internal_error(reply):
            self.internal_errors += 1
        if len(self.examples) < 5:
            self.examples.append(
                f"{op.verb} {op.frame!r}: expected {op.expect!r}, got {reply!r}"
            )
        return False

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.wrong += other.wrong
        self.internal_errors += other.internal_errors
        self.broken += other.broken
        self.examples.extend(other.examples[: max(0, 5 - len(self.examples))])


_BROKEN = (OSError, asyncio.IncompleteReadError)


@dataclass(slots=True)
class Sample:
    verb: str
    #: Where latency counts from: the write (closed) or the schedule (open).
    start: float
    sent: float
    done: float
    ok: bool


class Connection:
    """One client socket plus the model of the keys it owns."""

    def __init__(self, workload: Workload, seed: int, conn: int) -> None:
        self.model = ConnectionModel(workload, seed, conn)
        self.tally = Tally()
        self.samples: "list[Sample]" = []
        self.reader: Any = None
        self.writer: Any = None

    async def open(self, host: str, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection(host, port)

    async def close(self) -> None:
        if self.writer is None:
            return
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except _BROKEN:
            pass

    async def burst(self, ops: "list[Op]") -> None:
        """Write every op, then read and check every reply (untimed)."""
        self.tally.attempted += len(ops)
        try:
            for op in ops:
                self.writer.write(op.frame)
            for op in ops:
                self.tally.check(op, await protocol.read_frame(self.reader))
        except _BROKEN:
            self.tally.broken += 1

    async def preload(self) -> None:
        await self.burst(self.model.preload_ops())

    async def readback(self) -> None:
        await self.burst(self.model.readback_ops(READBACK_KEYS))

    async def closed_loop(
        self, depth: int, until: "float | None", max_ops: "int | None"
    ) -> None:
        """Sliding window of ``depth`` until the clock or the count runs out."""
        pending: "deque[tuple[Op, float]]" = deque()
        sent = 0

        def more() -> bool:
            if max_ops is not None and sent >= max_ops:
                return False
            return until is None or time.perf_counter() < until

        try:
            while True:
                while len(pending) < depth and more():
                    op = self.model.next_op()
                    pending.append((op, time.perf_counter()))
                    self.writer.write(op.frame)
                    sent += 1
                if not pending:
                    break
                reply = await protocol.read_frame(self.reader)
                done = time.perf_counter()
                op, started = pending.popleft()
                self.samples.append(
                    Sample(op.verb, started, started, done,
                           self.tally.check(op, reply))
                )
        except _BROKEN:
            self.tally.broken += 1
        self.tally.attempted += sent

    async def open_loop(
        self, t0: float, steps: "list[tuple[float, float]]"
    ) -> None:
        """Poisson arrivals at each step's rate (this connection's share).

        ``steps`` is ``[(ops_per_s, seconds), ...]`` run back to back from
        ``t0``.  The sender never waits for the server: frames are
        written on schedule and replies matched positionally.
        """
        rng = self.model.rng
        queue: "asyncio.Queue[tuple[Op, float, float] | None]" = asyncio.Queue()

        async def sender() -> None:
            sent = 0
            begin = t0
            try:
                for rate, seconds in steps:
                    due = begin
                    end = begin + seconds
                    while True:
                        due += rng.expovariate(rate)
                        if due >= end:
                            break
                        delay = due - time.perf_counter()
                        if delay > 0:
                            await asyncio.sleep(delay)
                        op = self.model.next_op()
                        now = time.perf_counter()
                        self.writer.write(op.frame)
                        sent += 1
                        queue.put_nowait((op, due, now))
                    begin = end
            finally:
                self.tally.attempted += sent
                queue.put_nowait(None)

        async def receiver() -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                op, due, sent_at = item
                reply = await protocol.read_frame(self.reader)
                self.samples.append(
                    Sample(op.verb, due, sent_at, time.perf_counter(),
                           self.tally.check(op, reply))
                )

        tasks = [asyncio.ensure_future(sender()), asyncio.ensure_future(receiver())]
        try:
            await asyncio.gather(*tasks)
        except _BROKEN:
            self.tally.broken += 1
        finally:
            for task in tasks:
                task.cancel()


async def admin(host: str, port: int, *command: str) -> Any:
    """One admin request on its own connection (``METRICS``, ``STATS``...)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(protocol.encode_command(*command))
        await writer.drain()
        reply = await protocol.read_frame(reader)
    finally:
        writer.close()
    if isinstance(reply, protocol.ReplyError):
        raise reply
    return reply


async def admin_json(host: str, port: int, *command: str) -> Any:
    return json.loads(await admin(host, port, *command))


# -- the counted plane's client: a child process, fixed op counts -------------


def _emit(message: "dict[str, Any]") -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _await_go() -> None:
    if not sys.stdin.readline():
        raise SystemExit("parent went away")


async def _client_job(job: "dict[str, Any]") -> None:
    workload = WORKLOADS[job["workload"]]
    if job["serial"]:
        # The span pass replays the workload's mix one op at a time.
        workload = dataclasses.replace(workload, connections=1, depth=1)
    elif workload.open_loop:
        workload = dataclasses.replace(workload, depth=workload.counted_depth)
    conns = [
        Connection(workload, job["seed"], i)
        for i in range(workload.connections)
    ]
    for conn in conns:
        await conn.open(job["host"], job["port"])
    await asyncio.gather(*(c.preload() for c in conns))

    async def phase(ops: int) -> None:
        share = ops // len(conns)
        await asyncio.gather(
            *(c.closed_loop(workload.depth, None, share) for c in conns)
        )

    _emit({"event": "preloaded"})
    _await_go()
    await phase(job["warm_ops"])
    for conn in conns:
        conn.samples.clear()
    _emit({"event": "warmed"})
    _await_go()
    await phase(job["ops"])
    samples = [s for c in conns for s in c.samples]
    _emit(
        {
            "event": "measured",
            "ops": len(samples),
            "lat_p50_ms": estimators.percentile(
                sorted(s.done - s.start for s in samples), 50
            ) * 1e3,
            "ops_intervals": (
                [[s.sent, s.done] for s in samples] if job["serial"] else []
            ),
        }
    )
    _await_go()
    await asyncio.gather(*(c.readback() for c in conns))
    tally = Tally()
    for conn in conns:
        tally.merge(conn.tally)
        await conn.close()
    _emit({"event": "done", **dataclasses.asdict(tally)})


def client_job(job_json: str) -> None:
    """Entry point of the child process (``run.py --client-job JSON``)."""
    asyncio.run(_client_job(json.loads(job_json)))
