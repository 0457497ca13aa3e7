"""The four workloads, their seeded op streams and the reply oracle.

Every connection owns a disjoint key set (``c<conn>k<n>``), so an exact
model of that set predicts every reply on the connection, whatever the
other connections do.  Ops are generated — and the model advanced — in
*send* order; the service executes one connection's ops on one key in
wire order, so send order is execution order for every key the model
tracks, at any pipeline depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from benchmarks.perf.estimators import VERBS
from repro.service import protocol


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Weights for GET / SET / INSERT / DELETE (sum to 100).
    mix: tuple[int, int, int, int]
    connections: int
    #: Requests kept outstanding per connection (closed loop).
    depth: int
    #: Keys across all connections; half are preloaded.
    keyspace: int
    #: Offered ops/s per ladder step; empty for closed-loop workloads.
    rates: tuple[int, ...] = ()
    #: Ops the counted plane drives (fixed, so the counts repeat).
    counted_ops: int = 0
    #: Closed-loop depth the counted plane drives an open-loop workload
    #: at: an arrival schedule would tie the counts to the clock.
    counted_depth: int = 0

    @property
    def open_loop(self) -> bool:
        return bool(self.rates)


#: The ladder step every single-valued open-loop metric is read at: the
#: one below the knee.  (The issue read at 400 on a host where 400 gave
#: p50 ~ 11 ms; on this one 200 does and 400 sits on the knee.)
LADDER_READ_RATE = 200

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serial_verbs",
            "1 conn x depth 1: latency is the sum of sequential quorum "
            "rounds, so aio+wire+suite round structure do the work and "
            "core.batch does none",
            (40, 20, 20, 20), connections=1, depth=1, keyspace=2048,
            counted_ops=400,
        ),
        Workload(
            "pipelined_reads",
            "2 conns x depth 32, 88% GET: waves form, so core.batch, the "
            "shard batcher and front-door framing do the work and the "
            "delete path is nearly bypassed",
            (88, 8, 2, 2), connections=2, depth=32, keyspace=2048,
            counted_ops=3000,
        ),
        Workload(
            "delete_churn",
            "2 conns x depth 8, 45% INSERT / 45% DELETE: neighbor search, "
            "coalesce, ghost removal and one 2PC per delete under load; "
            "unbatched deletes split waves",
            (5, 5, 45, 45), connections=2, depth=8, keyspace=1024,
            counted_ops=500,
        ),
        Workload(
            "open_ladder",
            "open loop, Poisson arrivals at 200/400/800 ops/s on 2 conns, "
            "latency from the scheduled send: front-door and batcher "
            "queue wait is what is measured",
            (60, 20, 10, 10), connections=2, depth=0, keyspace=2048,
            rates=(200, 400, 800), counted_ops=500, counted_depth=4,
        ),
    )
}

#: One in this many ops of a verb is aimed the other way: an INSERT at a
#: present key (``-KEYEXISTS``), a DELETE at an absent one (``-NOTFOUND``),
#: a SET at an absent key (an insert, where it is otherwise an overwrite).
#: The strict verbs' error contract is exercised on every workload without
#: turning the write workloads into streams of cheap refusals.  Counted,
#: not drawn, so the share is exact on any seed.
CONTRARY_EVERY = {"SET": 2, "INSERT": 4, "DELETE": 4}


class _KeyPool:
    """A set of ints with O(1) add, remove and seeded random choice."""

    def __init__(self, items: "list[int]") -> None:
        self.items = list(items)
        self.index = {n: i for i, n in enumerate(self.items)}

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, n: int) -> bool:
        return n in self.index

    def add(self, n: int) -> None:
        self.index[n] = len(self.items)
        self.items.append(n)

    def remove(self, n: int) -> None:
        i = self.index.pop(n)
        last = self.items.pop()
        if last != n:
            self.items[i] = last
            self.index[last] = i

    def choose(self, rng: random.Random) -> int:
        return self.items[rng.randrange(len(self.items))]


@dataclass(slots=True)
class Op:
    verb: str
    frame: bytes
    #: What a correct server replies: a value / ``None`` / ``"OK"``, or
    #: the error code (``"KEYEXISTS"`` / ``"NOTFOUND"``) the model predicts.
    expect: Any
    expect_error: bool = False


def reply_matches(op: Op, reply: Any) -> bool:
    """True when ``reply`` is exactly what the model predicted."""
    if isinstance(reply, protocol.ReplyError):
        return op.expect_error and reply.code == op.expect
    return not op.expect_error and reply == op.expect


def is_internal_error(reply: Any) -> bool:
    """A server bug that reached the wire (``-ERR internal ...``)."""
    return (
        isinstance(reply, protocol.ReplyError)
        and reply.code == "ERR"
        and reply.detail.startswith("internal")
    )


class ConnectionModel:
    """One connection's key set, op stream and expected replies."""

    def __init__(self, workload: Workload, seed: int, conn: int) -> None:
        self.conn = conn
        self.rng = random.Random(seed * 100_003 + conn)
        self.keys = workload.keyspace // workload.connections
        order = list(range(self.keys))
        self.rng.shuffle(order)
        half = self.keys // 2
        self.present = _KeyPool(order[:half])
        self.absent = _KeyPool(order[half:])
        #: The preloaded half starts with the values the preload writes.
        self.values = {n: f"p{n}" for n in self.present.items}
        self.mix = workload.mix
        self.block: "list[str]" = []
        #: Per-verb op counts, started at a seeded phase.
        self.aimed = {
            verb: self.rng.randrange(every)
            for verb, every in CONTRARY_EVERY.items()
        }
        self.seq = 0

    def key(self, n: int) -> str:
        return f"c{self.conn}k{n}"

    # -- preload ------------------------------------------------------------

    def preload_ops(self) -> "list[Op]":
        """``SET``s that bring a fresh server to the model's initial state."""
        return [
            Op("SET", protocol.encode_command("SET", self.key(n), value), "OK")
            for n, value in self.values.items()
        ]

    # -- the measured stream ------------------------------------------------

    def _aimed(self, verb: str, likely: _KeyPool, contrary: _KeyPool) -> int:
        self.aimed[verb] += 1
        pool = contrary if self.aimed[verb] % CONTRARY_EVERY[verb] == 0 else likely
        if not len(pool):
            pool = likely if pool is contrary else contrary
        return pool.choose(self.rng)

    def _next_verb(self) -> str:
        """Verbs come in shuffled blocks of 100 holding the exact mix, so
        two seeds differ in order and keys but never in proportions."""
        if not self.block:
            self.block = [
                verb for verb, weight in zip(VERBS, self.mix)
                for _ in range(weight)
            ]
            self.rng.shuffle(self.block)
        return self.block.pop()

    def next_op(self) -> Op:
        """Generate the next op and advance the model past it."""
        verb = self._next_verb()
        self.seq += 1
        if verb == "GET":
            n = self.rng.randrange(self.keys)
            return Op(
                "GET",
                protocol.encode_command("GET", self.key(n)),
                self.values.get(n),
            )
        if verb == "SET":
            n = self._aimed(verb, self.present, self.absent)
            value = f"s{self.seq}"
            if n not in self.present:
                self.absent.remove(n)
                self.present.add(n)
            self.values[n] = value
            return Op(
                "SET", protocol.encode_command("SET", self.key(n), value), "OK"
            )
        if verb == "INSERT":
            n = self._aimed(verb, self.absent, self.present)
            value = f"i{self.seq}"
            frame = protocol.encode_command("INSERT", self.key(n), value)
            if n in self.present:
                return Op("INSERT", frame, "KEYEXISTS", expect_error=True)
            self.absent.remove(n)
            self.present.add(n)
            self.values[n] = value
            return Op("INSERT", frame, "OK")
        n = self._aimed(verb, self.present, self.absent)
        frame = protocol.encode_command("DELETE", self.key(n))
        if n not in self.present:
            return Op("DELETE", frame, "NOTFOUND", expect_error=True)
        self.present.remove(n)
        self.absent.add(n)
        del self.values[n]
        return Op("DELETE", frame, "OK")

    # -- read-back ----------------------------------------------------------

    def readback_ops(self, count: int) -> "list[Op]":
        """``GET``s over a seeded sample of model keys, present and absent."""
        picks = self.rng.sample(range(self.keys), min(count, self.keys))
        return [
            Op(
                "GET",
                protocol.encode_command("GET", self.key(n)),
                self.values.get(n),
            )
            for n in picks
        ]

    def size(self) -> int:
        return len(self.present)
