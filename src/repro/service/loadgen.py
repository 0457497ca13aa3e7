"""Load generator for the directory service: closed loop and open loop.

One construction path — :class:`LoadSpec`, mirroring
:class:`~repro.cluster.ClusterSpec` — holds every knob the ``repro
load`` CLI, the benchmarks, and the CI smoke jobs set.

**Closed loop** (the default): ``connections`` concurrent sockets (one
:class:`~repro.service.client.AsyncDirectoryClient` each) drive a keyed
``SET``/``GET``/``DEL`` mix through the client's pipeline API, every
connection sending its next burst of ``pipeline`` operations the moment
the previous burst's replies land.  At the default ``pipeline=1`` that
is exactly one outstanding request per connection, so the measured
latency is honest service time, not queue time at the generator; a
deeper burst records each op at the burst's wall time, i.e. what each op
in the burst actually waited end to end.

**Open loop** (``rate=`` or ``rates=``): operations *arrive* on a
Poisson process at the offered rate (split evenly across connections,
exponential inter-arrival gaps) and are written to the socket on
schedule regardless of outstanding replies — the generator never slows
down because the service is slow, which is what makes latency *under
load* honest: each op's latency is measured from its scheduled arrival,
so server queueing delay is included.  A ``rates=(...)`` sweep runs one
timed window per offered rate and emits the classic latency-under-load
curve (``latency_curve`` in the BENCH document's ``extra``).  Open-loop
connections speak raw protocol frames without ``@trace``/``@epoch``
stamps, so every request maps 1:1 to a reply frame and replies are
matched positionally.

Latency is sampled per operation with ``time.perf_counter``; a run
reports throughput plus p50/p95/p99/max, counts *client-visible errors*
— which a healthy run must keep at zero (the lenient verbs never error
for absent keys) — and closed-loop runs keep a per-second timeline of
completions and errors, so warm-up and mid-run degradation are visible
instead of being averaged away.  Results are written as
``BENCH_<name>.json`` in the repo's BENCH schema
(:mod:`repro.obs.bench`), so the trend tooling that reads the simulated
benchmarks reads this one too.

A skew knob makes hot-shard experiments one flag: with
``hot_fraction=0.5, hot_keys=1``, half of all operations hit the single
key ``h0``, which hashes to one shard — the shard the service's
``STATS`` verb must then identify as hot.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ConfigurationError
from repro.core.stats import percentile
from repro.obs.bench import bench_payload, write_bench
from repro.service import protocol
from repro.service.client import AsyncDirectoryClient

#: Operation mix: weights for (set, get, del).
DEFAULT_MIX = (0.3, 0.6, 0.1)


@dataclass(frozen=True)
class LoadSpec:
    """Everything one load run needs, in one value.

    ``rate``/``rates`` switch the generator to open loop: ``rate`` runs
    a single timed window at that offered ops/s, ``rates`` sweeps a
    window per point (and wins if both are set).  ``ops`` bounds a
    closed-loop run; open-loop windows are bounded by ``duration``
    seconds each instead.  A value out of range raises
    :class:`~repro.core.errors.ConfigurationError`.
    """

    host: str = "127.0.0.1"
    port: int = 7379
    ops: int = 20_000
    connections: int = 256
    keyspace: int = 4096
    mix: tuple[float, float, float] = DEFAULT_MIX
    seed: int = 1
    hot_fraction: float = 0.0
    hot_keys: int = 1
    #: Closed-loop burst depth per connection (1 = classic request-reply).
    pipeline: int = 1
    #: Open loop: total offered ops/s across all connections.
    rate: "float | None" = None
    #: Open loop: sweep of offered rates, one timed window each.
    rates: "tuple[float, ...] | None" = None
    #: Open loop: seconds per timed window.
    duration: float = 5.0
    name: str = "service"

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise ConfigurationError(f"ops must be >= 1: {self.ops}")
        if self.connections < 1:
            raise ConfigurationError(f"connections must be >= 1: {self.connections}")
        if self.keyspace < 1:
            raise ConfigurationError(f"keyspace must be >= 1: {self.keyspace}")
        if len(self.mix) != 3 or abs(sum(self.mix) - 1.0) > 1e-9:
            raise ConfigurationError(f"mix weights must sum to 1: {self.mix!r}")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction must be in [0, 1]: {self.hot_fraction}"
            )
        if self.hot_keys < 1:
            raise ConfigurationError(f"hot_keys must be >= 1: {self.hot_keys}")
        if self.pipeline < 1:
            raise ConfigurationError(f"pipeline must be >= 1: {self.pipeline}")
        if self.rate is not None and self.rate <= 0:
            raise ConfigurationError(f"rate must be > 0: {self.rate}")
        if self.rates is not None:
            object.__setattr__(self, "rates", tuple(self.rates))
            if not self.rates or any(r <= 0 for r in self.rates):
                raise ConfigurationError(
                    f"rates must be a non-empty tuple of > 0: {self.rates!r}"
                )
        if self.duration <= 0:
            raise ConfigurationError(f"duration must be > 0: {self.duration}")

    @property
    def open_loop(self) -> bool:
        return self.rate is not None or self.rates is not None

    def rate_points(self) -> tuple[float, ...]:
        """The offered-rate sweep (``rates`` wins over ``rate``)."""
        if self.rates is not None:
            return self.rates
        return (self.rate,) if self.rate is not None else ()


def _latency_ms(ordered: "list[float]") -> dict[str, float]:
    done = len(ordered)
    return {
        "p50": percentile(ordered, 50) * 1000,
        "p95": percentile(ordered, 95) * 1000,
        "p99": percentile(ordered, 99) * 1000,
        "max": (ordered[-1] if ordered else 0.0) * 1000,
        "mean": (sum(ordered) / done if done else 0.0) * 1000,
    }


def _pick_key(rng: random.Random, spec: LoadSpec) -> str:
    if spec.hot_fraction and rng.random() < spec.hot_fraction:
        return f"h{rng.randrange(spec.hot_keys)}"
    return f"k{rng.randrange(spec.keyspace)}"


# -- closed loop -------------------------------------------------------------


async def _pipelined_worker(
    spec: LoadSpec,
    index: int,
    budget: "list[int]",
    latencies: "list[float]",
    errors: "list[int]",
    timeline: "dict[int, list[int]]",
    t0: float,
) -> None:
    rng = random.Random(spec.seed * 100_003 + index)
    set_w, get_w, _ = spec.mix
    client = await AsyncDirectoryClient.connect(spec.host, spec.port)
    try:
        while True:
            take = min(spec.pipeline, budget[0])
            if take <= 0:
                return
            budget[0] -= take
            pipe = client.pipeline()
            for _ in range(take):
                key = _pick_key(rng, spec)
                roll = rng.random()
                if roll < set_w:
                    pipe.set(key, f"v{index}")
                elif roll < set_w + get_w:
                    pipe.get(key)
                else:
                    pipe.remove(key)
            started = time.perf_counter()
            try:
                handles = await pipe.flush()
            except Exception:
                errors[0] += take
                failed = take
            else:
                elapsed = time.perf_counter() - started
                failed = sum(1 for h in handles if h.error is not None)
                errors[0] += failed
                # Every op in the burst waited the burst's wall time.
                latencies.extend([elapsed] * (take - failed))
            # Single-threaded event loop: plain dict/list updates are safe.
            bucket = timeline.setdefault(
                int(time.perf_counter() - t0), [0, 0]
            )
            bucket[0] += take
            bucket[1] += failed
    finally:
        await client.close()


async def _closed_loop(spec: LoadSpec) -> dict[str, Any]:
    latencies: list[float] = []
    errors = [0]
    budget = [spec.ops]
    timeline: dict[int, list[int]] = {}
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _pipelined_worker(
                spec, i, budget, latencies, errors, timeline, started
            )
            for i in range(spec.connections)
        )
    )
    elapsed = time.perf_counter() - started
    done = len(latencies)
    ordered = sorted(latencies)
    return {
        "mode": "closed",
        "ops": done,
        "errors": errors[0],
        "elapsed_seconds": elapsed,
        "ops_per_second": done / elapsed if elapsed > 0 else 0.0,
        "latency_ms": _latency_ms(ordered),
        "timeline": [
            {"second": s, "ops": n, "errors": e}
            for s, (n, e) in sorted(timeline.items())
        ],
    }


# -- open loop ---------------------------------------------------------------


async def _open_loop_conn(
    spec: LoadSpec,
    index: int,
    rate: float,
    latencies: "list[float]",
    errors: "list[int]",
    t0: float,
) -> None:
    """One open-loop connection: send on schedule, read positionally.

    Raw frames, no metadata stamps — each request produces exactly one
    reply, so the receiver matches replies to scheduled arrival times
    FIFO.  Latency counts from the *scheduled* arrival: a generator
    running behind (server back-pressure) charges the wait to the
    server, which is the whole point of open loop.
    """
    rng = random.Random(spec.seed * 100_003 + index)
    set_w, get_w, _ = spec.mix
    per_conn = rate / spec.connections
    reader, writer = await asyncio.open_connection(spec.host, spec.port)
    sched: "asyncio.Queue[float | None]" = asyncio.Queue()

    async def sender() -> None:
        deadline = t0 + spec.duration
        next_at = t0
        try:
            while True:
                next_at += rng.expovariate(per_conn)
                if next_at > deadline:
                    break
                now = time.perf_counter()
                if next_at > now:
                    await asyncio.sleep(next_at - now)
                key = _pick_key(rng, spec)
                roll = rng.random()
                if roll < set_w:
                    frame = protocol.encode_command("SET", key, f"v{index}")
                elif roll < set_w + get_w:
                    frame = protocol.encode_command("GET", key)
                else:
                    frame = protocol.encode_command("DEL", key)
                writer.write(frame)
                await writer.drain()
                await sched.put(next_at)
        except (ConnectionError, OSError):
            errors[0] += 1
        finally:
            await sched.put(None)

    async def receiver() -> None:
        while True:
            at = await sched.get()
            if at is None:
                return
            try:
                reply = await protocol.read_frame(reader)
            except (ConnectionError, OSError):
                errors[0] += 1
                return
            if isinstance(reply, protocol.ReplyError):
                errors[0] += 1
            else:
                latencies.append(time.perf_counter() - at)

    try:
        await asyncio.gather(sender(), receiver())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _open_loop(spec: LoadSpec) -> dict[str, Any]:
    curve: list[dict[str, Any]] = []
    total_ops = 0
    total_errors = 0
    for rate in spec.rate_points():
        latencies: list[float] = []
        errors = [0]
        t0 = time.perf_counter()
        await asyncio.gather(
            *(
                _open_loop_conn(spec, i, rate, latencies, errors, t0)
                for i in range(spec.connections)
            )
        )
        elapsed = time.perf_counter() - t0
        done = len(latencies)
        ordered = sorted(latencies)
        ms = _latency_ms(ordered)
        total_ops += done
        total_errors += errors[0]
        curve.append(
            {
                "offered_ops_per_second": rate,
                "achieved_ops_per_second": (
                    done / elapsed if elapsed > 0 else 0.0
                ),
                "ops": done,
                "errors": errors[0],
                "elapsed_seconds": elapsed,
                "p50_ms": ms["p50"],
                "p95_ms": ms["p95"],
                "p99_ms": ms["p99"],
                "mean_ms": ms["mean"],
                "max_ms": ms["max"],
            }
        )
    last = curve[-1]
    return {
        "mode": "open",
        "ops": total_ops,
        "errors": total_errors,
        "elapsed_seconds": sum(p["elapsed_seconds"] for p in curve),
        "ops_per_second": last["achieved_ops_per_second"],
        "latency_ms": {
            "p50": last["p50_ms"],
            "p95": last["p95_ms"],
            "p99": last["p99_ms"],
            "max": last["max_ms"],
            "mean": last["mean_ms"],
        },
        "latency_curve": curve,
        "timeline": [],
    }


# -- entry point -------------------------------------------------------------


def run_load(
    spec: LoadSpec, *, bench_dir: "str | None" = None
) -> dict[str, Any]:
    """Drive the service per ``spec``; return (and optionally write) results.

    ::

        run_load(LoadSpec(host=host, port=port, ops=50_000, pipeline=16))

    With ``bench_dir`` set, also writes ``BENCH_<name>.json`` there and
    records the path under ``result["bench_path"]``.
    """
    if spec.open_loop:
        result = asyncio.run(_open_loop(spec))
    else:
        result = asyncio.run(_closed_loop(spec))
    result["connections"] = spec.connections
    if bench_dir is not None:
        workload = {
            "mode": result["mode"],
            "ops": result["ops"],
            "connections": spec.connections,
            "keyspace": spec.keyspace,
            "mix": {
                "set": spec.mix[0],
                "get": spec.mix[1],
                "del": spec.mix[2],
            },
            "seed": spec.seed,
            "hot_fraction": spec.hot_fraction,
            "hot_keys": spec.hot_keys,
            "pipeline": spec.pipeline,
        }
        if spec.open_loop:
            workload["rates"] = list(spec.rate_points())
            workload["duration_seconds"] = spec.duration
        extra: dict[str, Any] = {
            "host": spec.host,
            "port": spec.port,
            "timeline": result["timeline"],
        }
        if spec.open_loop:
            extra["latency_curve"] = result["latency_curve"]
        payload = bench_payload(
            spec.name,
            workload=workload,
            messages={"client_errors": result["errors"]},
            latency={
                "ops_per_second": result["ops_per_second"],
                "elapsed_seconds": result["elapsed_seconds"],
                "p50_ms": result["latency_ms"]["p50"],
                "p95_ms": result["latency_ms"]["p95"],
                "p99_ms": result["latency_ms"]["p99"],
                "max_ms": result["latency_ms"]["max"],
                "mean_ms": result["latency_ms"]["mean"],
            },
            extra=extra,
        )
        result["bench_path"] = str(write_bench(payload, bench_dir))
    return result
