"""The benchmark's names: every metric, its unit, direction and bound.

``BENCHMARK.json`` at the repo root is this module's :func:`benchmark_json`
written out (``run.py --emit-spec``); ``selftest.py`` holds the two equal.
"""

from __future__ import annotations

from typing import Any

from benchmarks.perf.counted import BUCKETS
from benchmarks.perf.workloads import WORKLOADS

#: Seconds one driver run measures; split evenly over ``ROUNDS`` rounds.
RUN_SECONDS = 15
#: Timed rounds per run, each on a fresh server.
ROUNDS = 3

#: name -> (unit, better, bound): the gated metrics.  README.md, "What is
#: gated, and why so little", has the measurements behind this list.
END_TO_END: "dict[str, tuple[str, str, float]]" = {
    "setup_s": ("s", "lower", 0.25),
    "server_rss_mb": ("MB", "lower", 0.25),
    "server_calls_per_op": ("calls/op", "lower", 0.12),
    "rpc_msgs_per_op": ("msgs/op", "lower", 0.12),
}

#: End-to-end by nature, but too host-dependent to gate: reported with the
#: per-layer metrics instead (the issue's demotion rule).
DEMOTED: "dict[str, tuple[str, str]]" = {
    "boot_preload_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "server_cpu_ms_per_op": ("ms", "lower"),
    "lat_p50_ms": ("ms", "lower"),
    "lat_p95_ms": ("ms", "lower"),
    "get_p50_ms": ("ms", "lower"),
    "set_p50_ms": ("ms", "lower"),
    "insert_p50_ms": ("ms", "lower"),
    "delete_p50_ms": ("ms", "lower"),
    "max_rate_ok": ("ops/s", "higher"),
    "failed_share": ("ratio", "lower"),
}

_LAYER_US = (
    "protocol.encode_command", "protocol.read_frame", "wire.dump",
    "wire.load", "server.ping_rtt", "aio.thread_hop", "aio.call_rtt",
    "aio.scatter3_rtt", "shard.shard_for", "quorum.choose",
    "suite.lookup", "suite.insert", "suite.update", "suite.delete",
    "rep.lookup", "rep.insert", "rep.neighbors", "rep.coalesce",
    "locks.acquire_release", "twopc.commit",
    *(
        f"store.{store}.{op}"
        for store in ("sorted", "btree", "skiplist")
        for op in ("insert", "lookup", "coalesce")
    ),
    "wal.append",
)

SPAN_CATEGORIES = (
    "front_door", "queue_wait", "suite", "rpc", "wire", "rep",
    "store_wal_locks",
)

#: name -> (unit, better).  Reported by ``--trace 1``; never gated.
PER_LAYER: "dict[str, tuple[str, str]]" = {
    **DEMOTED,
    # isolated layers
    **{f"layer.{name}_us": ("us", "lower") for name in _LAYER_US},
    "layer.batch.wave32_us_per_op": ("us", "lower"),
    "layer.batch.wave32_msgs_per_op": ("msgs/op", "lower"),
    **{
        f"layer.suite_sim.{op}_{what}": (f"{what}/op", "lower")
        for op in ("lookup", "insert", "update", "delete")
        for what in ("msgs", "rounds")
    },
    # counted plane, per workload
    **{f"calls_per_op.{bucket}": ("calls/op", "lower") for bucket in BUCKETS},
    "batch.waves_per_op": ("waves/op", "lower"),
    "batch.ops_per_wave": ("ops/wave", "higher"),
    "batch.grouped_op_share": ("ratio", "higher"),
    "batch.fallbacks": ("count", "lower"),
    "wal.appends_per_op": ("recs/op", "lower"),
    "locks.waits_per_op": ("waits/op", "lower"),
    "front.errors_per_op": ("errs/op", "lower"),
    "trace_overhead_ratio": ("ratio", "lower"),
    # span pass: the workload's mix replayed one op at a time
    **{f"self_ms_per_op.{c}": ("ms", "lower") for c in SPAN_CATEGORIES},
    "span_tiling_error": ("ratio", "lower"),
    "span_overhead_ratio": ("ratio", "lower"),
    # timed plane, from outside
    "front_queue_ms_p50": ("ms", "lower"),
    "host.cal_ms_p50": ("ms", "lower"),
    "host.cal_ms_p95": ("ms", "lower"),
    "gen_late_p95_ms": ("ms", "lower"),
}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    return PER_LAYER[name][0]


def benchmark_json() -> "dict[str, Any]":
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better) in PER_LAYER.items()
        ],
    }
