"""Shared configuration for the benchmark/experiment harness.

Every benchmark regenerates one of the paper's tables or figures (or one
of the discussion-section claims) and prints it.  Run with::

    pytest benchmarks/ --benchmark-only -s

By default the experiments run at a reduced scale that finishes in a
couple of minutes.  Set ``REPRO_PAPER_SCALE=1`` to use the paper's exact
parameters (10,000-operation Figure 14 runs; 100,000-operation Figure 15
runs at 100 / 1,000 / 10,000 entries), which takes substantially longer.

Set ``REPRO_BENCH_DIR=<dir>`` to have benchmarks write ``BENCH_<name>.json``
telemetry documents (see :mod:`repro.obs.bench` and docs/OBSERVABILITY.md)
there via :func:`emit_bench`; unset, telemetry emission is a no-op so the
default run leaves no files behind.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest


def paper_scale() -> bool:
    """True when the paper's full simulation parameters were requested."""
    return os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0")


@pytest.fixture(scope="session")
def scale() -> dict:
    """Scaled experiment parameters (reduced by default)."""
    if paper_scale():
        return {
            "figure14_ops": 10_000,
            "figure15_ops": 100_000,
            "figure15_sizes": [100, 1_000, 10_000],
            "generic_ops": 10_000,
            "concurrency_txns": 2_000,
            "chaos_ops": 10_000,
        }
    return {
        "figure14_ops": 2_000,
        "figure15_ops": 10_000,
        "figure15_sizes": [100, 1_000],
        "generic_ops": 2_000,
        "concurrency_txns": 500,
        "chaos_ops": 2_000,
    }


def run_once(benchmark, fn):
    """Time an experiment exactly once and return its result.

    Experiments are minutes-long simulations; re-running them for
    statistical timing would be wasteful and the interesting output is
    the table, not the nanoseconds.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def emit_bench(
    name,
    workload=None,
    messages=None,
    latency=None,
    audit=None,
    extra=None,
) -> Path | None:
    """Write one BENCH telemetry document, if ``REPRO_BENCH_DIR`` is set.

    The shared writer every ``bench_*.py`` uses: sections as in
    :func:`repro.obs.bench.bench_payload`.  Returns the written path, or
    None when telemetry is disabled.
    """
    directory = os.environ.get("REPRO_BENCH_DIR", "")
    if not directory:
        return None
    from repro.obs.bench import bench_payload, write_bench

    Path(directory).mkdir(parents=True, exist_ok=True)
    payload = bench_payload(
        name,
        workload=workload,
        messages=messages,
        latency=latency,
        audit=audit,
        extra=extra,
    )
    path = write_bench(payload, directory)
    print(f"\nBENCH telemetry written to {path}")
    return path


def classic_wave(sharded, ops) -> int:
    """Replay one wave on ``sharded`` one op at a time; the failure count.

    The shard benchmarks' *control*: the per-op algorithm
    ``ShardedDirectory.execute_wave`` ran before a shard's group became
    one grouped transaction, kept here as a reference implementation,
    not as a second product path.  Ops group by owning shard; each
    group replays through the classic Figure 8/9/13 path
    (``repro.core.batch._single``), one full 2PC per op, from the
    wave's start instant, and the clock settles at the slowest group's
    finish (max-not-sum).  Routing is recorded exactly as the fold's,
    so a ``ReshardController`` sees the same rates on either path.
    """
    from repro.core.batch import _single
    from repro.core.errors import ReproError

    groups: dict[int, list] = {}
    for op in ops:
        groups.setdefault(sharded.shard_for(op[1]), []).append(op)
    clock = sharded.network.clock
    start = finish = clock.now()
    failures = 0
    for index in sorted(groups):
        clock.travel(start)
        sharded.note_routed(index, len(groups[index]))
        suite = sharded.clusters[index].suite
        for op in groups[index]:
            try:
                _single(suite, *op)
            except ReproError:
                failures += 1
        finish = max(finish, clock.now())
    clock.travel(finish)
    return failures


def fold_wave(sharded, ops) -> int:
    """Run one wave through ``execute_wave`` (one grouped transaction per
    shard, the served algorithm); the failure count."""
    return sum(1 for outcome in sharded.execute_wave(ops) if not outcome.ok)


#: (BENCH key prefix, wave runner) for the shard benchmarks: the classic
#: control keeps the unprefixed keys, the fold goes beside it.
WAVE_PATHS = (("", classic_wave), ("fold_", fold_wave))


def simulation_bench_sections(result) -> dict:
    """messages/extra sections for a BENCH doc from a SimulationResult."""
    total_ops = max(1, result.op_counts.total)
    return {
        "messages": {
            "messages": result.traffic["messages"],
            "rpc_rounds": result.traffic["rpc_rounds"],
            "rpc_rounds_per_op": result.traffic["rpc_rounds"] / total_ops,
        },
        "extra": {
            "failed_operations": result.failed_operations,
            "model_mismatches": result.model_mismatches,
            "sim_ticks": result.sim_ticks,
        },
    }
