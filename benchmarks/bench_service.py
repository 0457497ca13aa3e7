"""Acceptance gate for the pipelined, batched directory service.

E23 measured the strict request-reply front door at 442 ops/s over 256
closed-loop connections — every op a full multi-round quorum
transaction queued alone behind its shard's single worker.  This bench
drives the redesigned service (wire pipelining, per-shard wave
batching, parallel quorum fan-out) and enforces the scale-up claims:

1. **Throughput** — a 256-connection pipelined closed-loop run must
   clear **3x the E23 baseline** (>= 1,326 ops/s), with zero
   client-visible errors and at least one multi-op batched wave
   actually executed (the speedup must come from the mechanism under
   test, not noise).
2. **1k+ connections** — a 1,024-connection pipelined closed-loop run
   completes with **zero** client-visible errors.
3. **Latency under load** — the open-loop arrival-rate mode produces a
   latency-under-load curve (offered vs achieved rate plus
   percentiles), emitted under ``extra.latency_curve``.
4. **Correctness under batching** — a seeded workload (45 % ``SET``,
   40 % ``GET``, 15 % ``DEL``) replayed through a batched service and an
   unbatched control is answered **identically, slot by slot**, leaves
   **identical** authoritative state, both shard audits report zero
   violations (ghosts included), and the batched side sends fewer
   replica messages per op than the control.  A second, delete-heavy
   leg (45 % ``DEL``, 45 % ``SET``, 10 % ``GET`` over the same dense
   200 keys, so the deletes of a burst crowd one another) is held to
   the same — and to **at most 0.7x** the control's messages per op:
   a wave's deletes share one walk and one coalesce.

Emits ``BENCH_service.json`` with the measured numbers; CI's
``service-smoke`` and ``open-loop-smoke`` jobs replay reduced versions
of gates 2 and 3 on every push.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit_bench, paper_scale, run_once
from repro.cluster import ClusterSpec
from repro.service.loadgen import LoadSpec, run_load
from repro.service.server import DirectoryService
from repro.shard.sharded import ShardedDirectory

SHARDS = 4
#: E23: strict request-reply, 256 closed-loop connections.
E23_OPS_PER_S = 442.0
SPEEDUP_GATE = 3.0
PIPELINE_DEPTH = 16


def _make_service(*, batch_max: int = 128, seed: int = 0):
    spec = ClusterSpec(
        config="3-2-2", seed=seed, transport="asyncio", fanout="parallel"
    )
    directory = ShardedDirectory.create(spec, shards=SHARDS, shard_map="hash")
    service = DirectoryService(directory, batch_max=batch_max).start()
    return directory, service


def test_service_scale(benchmark, scale):
    paper = paper_scale()
    ops_256 = 20_000 if paper else 5_000
    ops_1024 = 16_384 if paper else 4_096
    rates = (500, 1_000, 2_000) if paper else (400, 1_200)
    duration = 5.0 if paper else 2.0

    result = run_once(
        benchmark,
        lambda: _drive(ops_256, ops_1024, rates, duration),
    )
    _report(result)
    _enforce(result)


def _drive(ops_256, ops_1024, rates, duration):
    directory, service = _make_service()
    try:
        with service:
            # Gate 1: 256 connections, pipelined bursts.
            main = run_load(
                LoadSpec(
                    host=service.host,
                    port=service.port,
                    ops=ops_256,
                    connections=256,
                    keyspace=4096,
                    seed=1,
                    pipeline=PIPELINE_DEPTH,
                )
            )
            # Gate 2: 1,024 connections.
            wide = run_load(
                LoadSpec(
                    host=service.host,
                    port=service.port,
                    ops=ops_1024,
                    connections=1024,
                    keyspace=4096,
                    seed=2,
                    pipeline=4,
                )
            )
            # Gate 3: the open-loop latency-under-load curve.
            open_loop = run_load(
                LoadSpec(
                    host=service.host,
                    port=service.port,
                    connections=64,
                    keyspace=4096,
                    seed=3,
                    rates=rates,
                    duration=duration,
                )
            )
            snapshot = directory.transport.metrics.snapshot()
    finally:
        directory.close()
    batch_waves = sum(
        row["n"]
        for name, row in snapshot.items()
        if name.endswith("suite.batch.size") and isinstance(row, dict)
    )
    batched_ops = sum(
        value
        for name, value in snapshot.items()
        if name.endswith("suite.batch.ops")
    )
    control = _batched_vs_control()
    return {
        "main": main,
        "wide": wide,
        "open_loop": open_loop,
        "batch_waves": batch_waves,
        "batched_ops": batched_ops,
        "control": control,
    }


#: Gate 4's legs: the share of ``SET`` and of ``GET``; the rest is ``DEL``.
MIXED = (0.45, 0.40)
DELETE_HEAVY = (0.45, 0.10)
#: The delete-heavy leg's batched side may cost this much of the control.
DELETE_HEAVY_BILL = 0.7


def _batched_vs_control(ops: int = 1_000, burst: int = 32, seed: int = 99):
    """Gate 4: same seeded workload, batched vs unbatched, same answers.

    The mixed leg's comparison, with the delete-heavy leg's under
    ``"delete_heavy"`` (:func:`_control_leg` makes either).
    """
    control = _control_leg(MIXED, ops, burst, seed)
    control["delete_heavy"] = _control_leg(DELETE_HEAVY, ops, burst, seed + 1)
    return control


def _control_leg(mix, ops: int, burst: int, seed: int):
    """One seeded script through a batched service and its control.

    One pipelined connection replays an identical op sequence against a
    batched service and a ``batch_max=1`` control — every wave one op,
    so nothing ever groups and each op takes the classic path; bursts
    keep many same-shard ops concurrently in flight so the batcher
    actually forms multi-op waves on the batched side.  Both sides'
    replies are kept slot by slot, and so is what each paid for them in
    replica messages (``service.rpc.calls``).
    """
    sets, gets = mix
    rng = random.Random(seed)
    script = []
    for _ in range(ops):
        key = f"c{rng.randrange(200)}"
        roll = rng.random()
        if roll < sets:
            script.append(("set", key, f"v{rng.randrange(1000)}"))
        elif roll < sets + gets:
            script.append(("get", key, None))
        else:
            script.append(("del", key, None))
    outcomes = {}
    for label, batch_max in (("batched", 128), ("control", 1)):
        directory, service = _make_service(batch_max=batch_max, seed=7)
        try:
            with service:
                from repro.service.client import DirectoryClient

                slots = []
                with DirectoryClient(service.host, service.port) as client:
                    for start in range(0, len(script), burst):
                        with client.pipeline() as pipe:
                            for verb, key, value in script[
                                start : start + burst
                            ]:
                                if verb == "set":
                                    slots.append(pipe.set(key, value))
                                elif verb == "get":
                                    slots.append(pipe.get(key))
                                else:
                                    slots.append(pipe.remove(key))
            report = directory.make_auditor().run()
            snapshot = directory.transport.metrics.snapshot()
            outcomes[label] = {
                "replies": [slot.result() for slot in slots],
                "rpc_per_op": snapshot["service.rpc.calls"] / ops,
                "state": directory.authoritative_state(),
                "audit": report.summary(),
                "waves": sum(
                    row["n"]
                    for name, row in snapshot.items()
                    if name.endswith("suite.batch.size")
                    and isinstance(row, dict)
                ),
            }
        finally:
            directory.close()
    return {
        "ops": ops,
        "replies_equal": (
            outcomes["batched"]["replies"] == outcomes["control"]["replies"]
        ),
        "batched_rpc_per_op": outcomes["batched"]["rpc_per_op"],
        "control_rpc_per_op": outcomes["control"]["rpc_per_op"],
        "state_equal": (
            outcomes["batched"]["state"] == outcomes["control"]["state"]
        ),
        "keys": len(outcomes["batched"]["state"]),
        "batched_audit": outcomes["batched"]["audit"],
        "control_audit": outcomes["control"]["audit"],
        "batched_waves": outcomes["batched"]["waves"],
        "control_waves": outcomes["control"]["waves"],
    }


def _enforce(result):
    main, wide, control = result["main"], result["wide"], result["control"]

    # Gate 1: >= 3x E23, zero errors, and real batched waves behind it.
    assert main["errors"] == 0, main
    speedup = main["ops_per_second"] / E23_OPS_PER_S
    assert speedup >= SPEEDUP_GATE, (main["ops_per_second"], speedup)
    assert result["batch_waves"] > 0 and result["batched_ops"] > 0, result

    # Gate 2: 1,024 closed-loop connections, zero client-visible errors.
    assert wide["connections"] == 1024 and wide["errors"] == 0, wide

    # Gate 3: a monotone-offered curve with the latency fields populated.
    curve = result["open_loop"]["latency_curve"]
    assert len(curve) >= 2, curve
    assert result["open_loop"]["errors"] == 0, result["open_loop"]
    for point in curve:
        assert point["ops"] > 0 and point["achieved_ops_per_second"] > 0
        assert point["p95_ms"] >= point["p50_ms"] >= 0

    _enforce_control(control)


def _enforce_control(control):
    """Gate 4: batching changed the mechanics (and the bill), not one
    answer.  CI's ``service-smoke`` runs this on its own."""
    churn = control["delete_heavy"]
    for leg in (control, churn):
        assert leg["replies_equal"], leg
        assert leg["state_equal"], leg
        assert leg["batched_audit"]["violations"] == 0, leg
        assert leg["control_audit"]["violations"] == 0, leg
        assert leg["batched_waves"] > 0, leg
        assert leg["control_waves"] == 0, leg
        assert leg["batched_rpc_per_op"] < leg["control_rpc_per_op"], leg
    assert (
        churn["batched_rpc_per_op"]
        <= DELETE_HEAVY_BILL * churn["control_rpc_per_op"]
    ), churn


def _report(result):
    main, wide, control = result["main"], result["wide"], result["control"]
    speedup = main["ops_per_second"] / E23_OPS_PER_S
    curve = result["open_loop"]["latency_curve"]
    print()
    print(
        f"256 conns x{PIPELINE_DEPTH} pipeline: "
        f"{main['ops_per_second']:.0f} ops/s ({speedup:.2f}x E23's "
        f"{E23_OPS_PER_S:.0f}), p95 {main['latency_ms']['p95']:.1f}ms, "
        f"{main['errors']} errors; 1024 conns: "
        f"{wide['ops_per_second']:.0f} ops/s, {wide['errors']} errors; "
        f"{result['batch_waves']} batched waves "
        f"({result['batched_ops']} ops)"
    )
    for point in curve:
        print(
            f"  open loop {point['offered_ops_per_second']:.0f} offered -> "
            f"{point['achieved_ops_per_second']:.0f} achieved ops/s, "
            f"p50 {point['p50_ms']:.1f}ms p95 {point['p95_ms']:.1f}ms"
        )
    for label, leg in (("mixed", control), ("delete-heavy", control["delete_heavy"])):
        print(
            f"batched-vs-control ({label}): {leg['ops']} ops, replies equal: "
            f"{leg['replies_equal']}, state equal: "
            f"{leg['state_equal']} ({leg['keys']} keys), audits "
            f"{leg['batched_audit']['violations']}/"
            f"{leg['control_audit']['violations']} violations, "
            f"{leg['batched_waves']} waves vs {leg['control_waves']}, "
            f"{leg['batched_rpc_per_op']:.2f} vs "
            f"{leg['control_rpc_per_op']:.2f} messages/op"
        )
    emit_bench(
        "service",
        workload={
            "mode": "closed",
            "ops": main["ops"],
            "connections": 256,
            "keyspace": 4096,
            "seed": 1,
            "pipeline": PIPELINE_DEPTH,
            "shards": SHARDS,
            "fanout": "parallel",
            "batching": True,
        },
        messages={
            "client_errors": (
                main["errors"] + wide["errors"] + result["open_loop"]["errors"]
            ),
        },
        latency={
            "ops_per_second": main["ops_per_second"],
            "elapsed_seconds": main["elapsed_seconds"],
            "speedup_vs_e23": speedup,
            "p50_ms": main["latency_ms"]["p50"],
            "p95_ms": main["latency_ms"]["p95"],
            "p99_ms": main["latency_ms"]["p99"],
            "max_ms": main["latency_ms"]["max"],
            "mean_ms": main["latency_ms"]["mean"],
        },
        audit=control["batched_audit"],
        extra={
            "e23_baseline_ops_per_second": E23_OPS_PER_S,
            "batch_waves": result["batch_waves"],
            "batched_ops": result["batched_ops"],
            "run_1024": {
                "connections": wide["connections"],
                "ops": wide["ops"],
                "errors": wide["errors"],
                "ops_per_second": wide["ops_per_second"],
                "p95_ms": wide["latency_ms"]["p95"],
            },
            "latency_curve": curve,
            "batched_vs_control": {
                "ops": control["ops"],
                "replies_equal": control["replies_equal"],
                "batched_rpc_per_op": control["batched_rpc_per_op"],
                "control_rpc_per_op": control["control_rpc_per_op"],
                "state_equal": control["state_equal"],
                "keys": control["keys"],
                "batched_waves": control["batched_waves"],
                "control_waves": control["control_waves"],
                "delete_heavy": {
                    key: control["delete_heavy"][key]
                    for key in (
                        "ops", "replies_equal", "batched_rpc_per_op",
                        "control_rpc_per_op", "state_equal", "keys",
                        "batched_waves", "control_waves",
                    )
                },
            },
            "timeline": main["timeline"],
        },
    )
