"""Sharded directory — aggregate throughput scaling, 1 to 16 shards.

Not a paper table: Daniels & Spector analyse a single replicated
directory.  The sharded service routes keys across N independent
replica suites on one shared simulated network, and executes client
*waves* (batches of independent operations) shard-parallel: a wave
costs the slowest shard's time, not the sum.

This experiment replays the same seeded operation stream in fixed
32-op waves at 1/2/4/8/16 shards and records aggregate throughput
(wave ops per simulated tick) as a BENCH artifact, on two algorithms:

* the **classic control** (``classic_wave`` in ``benchmarks/conftest.py``)
  replays each shard's share of a wave one op at a time through the
  paper's Figure 8/9/13 path, a full 2PC per op.  Its curves keep the
  unprefixed BENCH keys and every gate:

  - under a **uniform** workload with a range map, 8 shards must reach
    at least 3x the single-shard throughput (the multinomial max-bin
    bound for 32-op waves over 8 bins predicts ~3.5-4x);
  - under the **skewed** workload (keys piled near 0.0), the range
    map's scaling collapses — shard 0 owns almost everything — while
    the hash map keeps scaling; at 8 shards hashed throughput must beat
    ranged;

* the **fold** (``ShardedDirectory.execute_wave``) runs each shard's
  share as one grouped ``execute_batch`` transaction — the algorithm
  the service front door runs.  Its curves go beside the control under
  ``fold_``-prefixed keys, with the mean ops per shard group: a shard
  cuts a wave into smaller groups, and each group pays its own rounds
  and commit.  Its speedups are recorded as measured, with no speed
  gate; at every point it must finish in fewer churn ticks than the
  control, in the control's exact final state.

Every run on either path finishes with zero failed ops, one final size
across shard counts, and a clean merged invariant audit across all
shards.

The max-not-sum wave clock models shards running in parallel, each on
its own replicas' time.  The served stack has one serving thread, and
its shards take turns (docs/SERVICE.md, "Concurrency"), so these
speedup curves describe the algorithm's shard-level parallelism, not
what ``repro serve`` achieves with more ``--shards``.
"""

from benchmarks.conftest import WAVE_PATHS, emit_bench, run_once
from repro.cluster import ClusterSpec
from repro.shard import ShardedDirectory
from repro.sim.report import format_table
from repro.sim.workload import OpMix, SkewedKeyWorkload, UniformWorkload

SHARD_COUNTS = (1, 2, 4, 8, 16)
CONFIG = "3-2-2"
SEED = 19
WAVE = 32
LOAD = 64

#: Lookup-heavy mix: waves are client batches, so the read path is the
#: interesting throughput surface, but churn keeps the stores moving.
MIX = OpMix(insert=1, update=1, delete=1, lookup=3)

#: Acceptance bound: uniform-workload speedup at 8 shards.
MIN_SPEEDUP_AT_8 = 3.0

#: (curve label, workload class, shard map) — one throughput curve each.
CURVES = (
    ("uniform/range", UniformWorkload, "range"),
    ("skewed/range", SkewedKeyWorkload, "range"),
    ("skewed/hash", SkewedKeyWorkload, "hash"),
)


def _op_stream(workload_cls, ops):
    """One deterministic (preload, churn) op-tuple stream per workload.

    Generated once per workload class and replayed at every shard
    count, so the curves compare identical work.
    """
    workload = workload_cls(target_size=LOAD, mix=MIX, seed=SEED)
    preload = [
        ("insert", op.key, op.value) for op in workload.initial_load(LOAD)
    ]
    churn = []
    for op in workload.operations(ops):
        if op.kind in ("insert", "update"):
            churn.append((op.kind, op.key, op.value))
        else:
            churn.append((op.kind, op.key))
    return preload, churn


def _waves(ops):
    for i in range(0, len(ops), WAVE):
        yield ops[i : i + WAVE]


def _run_curve_point(shards, shard_map, preload, churn, run_wave):
    """Replay the stream in waves at one shard count; measure the churn."""
    sharded = ShardedDirectory.create(ClusterSpec(config=CONFIG, seed=SEED), shards=shards, shard_map=shard_map)
    for wave in _waves(preload):
        run_wave(sharded, wave)

    start = sharded.network.clock.now()
    failures = groups = 0
    for wave in _waves(churn):
        groups += len({sharded.shard_for(op[1]) for op in wave})
        failures += run_wave(sharded, wave)
    ticks = sharded.network.clock.now() - start

    audit = sharded.make_auditor().run()
    return {
        "shards": shards,
        "ticks": ticks,
        "throughput": len(churn) / ticks,
        "messages": sharded.network.stats.messages,
        "max_routed": max(sharded.routed),
        "ops_per_group": len(churn) / groups,
        "failures": failures,
        "size": sharded.size(),
        "state": sharded.authoritative_state(),
        "audit": audit,
    }


def _speedups(curves):
    """Per curve, each shard count's throughput over the 1-shard point's."""
    return {
        label: {
            point["shards"]: point["throughput"] / points[0]["throughput"]
            for point in points
        }
        for label, points in curves.items()
    }


def _print_table(title, curves, speedups):
    rows = [
        [
            label,
            str(point["shards"]),
            f"{point['ticks']:.0f}",
            f"{point['throughput']:.4f}",
            f"{speedups[label][point['shards']]:.2f}x",
            f"{point['ops_per_group']:.2f}",
            str(point["messages"]),
            str(point["max_routed"]),
            str(point["failures"]),
            str(len(point["audit"].violations)),
        ]
        for label, points in curves.items()
        for point in points
    ]
    print(
        "\n"
        + format_table(
            [
                "workload/map",
                "shards",
                "sim ticks",
                "ops/tick",
                "speedup",
                "ops/group",
                "messages",
                "max routed",
                "failed",
                "audit viol",
            ],
            rows,
            title=title,
        )
    )


def test_shard_scaling(benchmark, scale):
    ops = scale["generic_ops"]
    streams = {
        cls: _op_stream(cls, ops)
        for cls in {cls for _, cls, _ in CURVES}
    }

    def experiment():
        return {
            prefix: {
                label: [
                    _run_curve_point(n, shard_map, *streams[cls], run_wave)
                    for n in SHARD_COUNTS
                ]
                for label, cls, shard_map in CURVES
            }
            for prefix, run_wave in WAVE_PATHS
        }

    runs = run_once(benchmark, experiment)
    curves, fold = runs[""], runs["fold_"]
    speedups, fold_speedups = _speedups(curves), _speedups(fold)
    setting = (
        f"{CONFIG} per shard, {LOAD} entries, "
        f"{ops} ops in {WAVE}-op waves, seed {SEED}"
    )
    _print_table(
        f"Sharded throughput, classic per-op control ({setting})",
        curves,
        speedups,
    )
    _print_table(
        f"Sharded throughput, one grouped transaction per shard ({setting})",
        fold,
        fold_speedups,
    )

    uniform_8 = speedups["uniform/range"][8]
    skew_range_8 = speedups["skewed/range"][8]
    skew_hash_8 = speedups["skewed/hash"][8]
    print(
        f"speedup at 8 shards — uniform/range {uniform_8:.2f}x, "
        f"skewed/range {skew_range_8:.2f}x, skewed/hash {skew_hash_8:.2f}x"
        " (classic); "
        + ", ".join(
            f"{label} {per_curve[8]:.2f}x"
            for label, per_curve in fold_speedups.items()
        )
        + " (fold)"
    )
    benchmark.extra_info["uniform_speedup_at_8"] = round(uniform_8, 4)

    def rounded(table, digits):
        return {
            label: {str(shards): round(x, digits) for shards, x in row.items()}
            for label, row in table.items()
        }

    emit_bench(
        "shard",
        workload={
            "config": CONFIG,
            "directory_size": LOAD,
            "operations": ops,
            "wave": WAVE,
            "seed": SEED,
            "mix": "1/1/1/3 insert/update/delete/lookup",
            "shard_counts": list(SHARD_COUNTS),
        },
        messages={
            f"{prefix}{label.replace('/', '_')}_{point['shards']}_messages": (
                point["messages"]
            )
            for prefix, run in runs.items()
            for label, points in run.items()
            for point in points
        },
        latency={
            f"{prefix}{label.replace('/', '_')}_{point['shards']}"
            "_ticks_per_op": point["ticks"] / ops
            for prefix, run in runs.items()
            for label, points in run.items()
            for point in points
        },
        audit=curves["uniform/range"][-1]["audit"].summary(),
        extra={
            "curves": rounded(speedups, 4),
            "min_speedup_at_8": MIN_SPEEDUP_AT_8,
            "uniform_speedup_at_8": uniform_8,
            "fold_curves": rounded(fold_speedups, 4),
            "fold_ops_per_group": rounded(
                {
                    label: {p["shards"]: p["ops_per_group"] for p in points}
                    for label, points in fold.items()
                },
                3,
            ),
            "fold_uniform_speedup_at_8": fold_speedups["uniform/range"][8],
        },
    )

    # Headline: near-linear-until-max-bin scaling on uniform keys.
    assert uniform_8 >= MIN_SPEEDUP_AT_8
    # Hash routing rescues the skewed workload; range routing cannot.
    assert skew_hash_8 > skew_range_8
    # Sharding must never trade correctness for throughput.
    for run in runs.values():
        for label, points in run.items():
            final_size = {point["size"] for point in points}
            assert len(final_size) == 1, (label, final_size)
            for point in points:
                assert point["failures"] == 0, label
                assert point["audit"].ok, label
    # The fold is the served algorithm: it must end where the control
    # ends, key for key, and spend fewer churn ticks getting there.
    for label, points in fold.items():
        for point, control in zip(points, curves[label]):
            assert point["state"] == control["state"], (label, point["shards"])
            assert point["ticks"] < control["ticks"], (label, point["shards"])
