"""Command-line interface for running the paper's experiments.

::

    python -m repro demo
    python -m repro simulate --config 3-2-2 --size 100 --ops 10000
    python -m repro simulate --loss 0.05 --retries 4
    python -m repro simulate --profile --audit --bench-json
    python -m repro serve --config 3-2-2 --shards 4 --port 7379
    python -m repro load --port 7379 --connections 256 --ops 20000
    python -m repro figure14 [--ops 10000]
    python -m repro figure15 [--ops 100000 --sizes 100,1000,10000]
    python -m repro availability [--p 0.8,0.9,0.95,0.99]
    python -m repro concurrency [--txns 1000 --clients 8]
    python -m repro analytic [--configs 3-2-2,4-2-3,5-3-3]
    python -m repro bench-compare BASELINE.json CANDIDATE.json

Every simulation subcommand prints a paper-style plain-text table to
stdout.  ``simulate --audit`` exits non-zero if any invariant violation
is found, ``bench-compare`` exits non-zero on a >5% regression, and
``load`` exits non-zero on any client-visible error, so all three are
CI-gate ready.  ``serve`` runs the real asyncio directory service
(``transport="asyncio"``) until interrupted; ``load`` drives it and
writes ``BENCH_service.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.cluster import STORE_FACTORIES, ClusterSpec, DirectoryCluster
from repro.core.config import SuiteConfig
from repro.core.errors import ConfigurationError
from repro.sim.analytic import predict_xyz
from repro.sim.availability import analyze
from repro.sim.concurrency import ConcurrencySpec, compare_granularities
from repro.sim.driver import (
    SimulationSpec,
    run_figure14_grid,
    run_figure15_sizes,
    run_simulation,
)
from repro.sim.report import (
    comparison_table,
    figure14_table,
    figure15_table,
    format_table,
)

DEFAULT_FIGURE14_CONFIGS = [
    "1-1-1", "2-1-2", "3-2-2", "3-1-3", "4-2-3", "4-3-3", "5-3-3", "5-2-4",
]


def _parse_list(text: str, cast=str) -> list:
    return [cast(part) for part in text.split(",") if part]


def cmd_demo(args: argparse.Namespace) -> int:
    """A one-minute tour: operations, a crash, recovery."""
    cluster = DirectoryCluster.create(
        ClusterSpec(config=args.config, seed=args.seed)
    )
    directory = cluster.suite
    print(f"created a {args.config} directory suite")
    directory.insert("alice", "room 4101")
    directory.insert("bob", "room 4203")
    print(f"lookup(alice) = {directory.lookup('alice')}")
    directory.delete("alice")
    print(f"after delete: lookup(alice) = {directory.lookup('alice')}")
    victim = next(iter(cluster.representatives))
    cluster.crash(victim)
    directory.update("bob", "room 9999")
    print(f"with {victim} crashed, update still works: {directory.lookup('bob')}")
    cluster.recover(victim)
    print(f"{victim} recovered from its write-ahead log")
    stats = cluster.network.stats
    print(f"traffic: {stats.rpc_rounds} RPC rounds, {stats.messages} messages")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """One paper-style simulation; prints the three statistics."""
    spec = SimulationSpec(
        config=args.config,
        directory_size=args.size,
        operations=args.ops,
        seed=args.seed,
        store=args.store,
        neighbor_batch_size=args.batch,
        read_repair=args.read_repair,
        fanout=args.fanout,
        trace_spans=args.spans is not None or args.profile,
        loss=args.loss,
        retries=args.retries,
        verify_model=args.loss > 0.0 or args.audit or args.rejoin_at > 0,
        audit=args.audit,
        shards=args.shards,
        shard_map=args.shard_map,
        workload=args.workload,
        crash_at=args.crash_at,
        rejoin_at=args.rejoin_at,
        rejoin_replica=args.rejoin_replica,
        wipe=args.wipe,
        antientropy_every=args.antientropy,
        auto_reshard=args.auto_reshard,
    )
    result = run_simulation(spec)
    rows = []
    for name, row in result.stats_table().items():
        rows.append(
            [name, f"{row['avg']:.3f}", f"{row['max']:.0f}", f"{row['std_dev']:.3f}"]
        )
    print(
        format_table(
            ["statistic", "avg", "max", "std dev"],
            rows,
            title=(
                f"{args.config}, {args.size} entries, {args.ops} operations "
                f"(seed {args.seed})"
            ),
        )
    )
    print(
        f"\nfinal size {result.final_size}; "
        f"{result.traffic['rpc_rounds']} RPC rounds; "
        f"{result.elapsed_seconds:.1f}s wall clock"
    )
    if args.shards:
        routed = result.metrics.get("shard.routed", {})
        print(
            f"shards: {args.shards} ({args.shard_map} map); routed "
            + ", ".join(f"{k}={v}" for k, v in sorted(routed.items()))
        )
    if result.reshard is not None:
        print(
            f"reshard: epoch {result.reshard['epoch']}, "
            f"{result.reshard['migrations']} live migrations, "
            f"{result.reshard['moved_keys']} keys moved"
        )
    if args.rejoin_at > 0:
        taken = (
            result.rejoin_completed_at - args.rejoin_at
            if result.rejoin_completed_at >= 0
            else -1
        )
        join_audit = result.join_audit or {}
        print(
            f"rejoin: {args.rejoin_replica or 'last replica'} "
            f"{'wiped and ' if args.wipe else ''}rejoined at op "
            f"{args.rejoin_at}, caught up "
            + (
                f"after {taken} ops (op {result.rejoin_completed_at}); "
                if taken >= 0
                else "NEVER; "
            )
            + f"join audit: {join_audit.get('violations', '?')} violations "
            f"over {join_audit.get('checks', '?')} checks"
        )
    if args.loss > 0.0:
        metrics = result.metrics
        retries = metrics.get("suite.retry.attempts", 0)
        masked = metrics.get("suite.retry.masked", 0)
        exactly_once = metrics.get("suite.retry.exactly_once", 0)
        dropped = metrics.get("net.loss.requests_dropped", 0) + metrics.get(
            "net.loss.replies_dropped", 0
        )
        print(
            f"chaos: loss={args.loss:.0%} dropped {dropped} messages; "
            f"{result.failed_operations} client-visible failures; "
            f"{retries} retries ({masked} masked, {exactly_once} resolved "
            f"exactly-once); {result.model_mismatches} model mismatches; "
            f"{result.sim_ticks:.0f} simulated ticks"
        )
    profile = None
    if args.profile:
        from repro.obs.analyze import profile_spans

        profile = profile_spans(result.spans)
        print("\n" + profile.report())
    if args.audit:
        print("\n" + result.audit_report.render())
    if args.metrics is not None:
        _emit_metrics(args.metrics, result.metrics)
    if args.bench_json is not None:
        _emit_bench(args.bench_json, args, result, profile)
    if args.spans is not None:
        _emit_spans(args.spans, result, spec)
    if args.audit and not result.audit_report.ok:
        return 1
    return 0


def _emit_metrics(destination: str, metrics: dict) -> None:
    """Write ``MetricsRegistry.snapshot()`` as JSON to a file or stdout."""
    import json

    text = json.dumps(metrics, indent=2, sort_keys=True, default=str) + "\n"
    if destination == "-":
        print(text, end="")
    else:
        with open(destination, "w") as fh:
            fh.write(text)
        print(f"metrics snapshot written to {destination}")


def _emit_bench(destination: str, args, result, profile) -> None:
    """Write a schema-valid BENCH document for this driver run."""
    import json
    import re

    from repro.obs.bench import bench_payload, validate_bench

    match = re.fullmatch(r"BENCH_(.+)\.json", destination.rsplit("/", 1)[-1])
    name = match.group(1) if match else "driver"
    messages: dict = {
        "messages": result.traffic["messages"],
        "rpc_rounds": result.traffic["rpc_rounds"],
    }
    latency: dict = {}
    if profile is not None:
        summary = profile.summary()
        messages["ops"] = {
            kind: {
                "rpc_rounds": row["rpc_rounds"],
                "messages": row["messages"],
            }
            for kind, row in summary["ops"].items()
        }
        latency = {
            "phases": summary["phases"],
            "ops": {
                kind: row["latency"] for kind, row in summary["ops"].items()
            },
        }
    payload = bench_payload(
        name,
        workload={
            "config": args.config,
            "directory_size": args.size,
            "operations": args.ops,
            "seed": args.seed,
            "store": args.store,
            "loss": args.loss,
            "retries": args.retries,
            "fanout": args.fanout,
            "shards": args.shards,
            "shard_map": args.shard_map,
            "generator": args.workload,
        },
        messages=messages,
        latency=latency,
        audit=(
            result.audit_report.summary()
            if result.audit_report is not None
            else None
        ),
        extra={
            "failed_operations": result.failed_operations,
            "model_mismatches": result.model_mismatches,
            "sim_ticks": result.sim_ticks,
        },
    )
    validate_bench(payload)
    with open(destination, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"BENCH telemetry written to {destination}")


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Diff two BENCH documents; non-zero exit on regression."""
    from repro.obs.bench import compare_benches, format_comparison, load_bench

    baseline = load_bench(args.baseline)
    candidate = load_bench(args.candidate)
    regressions = compare_benches(
        baseline, candidate, tolerance=args.tolerance
    )
    print(
        format_comparison(
            baseline, candidate, regressions, tolerance=args.tolerance
        )
    )
    return 1 if regressions else 0


def _emit_spans(destination: str, result, spec: SimulationSpec) -> None:
    """Write the span dump (JSON lines) to stdout (``-``) or a file."""
    from repro.obs.export import (
        dump_spans,
        total_messages,
        total_rpc_rounds,
    )
    from repro.sim.report import span_summary_table

    print("\n" + span_summary_table(result.spans))
    print(
        f"reconciliation: spans carry {total_messages(result.spans)} "
        f"messages / {total_rpc_rounds(result.spans)} rounds; traffic "
        f"counted {result.traffic['messages']} / "
        f"{result.traffic['rpc_rounds']}"
    )
    dump = dump_spans(
        result.spans,
        metadata={"config": spec.config, "seed": spec.seed},
    )
    if destination == "-":
        print(dump, end="")
    else:
        with open(destination, "w") as fh:
            fh.write(dump)
        print(f"span dump written to {destination}")


#: Log records a served replica keeps before it folds them into a
#: checkpoint.  A server runs until stopped, so an unbounded log is a
#: leak: 40 k SET/DEL ops (4 shards, 3-2-2, 1,024 keys) took RSS from 29
#: to 68 MB and still climbing ~0.9 KB/op with no bound, and levelled at
#: 50 / 41 / 39 MB with a bound of 8,192 / 2,048 / 512, throughput equal
#: (2.1–2.2 k ops/s) in all four.  2,048 is the knee: a quarter of it
#: buys 2 MB for four times the O(store) snapshots.
SERVE_LOG_BOUND = 2048


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the asyncio directory service until interrupted."""
    from repro.service.server import DirectoryService
    from repro.shard.sharded import ShardedDirectory
    from repro.storage.snapshot import LogSizeBound

    spec = ClusterSpec(
        config=args.config,
        seed=args.seed,
        transport="asyncio",
        # Not an option: every served round goes through
        # DirectorySuite._round, and between co-located replicas a
        # scatter runs its members in issue order, so serial and
        # parallel send the same messages in the same order until a
        # member fails.  Parallel is what the benchmarks measure.
        fanout="parallel",
        checkpoint_policy=LogSizeBound(SERVE_LOG_BOUND),
    )
    # Not an option: the wire carries string keys, which route stably
    # by digest; a range-mapped service is built in-process with string
    # boundaries (docs/SERVICE.md).
    with ShardedDirectory.create(
        spec, shards=args.shards, shard_map="hash"
    ) as directory:
        service = DirectoryService(
            directory,
            host=args.host,
            port=args.port,
            batch_max=args.batch_max,
        )
        with service.start():
            # The line CI and scripts wait for / parse the port out of.
            print(
                f"repro-serve: listening on {service.host}:{service.port} "
                f"({args.config} x {args.shards} shards, hash map)",
                flush=True,
            )
            if args.ready_file is not None:
                with open(args.ready_file, "w") as fh:
                    fh.write(f"{service.host} {service.port}\n")
            try:
                import threading

                threading.Event().wait()
            except KeyboardInterrupt:
                print("repro-serve: shutting down", flush=True)
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    """Drive a running service; non-zero exit on client-visible errors."""
    from repro.service.loadgen import LoadSpec, run_load

    spec = LoadSpec(
        host=args.host,
        port=args.port,
        ops=args.ops,
        connections=args.connections,
        keyspace=args.keyspace,
        mix=(args.set_fraction, args.get_fraction, args.del_fraction),
        seed=args.seed,
        hot_fraction=args.hot_fraction,
        hot_keys=args.hot_keys,
        pipeline=args.pipeline,
        rate=args.rate,
        rates=args.rates,
        duration=args.duration,
    )
    try:
        result = run_load(spec, bench_dir=args.bench_dir or None)
    except ConnectionRefusedError as exc:
        print(f"repro-load: cannot connect: {exc}", file=sys.stderr)
        return 1
    if result["mode"] == "open":
        for point in result["latency_curve"]:
            print(
                f"offered {point['offered_ops_per_second']:.0f} ops/s -> "
                f"achieved {point['achieved_ops_per_second']:.0f} ops/s "
                f"({point['ops']} ops over {spec.connections} connections); "
                f"latency p50 {point['p50_ms']:.2f}ms "
                f"p95 {point['p95_ms']:.2f}ms p99 {point['p99_ms']:.2f}ms; "
                f"{point['errors']} client-visible errors"
            )
    else:
        lat = result["latency_ms"]
        print(
            f"{result['ops']} ops over {spec.connections} connections in "
            f"{result['elapsed_seconds']:.1f}s: "
            f"{result['ops_per_second']:.0f} ops/s; latency p50 "
            f"{lat['p50']:.2f}ms p95 {lat['p95']:.2f}ms p99 {lat['p99']:.2f}ms "
            f"max {lat['max']:.2f}ms; {result['errors']} client-visible errors"
        )
    if "bench_path" in result:
        print(f"BENCH telemetry written to {result['bench_path']}")
    return 1 if result["errors"] else 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live console view of a running service, polled via ``STATS``."""
    import time as _time

    from repro.obs.live import format_stats
    from repro.service.client import DirectoryClient
    from repro.service.protocol import ReplyError

    try:
        client = DirectoryClient(args.host, args.port)
    except OSError as exc:
        print(f"repro-top: cannot connect to {args.host}:{args.port}: {exc}")
        return 1
    interval = max(0.1, args.interval)
    with client:
        try:
            # Each STATS request samples the registry server-side, so the
            # first request seeds the window the second one reports over.
            client.stats(args.window)
            while True:
                _time.sleep(min(interval, 0.5) if args.once else interval)
                frame = format_stats(client.stats(args.window))
                if not args.once:
                    print("\x1b[2J\x1b[H", end="")
                print(frame, flush=True)
                if args.once:
                    return 0
        except ReplyError as exc:  # e.g. a --window the server refuses
            print(f"repro-top: {exc}")
            return 1
        except KeyboardInterrupt:
            pass
    return 0


def cmd_figure14(args: argparse.Namespace) -> int:
    """Regenerate Figure 14."""
    configs = _parse_list(args.configs) if args.configs else DEFAULT_FIGURE14_CONFIGS
    results = run_figure14_grid(
        configs, directory_size=args.size, operations=args.ops, seed=args.seed
    )
    print(figure14_table(results))
    return 0


def cmd_figure15(args: argparse.Namespace) -> int:
    """Regenerate Figure 15."""
    sizes = _parse_list(args.sizes, int)
    results = run_figure15_sizes(
        sizes, config=args.config, operations=args.ops, seed=args.seed
    )
    print(figure15_table(results))
    return 0


def cmd_availability(args: argparse.Namespace) -> int:
    """Exact read/write availability for standard configurations."""
    p_values = _parse_list(args.p, float)
    configs = {
        "1-1-1": SuiteConfig.from_xyz("1-1-1"),
        "3 unanimous": SuiteConfig.unanimous(3),
        "3-2-2": SuiteConfig.from_xyz("3-2-2"),
        "5 unanimous": SuiteConfig.unanimous(5),
        "5-3-3": SuiteConfig.uniform(5, 3, 3),
    }
    headers = ["configuration"] + [f"write@p={p}" for p in p_values]
    rows = []
    for label, config in configs.items():
        points = [analyze(config, p) for p in p_values]
        rows.append([label] + [f"{pt.write_availability:.4f}" for pt in points])
    print(format_table(headers, rows, title="Write availability"))
    return 0


def cmd_concurrency(args: argparse.Namespace) -> int:
    """Lock-granularity comparison (range vs static vs whole)."""
    spec = ConcurrencySpec(
        n_transactions=args.txns,
        concurrency_level=args.clients,
        seed=args.seed,
    )
    results = compare_granularities(spec, static_partitions=args.partitions)
    table = {
        name: {
            "throughput": r.throughput,
            "mean_latency": r.mean_latency,
            "restarts": float(r.aborted_restarts),
        }
        for name, r in results.items()
    }
    print(
        comparison_table(
            table,
            columns=["throughput", "mean_latency", "restarts"],
            title=f"Lock granularity with {args.clients} concurrent clients",
        )
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Tailor (R, W) to a workload: the section 5 configuration question."""
    from repro.sim.planner import cheapest_within, enumerate_plans, most_available

    plans = enumerate_plans(args.replicas, args.p, args.read_fraction)
    plans.sort(key=lambda pt: -pt.operation_availability)
    headers = [
        "config",
        "op availability",
        "read avail",
        "write avail",
        "accesses/op",
    ]
    rows = [
        [
            pt.spec,
            f"{pt.operation_availability:.4f}",
            f"{pt.read_availability:.4f}",
            f"{pt.write_availability:.4f}",
            f"{pt.accesses_per_operation:.2f}",
        ]
        for pt in plans
    ]
    print(
        format_table(
            headers,
            rows,
            title=(
                f"Legal configurations for {args.replicas} replicas at "
                f"p={args.p}, read fraction {args.read_fraction}"
            ),
        )
    )
    best = most_available(args.replicas, args.p, args.read_fraction)
    cheap = cheapest_within(
        args.replicas, args.p, args.read_fraction, args.slack
    )
    print(f"\nmost available: {best.spec}")
    print(
        f"cheapest within {args.slack:.0%} of it: {cheap.spec} "
        f"({cheap.accesses_per_operation:.2f} accesses/op)"
    )
    return 0


def cmd_analytic(args: argparse.Namespace) -> int:
    """The section 5 analytic model's predictions."""
    configs = _parse_list(args.configs)
    headers = ["config", "entries coalesced", "ghost deletions", "insertions"]
    rows = []
    for config in configs:
        p = predict_xyz(config, args.size)
        rows.append(
            [
                config,
                f"{p.entries_in_ranges_coalesced:.3f}",
                f"{p.deletions_while_coalescing:.3f}",
                f"{p.insertions_while_coalescing:.3f}",
            ]
        )
    print(format_table(headers, rows, title="Analytic model predictions"))
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _port(text: str) -> int:
    """An argparse type: a TCP port number, 0 to 65535."""
    if not text.isdecimal() or int(text) > 65535:
        raise argparse.ArgumentTypeError(f"not a port number: {text!r}")
    return int(text)


def _rates(text: str) -> "tuple[float, ...]":
    """An argparse type: comma-separated numbers."""
    try:
        return tuple(float(rate) for rate in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a rate list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Replicated directories (Daniels & Spector 1983): "
        "demos and experiment reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="one-minute feature tour")
    p.add_argument("--config", default="3-2-2")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(fn=cmd_demo)

    p = sub.add_parser("simulate", help="one section-4 style simulation")
    g = p.add_argument_group("workload", "what to run and against what")
    g.add_argument("--config", default="3-2-2")
    g.add_argument("--size", type=int, default=100)
    g.add_argument("--ops", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument(
        "--store", choices=sorted(STORE_FACTORIES), default="sorted"
    )
    g.add_argument(
        "--workload",
        choices=["uniform", "skewed"],
        default="uniform",
        help="key generator: uniform over [0,1) (the paper's) or skewed "
        "toward 0.0 (the range-map imbalance stressor)",
    )
    g = p.add_argument_group("faults", "message loss and fault masking")
    g.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help="per-message loss probability during the measured phase "
        "(enables the fault model, failure detector, and model check)",
    )
    g.add_argument(
        "--retries",
        type=int,
        default=0,
        help="client retries per operation (0 = errors surface raw)",
    )
    g = p.add_argument_group(
        "lifecycle", "crash, wipe, and rejoin a replica mid-run"
    )
    g.add_argument(
        "--crash-at",
        type=int,
        default=0,
        metavar="N",
        help="crash one replica just before operation N (0 = never)",
    )
    g.add_argument(
        "--rejoin-at",
        type=int,
        default=0,
        metavar="N",
        help="start an online rejoin of the crashed replica just before "
        "operation N (after --crash-at): it receives writes without "
        "voting until one step reconciles it against every up peer, "
        "interleaved with the client workload",
    )
    g.add_argument(
        "--rejoin-replica",
        default=None,
        metavar="NAME",
        help="which replica to crash/rejoin (default: the last one)",
    )
    g.add_argument(
        "--wipe",
        action="store_true",
        help="erase the crashed replica's store and WAL before the rejoin "
        "(amnesiac restart: its peers are its only seed; needs --crash-at)",
    )
    g.add_argument(
        "--antientropy",
        type=int,
        default=0,
        metavar="N",
        help="run one background anti-entropy pair sweep every N "
        "operations (0 = off)",
    )
    g = p.add_argument_group("fan-out", "quorum RPC issue behaviour")
    g.add_argument(
        "--fanout",
        choices=["serial", "parallel"],
        default="serial",
        help="quorum RPC issue mode: serial (paper-faithful baseline) or "
        "parallel (scatter-gather, cost = max arrival)",
    )
    g.add_argument(
        "--batch", type=int, default=1, help="neighbor batch size"
    )
    g.add_argument("--read-repair", action="store_true")
    g = p.add_argument_group("sharding", "many clusters on one substrate")
    g.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run against a ShardedDirectory of this many shards "
        "(0 = single unsharded cluster)",
    )
    g.add_argument(
        "--shard-map",
        choices=["range", "hash"],
        default="range",
        help="key-to-shard split when --shards > 0: contiguous key "
        "ranges or stable hash buckets",
    )
    g.add_argument(
        "--auto-reshard",
        action="store_true",
        help="watch windowed per-shard routing rates and live-split the "
        "hottest shard's key range mid-run (at most 2 splits, each when "
        "the hottest shard's rate exceeds 2x the mean of the others; "
        "requires --shards > 0)",
    )
    g = p.add_argument_group("observability", "spans, audits, telemetry")
    g.add_argument(
        "--spans",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="record per-operation span trees and dump them as JSON lines "
        "to PATH (or stdout when no path is given)",
    )
    g.add_argument(
        "--profile",
        action="store_true",
        help="record span trees and print the trace profile: per-op and "
        "per-phase latency percentiles, rounds, messages, retry attempts",
    )
    g.add_argument(
        "--audit",
        action="store_true",
        help="audit the replica invariants at commit boundaries and at the "
        "end of the run; non-zero exit on any violation",
    )
    g.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="dump the final MetricsRegistry snapshot as JSON to PATH "
        "('-' for stdout)",
    )
    g.add_argument(
        "--bench-json",
        nargs="?",
        const="BENCH_driver.json",
        default=None,
        metavar="PATH",
        help="write BENCH telemetry for this run to PATH (BENCH_driver.json "
        "when no path is given); nothing is written without this flag",
    )
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "serve", help="run the asyncio directory service on loopback"
    )
    g = p.add_argument_group("cluster", "what each shard replicates")
    g.add_argument("--config", default="3-2-2")
    g.add_argument("--seed", type=int, default=0)
    g = p.add_argument_group("batching")
    g.add_argument(
        "--batch-max",
        type=_positive_int,
        default=128,
        help="max ops per batched wave on one shard (1 = the unbatched "
        "control: every wave is one op)",
    )
    g = p.add_argument_group("sharding")
    g.add_argument("--shards", type=_positive_int, default=4)
    g = p.add_argument_group("listener")
    g.add_argument("--host", default="127.0.0.1")
    g.add_argument(
        "--port",
        type=_port,
        default=0,
        help="listening port (0 = ephemeral; the chosen port is printed "
        "and written to --ready-file)",
    )
    g.add_argument(
        "--ready-file",
        default=None,
        metavar="PATH",
        help="write 'host port' to PATH once listening (for scripts/CI)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "load", help="drive a running service; writes BENCH_service.json"
    )
    g = p.add_argument_group("target")
    g.add_argument("--host", default="127.0.0.1")
    g.add_argument("--port", type=_port, required=True)
    g = p.add_argument_group("offered load")
    g.add_argument("--ops", type=int, default=20_000)
    g.add_argument(
        "--connections",
        type=int,
        default=256,
        help="concurrent sockets, each closed-loop (one op in flight)",
    )
    g.add_argument("--keyspace", type=int, default=4096)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--set-fraction", type=float, default=0.3)
    g.add_argument("--get-fraction", type=float, default=0.6)
    g.add_argument("--del-fraction", type=float, default=0.1)
    g.add_argument(
        "--hot-fraction",
        type=float,
        default=0.0,
        help="fraction of ops aimed at the hot keys (skewed workloads)",
    )
    g.add_argument(
        "--hot-keys",
        type=int,
        default=1,
        help="number of hot keys (h0..hN-1) the hot fraction draws from",
    )
    g.add_argument(
        "--pipeline",
        type=int,
        default=1,
        help="closed-loop burst depth per connection (ops pipelined "
        "per flush; 1 = classic request-reply)",
    )
    g = p.add_argument_group(
        "open loop", "send on a Poisson arrival schedule instead of "
        "closed-loop; latency counts from scheduled arrival"
    )
    g.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered ops/s across all connections (one timed window)",
    )
    g.add_argument(
        "--rates",
        type=_rates,
        default=None,
        metavar="R1,R2,...",
        help="comma-separated offered-rate sweep; emits the "
        "latency-under-load curve (wins over --rate)",
    )
    g.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="seconds per open-loop window",
    )
    g = p.add_argument_group("observability")
    g.add_argument(
        "--bench-dir",
        default=".",
        metavar="DIR",
        help="directory to write BENCH_service.json into "
        "('' to skip writing)",
    )
    p.set_defaults(fn=cmd_load)

    p = sub.add_parser(
        "top", help="live per-shard view of a running service (STATS poll)"
    )
    g = p.add_argument_group("target")
    g.add_argument("--host", default="127.0.0.1")
    g.add_argument("--port", type=_port, required=True)
    g = p.add_argument_group("refresh")
    g.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between STATS polls (min 0.1)",
    )
    g.add_argument(
        "--window",
        type=float,
        default=15.0,
        help="trailing window the displayed rates are computed over",
    )
    g.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (for scripts/CI)",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("figure14", help="regenerate Figure 14")
    p.add_argument("--configs", default="", help="comma-separated x-y-z list")
    p.add_argument("--size", type=int, default=100)
    p.add_argument("--ops", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=14)
    p.set_defaults(fn=cmd_figure14)

    p = sub.add_parser("figure15", help="regenerate Figure 15")
    p.add_argument("--config", default="3-2-2")
    p.add_argument("--sizes", default="100,1000,10000")
    p.add_argument("--ops", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=15)
    p.set_defaults(fn=cmd_figure15)

    p = sub.add_parser("availability", help="exact quorum availability")
    p.add_argument("--p", default="0.8,0.9,0.95,0.99")
    p.set_defaults(fn=cmd_availability)

    p = sub.add_parser("concurrency", help="lock-granularity comparison")
    p.add_argument("--txns", type=int, default=1000)
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--partitions", type=int, default=4)
    p.add_argument("--seed", type=int, default=88)
    p.set_defaults(fn=cmd_concurrency)

    p = sub.add_parser("analytic", help="analytic model predictions")
    p.add_argument("--configs", default="3-2-2,4-2-3,5-3-3")
    p.add_argument("--size", type=int, default=100)
    p.set_defaults(fn=cmd_analytic)

    p = sub.add_parser(
        "bench-compare", help="diff two BENCH_*.json telemetry files"
    )
    p.add_argument("baseline", help="baseline BENCH_*.json")
    p.add_argument("candidate", help="candidate BENCH_*.json")
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="fraction a leaf may worsen by (rise; fall, for a rate or "
        "a speedup) before it counts as a regression (default 0.05)",
    )
    p.set_defaults(fn=cmd_bench_compare)

    p = sub.add_parser("plan", help="tailor R/W to a workload (section 5)")
    p.add_argument("--replicas", type=int, default=5)
    p.add_argument("--p", type=float, default=0.9, help="per-node availability")
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--slack", type=float, default=0.01)
    p.set_defaults(fn=cmd_plan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (returns a process exit code)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"repro-{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
