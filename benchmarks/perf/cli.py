"""The benchmark's modes: driver, full, self-agreement, smoke.

``run.py`` is the entry point; it puts ``src/`` on the path and refuses to
start without it, so this module can import the service at the top.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any

from benchmarks.perf import counted, estimators, layers, spans, spec, timed
from benchmarks.perf.driver import Tally, client_job
from benchmarks.perf.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: Ops the span pass replays, one at a time.
SPAN_OPS = 300


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="The service's reference benchmark: four workloads, a "
        "timed plane and a counted plane (README.md beside this file).",
    )
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", choices=list(WORKLOADS),
                   help="driver mode: run this one workload")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                   help="driver mode: seconds one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="driver mode: 0 end-to-end metrics, 1 per-layer")
    p.add_argument("--only", action="append", choices=list(WORKLOADS),
                   metavar="WORKLOAD",
                   help="full mode: restrict to this workload (repeatable)")
    p.add_argument("--aa", type=int, metavar="K",
                   help="run the end-to-end planes twice x K and compare")
    p.add_argument("--smoke", action="store_true",
                   help="a <= 20 s pass over every code path")
    p.add_argument("--out", type=Path, metavar="DIR",
                   help="keep server logs, round files and spans here")
    p.add_argument("--emit-spec", action="store_true",
                   help="print BENCHMARK.json and exit")
    # The benchmark's own child processes.
    p.add_argument("--client-job", help=argparse.SUPPRESS)
    p.add_argument("--cal-job", action="store_true", help=argparse.SUPPRESS)
    return p


def _say(text: str) -> None:
    print(text, flush=True)


def _print_metrics(title: str, metrics: "dict[str, float]") -> None:
    _say(f"-- {title}")
    for name, value in metrics.items():
        _say(f"   {name:<40} {value:>14.4f} {spec.unit_of(name)}")


class Session:
    """One invocation: where its files go and what the oracle saw."""

    def __init__(self, out: "Path | None") -> None:
        self.keep = out is not None
        # Inside the checkout (the driver allows nowhere else); removed
        # on exit unless --out asked for it.
        self.workdir = out if out is not None else HERE / ".work" / str(os.getpid())
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tally = Tally()

    def close(self) -> None:
        if self.keep:
            return
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another invocation is using it


# -- the planes ---------------------------------------------------------------


def timed_rounds(
    session: Session, names: "list[str]", seed: int, rounds: int,
    measure_s: float, warm_s: float,
) -> "dict[str, dict[str, Any]]":
    """``rounds`` rounds of each workload, interleaved (A B C D, A B C D...)
    so minute-scale host noise is shared rather than landing on one."""
    per: "dict[str, list[dict[str, Any]]]" = {name: [] for name in names}
    for r in range(rounds):
        for name in names:
            metrics, tally = timed.run_round(
                WORKLOADS[name], seed, session.workdir, f"{name}.r{r}",
                measure_s, warm_s,
                check_size=name == "delete_churn" and r == rounds - 1,
            )
            session.tally.merge(tally)
            per[name].append(metrics)
            _say(
                f"   round {r} {name:<16} {metrics['ops_per_s']:>9.1f} ops/s  "
                f"p50 {metrics['lat_p50_ms']:>8.3f} ms  "
                f"p95 {metrics['lat_p95_ms']:>8.3f} ms  "
                f"setup {metrics['setup_s']:.3f} s  "
                f"cal {metrics['host.cal_ms_p50']:.3f} ms"
            )
    return {
        name: estimators.across_rounds(results) for name, results in per.items()
    }


def counted_pass(
    session: Session, name: str, seed: int, scale: float = 1.0
) -> "dict[str, float]":
    workload = WORKLOADS[name]
    workload = dataclasses.replace(
        workload, counted_ops=max(100, int(workload.counted_ops * scale))
    )
    metrics, tally = counted.count_workload(workload, seed, session.workdir)
    session.tally.merge(tally)
    return metrics


def span_pass(
    session: Session, name: str, seed: int, ops: int = SPAN_OPS
) -> "dict[str, float]":
    metrics, tally = spans.span_workload(
        WORKLOADS[name], seed, session.workdir, ops
    )
    session.tally.merge(tally)
    return metrics


def _end_to_end(*planes: "dict[str, float]") -> "dict[str, float]":
    merged = {name: value for plane in planes for name, value in plane.items()}
    return {name: merged[name] for name in spec.END_TO_END}


def _per_layer(*planes: "dict[str, float]") -> "dict[str, float]":
    merged = {name: value for plane in planes for name, value in plane.items()}
    # The same quantity on both planes: what the client waits for one op.
    merged["trace_overhead_ratio"] = (
        merged["counted_lat_p50_ms"] / merged["lat_p50_ms"]
    )
    return {name: merged[name] for name in spec.PER_LAYER}


# -- modes --------------------------------------------------------------------


def driver_mode(session: Session, args: argparse.Namespace) -> "dict[str, float]":
    """One workload, one list of metrics — what the benchmark driver runs."""
    name = args.workload
    rounds = spec.ROUNDS if args.trace == 0 else 1
    timed_plane = timed_rounds(
        session, [name], args.seed, rounds, args.seconds / spec.ROUNDS,
        timed.WARM_S,
    )[name]
    counted_plane = counted_pass(session, name, args.seed)
    if args.trace == 0:
        metrics = _end_to_end(timed_plane, counted_plane)
    else:
        metrics = _per_layer(
            timed_plane, counted_plane, span_pass(session, name, args.seed),
            layers.run_all(),
        )
    _print_metrics(f"{name}: {'per-layer' if args.trace else 'end-to-end'}", metrics)
    return metrics


def full_mode(
    session: Session, args: argparse.Namespace, names: "list[str]",
    layers_too: bool = True,
) -> "dict[str, dict[str, float]]":
    """Every plane of every selected workload; returns end-to-end per workload."""
    if args.smoke:
        rounds, measure_s, warm_s, scale, span_ops = 1, 1.0, 0.5, 0.25, 60
    else:
        rounds, measure_s, warm_s, scale, span_ops = (
            spec.ROUNDS, 6.0, timed.WARM_S, 1.0, SPAN_OPS
        )
    _say(f"== timed plane: {rounds} round(s) x {measure_s} s, seed {args.seed}")
    timed_plane = timed_rounds(
        session, names, args.seed, rounds, measure_s, warm_s
    )
    layer_metrics = (
        layers.run_all(0.1 if args.smoke else 1.0) if layers_too else {}
    )
    end_to_end = {}
    for name in names:
        if args.smoke and name != "serial_verbs":
            # Smoke counts and traces one workload; the others ran timed.
            continue
        _say(f"== counted plane: {name}")
        counted_plane = counted_pass(session, name, args.seed, scale)
        end_to_end[name] = _end_to_end(timed_plane[name], counted_plane)
        _print_metrics(f"{name}: end-to-end", end_to_end[name])
        if layers_too:
            _print_metrics(
                f"{name}: per-layer",
                _per_layer(
                    timed_plane[name], counted_plane,
                    span_pass(session, name, args.seed, span_ops),
                    layer_metrics,
                ),
            )
    return end_to_end


def aa_mode(session: Session, args: argparse.Namespace, names: "list[str]") -> bool:
    """Two sets of K runs of the same code must agree within the bounds."""
    sets: "list[dict[str, dict[str, list[float]]]]" = []
    for label in "AB":
        collected: "dict[str, dict[str, list[float]]]" = {
            name: {metric: [] for metric in spec.END_TO_END} for name in names
        }
        for k in range(args.aa):
            _say(f"== set {label}, run {k + 1} of {args.aa}")
            run_args = argparse.Namespace(**{**vars(args), "seed": args.seed + k})
            runs = full_mode(session, run_args, names, layers_too=False)
            for name, metrics in runs.items():
                for metric, value in metrics.items():
                    collected[name][metric].append(value)
        sets.append(collected)
    bounds = {
        name: {"better": better, "bound": bound}
        for name, (_, better, bound) in spec.END_TO_END.items()
    }
    agreed = True
    _say("== self-agreement")
    _say(f"   {'workload':<16} {'metric':<22} {'median A':>12} {'median B':>12} "
         f"{'gap':>7} {'bound':>6}")
    for name in names:
        for row in estimators.aa_rows(sets[0][name], sets[1][name], bounds):
            agreed &= row["ok"]
            _say(
                f"   {name:<16} {row['metric']:<22} {row['median_a']:>12.4f} "
                f"{row['median_b']:>12.4f} {row['gap']:>7.3f} {row['bound']:>6.2f}"
                + ("" if row["ok"] else "  EXCEEDED")
            )
    return agreed


def main(argv: "list[str]") -> int:
    args = _parser().parse_args(argv)
    if args.cal_job:
        timed.calibration_loop()
        return 0
    if args.client_job:
        client_job(args.client_job)
        return 0
    if args.emit_spec:
        print(json.dumps(spec.benchmark_json(), indent=2))
        return 0
    names = args.only or list(WORKLOADS)
    session = Session(args.out)
    started = time.perf_counter()
    metrics: "dict[str, float]" = {}
    agreed = True
    try:
        if args.workload:
            metrics = driver_mode(session, args)
        elif args.aa:
            agreed = aa_mode(session, args, names)
        else:
            full_mode(session, args, names)
    finally:
        session.close()
    tally = session.tally
    for example in tally.examples:
        print(f"WRONG: {example}", file=sys.stderr)
    _say(
        f"== {tally.attempted} ops attempted, {tally.failed} failed "
        f"({tally.internal_errors} internal errors), "
        f"{time.perf_counter() - started:.1f} s"
    )
    correct = tally.failed == 0
    _say(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": spec.unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct and agreed else 1
