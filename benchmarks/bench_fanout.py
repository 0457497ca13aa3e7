"""Scatter-gather fan-out — serial vs parallel quorum engine.

Not a paper table: Daniels & Spector's simulations (and our seed
implementation) issue each quorum RPC one at a time, so an R-member
read costs R round trips of simulated time.  The fan-out engine
scatters a quorum's calls concurrently and pays only the slowest
arrival.

This experiment runs the same seeded workload under both modes and
records the win as a BENCH artifact:

* parallel mean lookup latency must be at most ``1/R + 0.15`` of
  serial on the uniform-latency 3-2-2 configuration (R=2, so 0.65x;
  the measured ratio is 0.5x — exactly 1/R, since every arrival is
  simultaneous);
* both modes finish with the *identical* authoritative directory
  state, zero model mismatches, and zero invariant-audit violations;
* serial and parallel exchange the same number of messages — fan-out
  reorders time, not traffic.
"""

from benchmarks.conftest import emit_bench, run_once
from repro.cluster import ClusterSpec, DirectoryCluster
from repro.obs.analyze import profile_spans
from repro.obs.spans import RecordingTracer
from repro.sim.driver import SimulationSpec, run_simulation
from repro.sim.report import format_table
from repro.sim.workload import OpMix

MODES = ("serial", "parallel")

#: Lookup-heavy so the read quorum's fan-out dominates, but write-rich
#: enough that write fan-out and 2PC rounds are exercised too.  (The
#: default mix has no lookups at all — it would measure nothing here.)
MIX = OpMix(insert=1, update=1, delete=1, lookup=3)

#: 3-2-2: three representatives, read quorum 2, write quorum 2.
CONFIG = "3-2-2"
READ_QUORUM = 2

#: Acceptance bound: parallel reads in 1/R of serial time, plus slack
#: for the odd read-repair or neighbor fetch on the critical path.
MAX_PARALLEL_RATIO = 1 / READ_QUORUM + 0.15


def _spec(ops: int, mode: str) -> SimulationSpec:
    return SimulationSpec(
        config=CONFIG,
        directory_size=50,
        operations=ops,
        seed=11,
        mix=MIX,
        fanout=mode,
        trace_spans=True,
        verify_model=True,
        audit=True,
    )


def _run_mode(ops: int, mode: str):
    """One mode's run, returning (result, final authoritative state)."""
    spec = _spec(ops, mode)
    cluster = DirectoryCluster.create(ClusterSpec(config=spec.config, seed=spec.seed, tracer=RecordingTracer(), fanout=mode))
    result = run_simulation(spec, cluster=cluster)
    return result, cluster.suite.authoritative_state()


def test_fanout_modes(benchmark, scale):
    ops = scale["generic_ops"]

    def experiment():
        return {mode: _run_mode(ops, mode) for mode in MODES}

    runs = run_once(benchmark, experiment)
    profiles = {
        mode: profile_spans(result.spans) for mode, (result, _) in runs.items()
    }

    rows = []
    stats = {}
    for mode in MODES:
        result, _ = runs[mode]
        profile = profiles[mode]
        lookup = profile.ops["lookup"].latency
        width = result.metrics.get("suite.fanout.width", {})
        audit = result.audit_report.summary()
        stats[mode] = {
            "messages": result.traffic["messages"],
            "sim_ticks": result.sim_ticks,
            "lookup_avg": lookup.avg,
            "lookup_p99": lookup.percentile(99),
            "fanout_width_avg": width.get("avg", 0.0),
            "audit_violations": audit["violations"],
        }
        rows.append(
            [
                mode,
                str(result.traffic["messages"]),
                f"{result.sim_ticks:.0f}",
                f"{lookup.avg:.2f}",
                f"{lookup.percentile(99):.2f}",
                f"{width.get('avg', 0.0):.2f}",
                str(result.failed_operations),
                str(result.model_mismatches),
                str(audit["violations"]),
            ]
        )
    print(
        "\n"
        + format_table(
            [
                "fanout",
                "messages",
                "sim ticks",
                "lookup avg",
                "lookup p99",
                "width avg",
                "failed",
                "mismatches",
                "audit viol",
            ],
            rows,
            title=(
                f"Quorum fan-out ({CONFIG}, 50 entries, {ops} ops, "
                "seed 11, lookup-heavy mix)"
            ),
        )
    )

    ratio = stats["parallel"]["lookup_avg"] / stats["serial"]["lookup_avg"]
    print(
        f"parallel/serial lookup latency: {ratio:.3f} "
        f"(bound {MAX_PARALLEL_RATIO:.2f})"
    )
    benchmark.extra_info["parallel_serial_lookup_ratio"] = round(ratio, 4)

    emit_bench(
        "fanout",
        workload={
            "config": CONFIG,
            "directory_size": 50,
            "operations": ops,
            "seed": 11,
            "mix": "1/1/1/3 insert/update/delete/lookup",
        },
        messages={
            f"{mode}_messages": stats[mode]["messages"] for mode in MODES
        },
        latency={
            "serial_lookup_avg": stats["serial"]["lookup_avg"],
            "parallel_lookup_avg": stats["parallel"]["lookup_avg"],
            "parallel_serial_ratio": ratio,
            "serial_sim_ticks": stats["serial"]["sim_ticks"],
            "parallel_sim_ticks": stats["parallel"]["sim_ticks"],
        },
        audit=runs["parallel"][0].audit_report.summary(),
        extra={
            "modes": list(MODES),
            "max_parallel_ratio": MAX_PARALLEL_RATIO,
            "fanout_width_avg": stats["parallel"]["fanout_width_avg"],
        },
    )

    # The headline claim: fanning out the read quorum divides lookup
    # latency by ~R on a uniform-latency network.
    assert ratio <= MAX_PARALLEL_RATIO
    # Fan-out must be a pure scheduling change: same traffic (serial vs
    # parallel), same answers, same replicated state, clean audits.
    assert stats["serial"]["messages"] == stats["parallel"]["messages"]
    serial_state = runs["serial"][1]
    for mode in MODES:
        result, state = runs[mode]
        assert state == serial_state
        assert result.failed_operations == 0
        assert result.model_mismatches == 0
        assert result.audit_report.ok
