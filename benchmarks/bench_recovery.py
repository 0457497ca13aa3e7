"""Replica lifecycle under load — time to rejoin and rejoin safety.

Not a paper table: the paper fixes the representative suite and relies
on quorum intersection alone.  This experiment measures the operational
extension in :mod:`repro.repl`: a replica crashes mid-run, loses its
entire state (store *and* log), and rejoins the live suite — non-voting
until one step reconciles it against every up peer and restores its
vote — while the client workload keeps flowing over lossy links.  Two claims are checked:

* **availability** — the rejoin is invisible to clients: zero
  client-visible errors and zero model mismatches across the whole run,
  crash and join included;
* **safety** — at the cutover instant the joiner's store is
  byte-identical to the authoritative state (the ``audit_join`` oracle:
  no lost op, no double-applied op), and the run's full invariant audit
  stays clean.

A second experiment isolates the background anti-entropy sweep: ghost
entries (deleted on a quorum, still present on bystanders) are created
deterministically, and pairwise sweeps must drive the ghost count to
zero *without a single client read* — convergence comes from the
replica-to-replica tiling comparison alone.
"""

from benchmarks.conftest import emit_bench, run_once, simulation_bench_sections
from repro.cluster import ClusterSpec, DirectoryCluster
from repro.repl import AntiEntropySweeper
from repro.sim.driver import SimulationSpec, run_simulation
from repro.sim.report import format_table

CRASH_AT = 500
REJOIN_AT = 1_000
ANTIENTROPY_EVERY = 50


def _recovery_spec(ops: int) -> SimulationSpec:
    return SimulationSpec(
        config="5-3-3",
        directory_size=100,
        operations=ops,
        seed=42,
        loss=0.05,
        retries=3,
        verify_model=True,
        audit=True,
        crash_at=CRASH_AT,
        rejoin_at=REJOIN_AT,
        wipe=True,
        antientropy_every=ANTIENTROPY_EVERY,
    )


def test_recovery_rejoin_under_load(benchmark, scale):
    """Wipe + rejoin a 5-replica suite mid-run: clients must not notice."""
    spec = _recovery_spec(scale["chaos_ops"])
    result = run_once(benchmark, lambda: run_simulation(spec))
    metrics = result.metrics
    join_audit = result.join_audit or {}
    catchup_ops = (
        result.rejoin_completed_at - spec.rejoin_at
        if result.rejoin_completed_at >= 0
        else -1
    )
    rows = [
        ["crash (wipe)", str(spec.crash_at), "-"],
        ["rejoin start", str(spec.rejoin_at), "-"],
        ["cutover", str(result.rejoin_completed_at), f"{catchup_ops} ops"],
        [
            "client errors",
            str(result.failed_operations),
            f"of {spec.operations} ops",
        ],
        ["model mismatches", str(result.model_mismatches), "-"],
        [
            "join audit",
            f"{join_audit.get('violations', '?')} violations",
            f"{join_audit.get('checks', '?')} checks",
        ],
        [
            "full audit",
            f"{len(result.audit_report.violations)} violations",
            f"{result.audit_report.checks} checks",
        ],
        [
            "reconcile repairs",
            str(metrics.get("repl.reconcile.repairs", 0)),
            "pieces applied",
        ],
        [
            "anti-entropy",
            str(metrics.get("repl.antientropy.sweeps", 0)),
            f"sweeps ({metrics.get('repl.antientropy.divergent', 0)} divergent)",
        ],
    ]
    print(
        "\n"
        + format_table(
            ["event", "value", "detail"],
            rows,
            title=(
                f"Replica rejoin under load (5-3-3, {spec.operations} ops, "
                f"5% loss, seed {spec.seed})"
            ),
        )
    )
    benchmark.extra_info["catchup_ops"] = catchup_ops
    benchmark.extra_info["join_violations"] = join_audit.get("violations")
    sections = simulation_bench_sections(result)
    sections["extra"].update(
        {
            "crash_at": spec.crash_at,
            "rejoin_at": spec.rejoin_at,
            "rejoin_completed_at": result.rejoin_completed_at,
            "catchup_ops": catchup_ops,
            "join_audit_checks": join_audit.get("checks", 0),
            "join_audit_violations": join_audit.get("violations", 0),
            "reconcile_repairs": metrics.get("repl.reconcile.repairs", 0),
            "antientropy_sweeps": metrics.get("repl.antientropy.sweeps", 0),
            "joins_completed": metrics.get("repl.joins", 0),
        }
    )
    emit_bench(
        "recovery",
        workload={
            "config": "5-3-3",
            "directory_size": 100,
            "operations": spec.operations,
            "seed": spec.seed,
            "loss": spec.loss,
            "retries": spec.retries,
        },
        audit=result.audit_report.summary(),
        **sections,
    )
    # Availability: the wipe + rejoin is invisible to clients.
    assert result.failed_operations == 0
    assert result.model_mismatches == 0
    # The join actually ran to cutover, well before the run ended.
    assert result.rejoin_completed_at >= spec.rejoin_at
    assert metrics.get("repl.joins", 0) == 1
    # Safety: byte-identical at cutover, invariants clean end to end.
    assert join_audit.get("checks", 0) > 0
    assert join_audit.get("violations") == 0
    assert result.audit_report.ok


def test_antientropy_ghost_convergence(benchmark):
    """Pairwise sweeps kill every ghost without a single client read."""

    def experiment():
        cluster = DirectoryCluster.create(ClusterSpec(config="5-3-3", seed=9))
        suite = cluster.suite
        sweeper = AntiEntropySweeper(cluster)
        keys = [f"g{i:02d}" for i in range(20)]
        for key in keys:
            suite.insert(key, "doomed")
        # Spread every entry to all five replicas, then delete on a
        # 3-replica quorum: the two bystanders keep the dead entries.
        sweeper.sweep_all(rounds=2)
        for key in keys:
            suite.delete(key)
        before = cluster.make_auditor().run().ghosts
        sweeps = 0
        while cluster.make_auditor().run().ghosts:
            sweeper.sweep_all(rounds=1)
            sweeps += 1
            assert sweeps <= 5, "anti-entropy failed to converge"
        after = cluster.make_auditor().run()
        return cluster, before, sweeps, after

    cluster, before, sweeps, after = run_once(benchmark, experiment)
    print(
        f"\nghost convergence: {before} ghosts after quorum deletes -> 0 "
        f"after {sweeps} sweep round(s); {after.checks} final checks, "
        f"{len(after.violations)} violations"
    )
    benchmark.extra_info["ghosts_before"] = before
    benchmark.extra_info["sweep_rounds"] = sweeps
    emit_bench(
        "recovery_antientropy",
        workload={"config": "5-3-3", "keys": 20, "seed": 9},
        audit=after.summary(),
        extra={
            "ghosts_before": before,
            "ghosts_after": after.ghosts,
            "sweep_rounds": sweeps,
            "divergent_found": cluster.metrics.snapshot().get(
                "repl.antientropy.divergent", 0
            ),
        },
    )
    # The deletes were quorum-sized, so bystanders must have held ghosts.
    assert before > 0
    assert after.ghosts == 0
    assert after.ok
