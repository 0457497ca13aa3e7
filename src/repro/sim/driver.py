"""Serial simulation driver: the paper's section 4 experiments.

One simulation builds a cluster, loads the directory to its target size,
then applies a stream of generated operations while collecting the three
delete-overhead statistics, traffic counters, and (optionally) failure
behaviour.  The paper's runs are serial — one transaction at a time — so
the driver executes operations back to back.  Its replicas are the ones
a served directory runs, Figure 7 range locks included; with one
transaction at a time a lock conflicts only with one that a lost 2PC
decision left held.  Contention experiments live in
:mod:`repro.sim.concurrency`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import _single
from repro.core.errors import (
    ConfigurationError,
    KeyAlreadyPresentError,
    KeyNotPresentError,
    NetworkError,
    TransactionError,
)
from repro.core.quorum import QuorumPolicy
from repro.core.resilient import ResilientSuite, RetryPolicy
from repro.core.stats import DeleteOverheadStats, SuiteOpCounts
from repro.net.detector import FailureDetector
from repro.net.failures import LossyLinks
from repro.obs.audit import AuditReport, InvariantAuditor
from repro.obs.spans import RecordingTracer, Span
from repro.sim.workload import (
    OpMix,
    Operation,
    SkewedKeyWorkload,
    UniformWorkload,
)

#: Distinguishes "key absent" from "key present with value None" when
#: diffing the client model against the cluster's authoritative state.
_ABSENT = object()

#: In-transaction re-issues of a timed-out representative RPC (see
#: :meth:`~repro.core.suite.DirectorySuite._round`), applied whenever
#: messages can be lost.  Without this level of masking, a ~25-RPC delete
#: almost never survives a lossy network in one piece and whole-operation
#: retries alone cannot reach a usable success rate.
_LOSSY_RPC_RETRIES = 2
#: Tick the reshard controller every this many measured operations.  A
#: tick snapshots the whole registry, so it is not paid per op; a
#: 2,000-op run still gets some sixty chances to react.
_RESHARD_CHECK_EVERY = 32
#: The controller's windowed-rate horizon, in simulated ticks.  One
#: check interval costs ≈420 ticks parallel and ≈970 serial (13 and 30
#: ticks an op at the default one-tick links), so every tick rates the
#: routing since the tick before it: the hotspot the workload has now.
_RESHARD_WINDOW = 400.0


@dataclass
class SimulationSpec:
    """Everything that defines one simulation run."""

    config: str = "3-2-2"
    directory_size: int = 100
    operations: int = 10_000
    seed: int = 0
    mix: OpMix = field(default_factory=OpMix)
    store: str = "sorted"
    quorum_policy: QuorumPolicy | None = None
    neighbor_batch_size: int = 1
    read_repair: bool = False
    #: When > 0, sample the cluster-wide ghost population every this many
    #: measured operations (a ghost is a stored entry whose key is no
    #: longer in the directory).  Costs a full cluster scan per sample.
    ghost_sample_interval: int = 0
    #: Record a span tree per measured operation (see :mod:`repro.obs`).
    #: Off by default: the no-op tracer keeps instrumentation free.
    trace_spans: bool = False
    #: Per-message request-loss probability on every link during the
    #: *measured* phase (loading runs on a clean network).
    #: > 0 installs a :class:`~repro.net.failures.LossyLinks` model and a
    #: :class:`~repro.net.detector.FailureDetector`.
    loss: float = 0.0
    #: Reply-loss probability; defaults to ``loss`` when None.
    reply_loss: float | None = None
    #: Client-side retries per operation (0 = errors surface raw; n > 0
    #: wraps the suite in a :class:`~repro.core.resilient.ResilientSuite`
    #: allowing n retries after the first attempt).
    retries: int = 0
    #: Check every client-visible outcome against a model directory and
    #: diff the model against the authoritative state at the end — the
    #: exactly-once / no-duplicate-apply oracle for chaos runs.
    verify_model: bool = False
    #: RPC fan-out mode: ``"serial"`` (paper-faithful one-call-at-a-time
    #: baseline) or ``"parallel"`` (quorum rounds and 2PC phases scatter
    #: concurrently, paying the max arrival instead of the sum).
    fanout: str = "serial"
    #: Run the :class:`~repro.obs.audit.InvariantAuditor` at commit
    #: boundaries every ``audit_interval`` measured operations and once
    #: at the end of the run.  Off by default — like the tracer, auditing
    #: must cost nothing when disabled.
    audit: bool = False
    audit_interval: int = 1_000
    #: When > 0, run against a :class:`~repro.shard.ShardedDirectory` of
    #: this many shards instead of a single cluster.  Routing stays
    #: sequential here — the driver's job is correctness accounting and
    #: audit coverage; cross-shard *throughput* is what
    #: ``benchmarks/bench_shard.py`` measures with wave execution.
    shards: int = 0
    #: Key → shard split when ``shards`` > 0: ``"range"`` or ``"hash"``.
    shard_map: str = "range"
    #: Key generator: ``"uniform"`` (the paper's) or ``"skewed"``
    #: (concentrated near 0.0 — the shard-imbalance stressor).
    workload: str = "uniform"
    #: Crash ``rejoin_replica``'s node after this many measured
    #: operations (0 = never).  The replica lifecycle script; see
    #: :mod:`repro.repl`.  Single-cluster runs only (``shards == 0``).
    crash_at: int = 0
    #: Start an online rejoin (:class:`~repro.repl.bootstrap.ReplicaJoin`)
    #: of the crashed replica after this many measured operations; the
    #: join is then stepped once per operation until cutover, with the
    #: client workload flowing throughout.  0 = never.
    rejoin_at: int = 0
    #: Which replica the crash/rejoin script targets; defaults to the
    #: last representative in configuration order.
    rejoin_replica: str | None = None
    #: Erase the crashed replica's write-ahead log before rejoining
    #: (total storage loss — the bootstrap-from-peers scenario).
    wipe: bool = False
    #: Run one background anti-entropy sweep step every this many
    #: measured operations (0 = off); see :mod:`repro.repl.antientropy`.
    antientropy_every: int = 0
    #: Attach a :class:`~repro.shard.ReshardController` that watches the
    #: windowed per-shard routing rates mid-workload and live-splits the
    #: hottest shard's key range (COPY → CUTOVER → DRAIN, with the
    #: client stream flowing throughout).  Sharded runs only
    #: (``shards > 0``).  The controller runs on its own defaults.
    auto_reshard: bool = False


@dataclass
class SimulationResult:
    """Outcome of one run."""

    spec: SimulationSpec
    delete_stats: DeleteOverheadStats
    op_counts: SuiteOpCounts
    traffic: dict[str, Any]
    rep_entry_counts: dict[str, int]
    final_size: int
    elapsed_seconds: float
    failed_operations: int = 0
    #: Client-visible consistency violations under ``spec.verify_model``:
    #: lookups returning the wrong answer, writes failing when the model
    #: says they must succeed, plus end-of-run model/state diffs.  Must be
    #: zero — any other value is a correctness bug, not a statistic.
    model_mismatches: int = 0
    #: Simulated ticks the measured phase consumed (timeouts and retry
    #: backoffs included) — the denominator for goodput.
    sim_ticks: float = 0.0
    #: (operation index, total ghosts across replicas) samples, when
    #: ``spec.ghost_sample_interval`` > 0.
    ghost_timeline: list[tuple[int, int]] = field(default_factory=list)
    #: One span tree per measured operation, when ``spec.trace_spans``.
    spans: list[Span] = field(default_factory=list)
    #: ``cluster.metrics.snapshot()`` taken at the end of the run.
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Cumulative invariant-audit outcome, when ``spec.audit``.
    audit_report: "AuditReport | None" = None
    #: Measured-operation index at which the rejoining replica reached
    #: UP (-1 when no rejoin was scripted or it never finished).
    rejoin_completed_at: int = -1
    #: ``audit_join`` summary taken at the cutover instant, when both
    #: ``spec.audit`` and a rejoin script ran.
    join_audit: dict[str, int] | None = None
    #: Final epoch, migration count, and total keys moved under
    #: ``spec.auto_reshard`` (None when the controller was off).
    reshard: dict[str, int] | None = None

    def stats_table(self) -> dict[str, dict[str, float]]:
        """The Figure 14/15 row block for this run."""
        return self.delete_stats.as_table()


def check_spec(spec: SimulationSpec) -> None:
    """Raise :class:`ConfigurationError` for a knob out of range or
    knobs that contradict each other.

    :func:`run_simulation` calls it before building anything.
    """
    for name in ("directory_size", "operations", "retries", "shards",
                 "crash_at", "rejoin_at", "antientropy_every"):
        if (count := getattr(spec, name)) < 0:
            raise ConfigurationError(f"{name} must be >= 0: {count}")
    if (batch := spec.neighbor_batch_size) < 1:
        raise ConfigurationError(f"neighbor_batch_size must be >= 1: {batch}")
    for name in ("loss", "reply_loss"):
        if (p := getattr(spec, name)) is not None and not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"{name} out of [0,1]: {p}")
    if (spec.crash_at or spec.rejoin_at or spec.antientropy_every) and (
        spec.shards > 0
    ):
        raise ConfigurationError(
            "replica lifecycle scripting (crash_at / rejoin_at / "
            "antientropy_every) needs a single cluster; got shards="
            f"{spec.shards}"
        )
    if spec.wipe and not spec.crash_at:
        raise ConfigurationError("wipe erases the crashed replica; it needs crash_at")
    if spec.crash_at and spec.rejoin_at and spec.rejoin_at <= spec.crash_at:
        raise ConfigurationError(
            f"rejoin_at ({spec.rejoin_at}) must come after crash_at "
            f"({spec.crash_at})"
        )
    if spec.auto_reshard and spec.shards <= 0:
        raise ConfigurationError(
            f"auto_reshard needs a sharded run; got shards={spec.shards}"
        )


def run_simulation(
    spec: SimulationSpec,
    cluster: DirectoryCluster | None = None,
    failure_stepper: Any | None = None,
) -> SimulationResult:
    """Execute one paper-style simulation.

    Parameters
    ----------
    spec:
        The run definition.
    cluster:
        Optionally a pre-built cluster (for custom topologies); by default
        one is created from ``spec``.
    failure_stepper:
        An object with a ``step()`` method (see :mod:`repro.net.failures`)
        called once per measured operation; operations that then fail for
        availability reasons are counted, not raised.
    """
    check_spec(spec)
    started = time.perf_counter()
    if cluster is None:
        cluster_spec = ClusterSpec(
            config=spec.config,
            store=spec.store,
            seed=spec.seed,
            quorum_policy=spec.quorum_policy,
            neighbor_batch_size=spec.neighbor_batch_size,
            read_repair=spec.read_repair,
            tracer=RecordingTracer() if spec.trace_spans else None,
            fanout=spec.fanout,
        )
        if spec.shards > 0:
            from repro.shard import ShardedDirectory

            cluster = ShardedDirectory.create(
                cluster_spec,
                shards=spec.shards,
                shard_map=spec.shard_map,
            )
        else:
            cluster = DirectoryCluster.create(cluster_spec)
    suite = cluster.suite
    workload_cls = {
        "uniform": UniformWorkload,
        "skewed": SkewedKeyWorkload,
    }[spec.workload]
    workload = workload_cls(
        target_size=spec.directory_size, mix=spec.mix, seed=spec.seed + 1
    )
    model: dict[Any, Any] | None = {} if spec.verify_model else None

    # Load phase: bring the directory to its target size.
    for op in workload.initial_load(spec.directory_size):
        suite.insert(op.key, op.value)
        if model is not None:
            model[op.key] = op.value

    # Fault injection covers only the measured phase: loading through a
    # lossy network would merely slow the setup down without measuring
    # anything.  The detector rides along whenever messages can be lost,
    # so retried quorum selection avoids recently-timed-out hosts.
    front: Any = suite
    reply_loss = spec.loss if spec.reply_loss is None else spec.reply_loss
    lossy = spec.loss > 0.0 or reply_loss > 0.0
    if lossy:
        cluster.network.install_faults(
            LossyLinks(
                request_loss=spec.loss,
                reply_loss=reply_loss,
                rng=random.Random(spec.seed + 2),
            )
        )
        suite.attach_detector(
            FailureDetector(cluster.network.clock.now, metrics=cluster.metrics)
        )
        suite.rpc_retries = _LOSSY_RPC_RETRIES
    if spec.retries > 0:
        front = ResilientSuite(
            suite,
            policy=RetryPolicy(max_attempts=spec.retries + 1),
            rng=random.Random(spec.seed + 3),
        )

    # The auditor reads replica stores directly (no RPCs), so running it
    # between operations perturbs nothing; when off it does not exist.
    # ``make_auditor`` lets the cluster choose its auditor (a sharded
    # cluster returns the per-shard merging one).
    auditor = cluster.make_auditor() if spec.audit else None

    lifecycle: _LifecycleScript | None = None
    if spec.crash_at or spec.rejoin_at or spec.antientropy_every:
        lifecycle = _LifecycleScript(spec, cluster)

    controller = None
    if spec.auto_reshard:
        from repro.shard import ReshardController

        controller = ReshardController(cluster, window=_RESHARD_WINDOW)

    # Measurement phase starts from clean statistics.  The tracer resets
    # with the traffic counters so span message counts reconcile exactly
    # against ``result.traffic``.
    suite.delete_stats = DeleteOverheadStats()
    suite.op_counts = SuiteOpCounts()
    cluster.network.stats.reset()
    cluster.tracer.reset()
    ticks_at_start = cluster.network.clock.now()

    failed = 0
    mismatches = 0
    ghost_timeline: list[tuple[int, int]] = []
    for index, op in enumerate(workload.operations(spec.operations)):
        if failure_stepper is not None:
            failure_stepper.step()
        if lifecycle is not None:
            lifecycle.step(index, auditor)
        if (
            controller is not None
            and (index + 1) % _RESHARD_CHECK_EVERY == 0
        ):
            controller.tick()
        try:
            outcome = _single(front, op.kind, op.key, op.value)
        except (KeyAlreadyPresentError, KeyNotPresentError):
            if model is None:
                raise
            # The workload only issues valid operations (fresh keys for
            # inserts, members for updates/deletes), so an application
            # error here means an effect was applied twice or lost.
            failed += 1
            mismatches += 1
            _correct_workload(workload, op)
        except (NetworkError, TransactionError):
            failed += 1
            # The optimistic workload model assumed success; correct it.
            _correct_workload(workload, op)
        else:
            if model is not None:
                if op.kind == "lookup":
                    present, value = outcome
                    wanted = model.get(op.key, _ABSENT)
                    if present != (wanted is not _ABSENT) or (
                        present and value != wanted
                    ):
                        mismatches += 1
                else:
                    _apply_model(model, op)
        if (
            spec.ghost_sample_interval
            and (index + 1) % spec.ghost_sample_interval == 0
        ):
            ghost_timeline.append((index + 1, count_ghosts(cluster)))
        if (
            auditor is not None
            and spec.audit_interval
            and (index + 1) % spec.audit_interval == 0
        ):
            _audit_boundary(auditor, suite, lossy)
    reshard_summary = None
    if controller is not None:
        # Run any migration still in flight to completion, so the final
        # state checks below see a single, settled epoch.
        controller.finish()
        reshard_summary = {
            "epoch": cluster.epoch,
            "migrations": len(cluster.reshard_log),
            "moved_keys": sum(r.moved for r in cluster.reshard_log),
        }
    sim_ticks = cluster.network.clock.now() - ticks_at_start

    if lossy:
        # Quiesce: stop dropping messages and flush any commit/abort
        # decisions that never reached a participant, so the final state
        # below reflects only decided outcomes.
        cluster.network.install_faults(None)
        suite.txn_manager.resolve_pending()
    if model is not None:
        truth = suite.authoritative_state()
        mismatches += sum(
            1
            for key in set(truth) | set(model)
            if truth.get(key, _ABSENT) != model.get(key, _ABSENT)
        )
    if auditor is not None:
        # Final audit on the quiesced cluster; with a model available the
        # quorum-derived state is also diffed against it.
        auditor.run(model=model)
        if getattr(cluster, "reshard_log", None):
            # Every completed migration: no key lost, double-applied, or
            # left authoritative on its old owner.
            auditor.audit_reshard()

    return SimulationResult(
        spec=spec,
        delete_stats=suite.delete_stats,
        op_counts=suite.op_counts,
        traffic=cluster.network.stats.snapshot(),
        rep_entry_counts={
            name: rep.entry_count()
            for name, rep in cluster.representatives.items()
        },
        final_size=workload.size,
        elapsed_seconds=time.perf_counter() - started,
        failed_operations=failed,
        model_mismatches=mismatches,
        sim_ticks=sim_ticks,
        ghost_timeline=ghost_timeline,
        spans=cluster.tracer.finished_roots(),
        metrics=cluster.metrics.snapshot(),
        audit_report=auditor.report if auditor is not None else None,
        rejoin_completed_at=(
            lifecycle.completed_at if lifecycle is not None else -1
        ),
        join_audit=(
            lifecycle.join_report.summary()
            if lifecycle is not None and lifecycle.join_report is not None
            else None
        ),
        reshard=reshard_summary,
    )


class _LifecycleScript:
    """Scripted crash → wipe → rejoin → anti-entropy for one run.

    Stepped once per measured operation, between operations — the same
    cadence as ``failure_stepper`` — so the join races a live workload
    exactly as it would in production.  The join audit runs at the
    cutover instant (the only moment the joiner is provably
    byte-identical to the authoritative state; one operation later it
    may legitimately trail again like any replica outside a quorum).
    """

    def __init__(self, spec: SimulationSpec, cluster: DirectoryCluster) -> None:
        from repro.repl import AntiEntropySweeper

        self.spec = spec
        self.cluster = cluster
        self.suite = cluster.suite
        names = list(cluster.suite.config.names)
        self.replica = spec.rejoin_replica or names[-1]
        if self.replica not in names:
            raise ConfigurationError(f"unknown rejoin_replica {self.replica!r}")
        self.join: Any = None
        self.completed_at = -1
        self.join_report: AuditReport | None = None
        self.sweeper = (
            AntiEntropySweeper(cluster) if spec.antientropy_every else None
        )

    def step(self, index: int, auditor: "InvariantAuditor | None") -> None:
        from repro.repl import ReplicaJoin, wipe_replica

        spec = self.spec
        if spec.crash_at and index == spec.crash_at:
            self.cluster.crash(self.replica)
            if spec.wipe:
                wipe_replica(self.cluster, self.replica)
        if spec.rejoin_at and index == spec.rejoin_at:
            self.join = ReplicaJoin(
                self.cluster, self.replica, detector=self.suite._detector
            )
            self.join.start()
        if self.join is not None and not self.join.done:
            # Undelivered 2PC decisions hold peer snapshots hostage
            # (export refuses while transactions are in flight), so
            # drain them while the join is running.
            manager = self.suite.txn_manager
            if manager.pending_completions:
                manager.resolve_pending()
            if self.join.step():
                self.completed_at = index
                if auditor is not None:
                    for _ in range(5):
                        manager.resolve_pending()
                        if not manager.pending_completions:
                            break
                    self.join_report = auditor.audit_join(self.replica)
        if (
            self.sweeper is not None
            and index % spec.antientropy_every == 0
        ):
            self.sweeper.step()


def _audit_boundary(
    auditor: InvariantAuditor, suite: Any, lossy: bool
) -> None:
    """Run one commit-boundary audit, or record a skip if state is dirty.

    Under message loss a commit/abort decision may not have reached every
    participant yet; un-rolled-back effects of an undelivered abort are
    not an invariant violation, so the audit is skipped until the
    decisions drain.
    """
    if lossy:
        suite.txn_manager.resolve_pending()
        if suite.txn_manager.pending_completions:
            auditor.record_skip()
            return
    auditor.run()


def count_ghosts(cluster: DirectoryCluster) -> int:
    """Total stale entries across the up replicas, shard by shard.

    A ghost is a stored entry whose key is no longer present in the
    directory (its highest-version information is a gap): the auditor's
    census, :meth:`~repro.storage.interface.MergedTiling.ghosts`.
    Measurement aid: peeks at every replica directly.
    """
    shards = getattr(cluster, "clusters", [cluster])
    return sum(shard.suite.merged_tiling().ghosts() for shard in shards)


def _apply_model(model: dict[Any, Any], op: Operation) -> None:
    """Mirror one *successful* write into the client's model directory."""
    if op.kind == "delete":
        model.pop(op.key, None)
    elif op.kind != "lookup":
        model[op.key] = op.value


def _correct_workload(workload: UniformWorkload, op: Operation) -> None:
    """Undo the workload's optimistic membership update for a failed op."""
    if op.kind == "insert":
        workload.note_delete(op.key)
    elif op.kind == "delete":
        workload.note_insert(op.key)


def _sweep(
    name: str, values: list[Any], **spec_kwargs: Any
) -> dict[Any, SimulationResult]:
    """One simulation per value of the spec field ``name``."""
    return {
        value: run_simulation(SimulationSpec(**{name: value}, **spec_kwargs))
        for value in values
    }


def run_figure14_grid(
    configs: list[str],
    directory_size: int = 100,
    operations: int = 10_000,
    seed: int = 0,
    **spec_kwargs: Any,
) -> dict[str, SimulationResult]:
    """One simulation per configuration — the Figure 14 sweep."""
    return _sweep(
        "config", configs, directory_size=directory_size,
        operations=operations, seed=seed, **spec_kwargs,
    )


def run_figure15_sizes(
    sizes: list[int],
    config: str = "3-2-2",
    operations: int = 100_000,
    seed: int = 0,
    **spec_kwargs: Any,
) -> dict[int, SimulationResult]:
    """One simulation per directory size — the Figure 15 detail table."""
    return _sweep(
        "directory_size", sizes, config=config,
        operations=operations, seed=seed, **spec_kwargs,
    )
