"""Invariant auditing across shards.

Each shard is a complete replica suite, so each gets its own
:class:`~repro.obs.audit.InvariantAuditor` (publishing scoped
``shard<i>.audit.*`` counters through its cluster's metrics view).
:class:`ShardAuditor` fans a run out to every per-shard auditor —
splitting an optional client-side model by the shard map, since each
shard must agree only with *its* slice of the keys — and merges the
per-shard reports into one, so the driver's audit plumbing (``run`` /
``record_skip`` / ``report``) works on a sharded cluster unchanged.

Live resharding adds :meth:`ShardAuditor.audit_reshard`: a completed
migration's :class:`~repro.shard.reshard.ReshardRecord` is checked for
lost or double-applied operations — the moved range must be empty on the
source, version-monotone on the target, and no shard may hold a key the
current epoch routes elsewhere.
"""

from __future__ import annotations

from typing import Any

from repro.core.keys import wrap
from repro.obs.audit import AuditReport, AuditViolation, InvariantAuditor
from repro.storage.interface import MergedTiling


class ShardAuditor:
    """Merged invariant auditing over every shard of a
    :class:`~repro.shard.sharded.ShardedDirectory`."""

    def __init__(self, sharded: Any) -> None:
        self.sharded = sharded
        self.auditors = [
            InvariantAuditor(cluster) for cluster in sharded.clusters
        ]
        #: Cumulative report across all runs, all shards.
        self.report = AuditReport()

    def _sync(self) -> None:
        """Follow the shard list: a live split adds a shard, and an
        aborted one takes it back (a later split's shard is new)."""
        self.auditors = [
            InvariantAuditor(cluster)
            if index >= len(self.auditors)
            or self.auditors[index].cluster is not cluster
            else self.auditors[index]
            for index, cluster in enumerate(self.sharded.clusters)
        ]

    def run(self, model: dict[Any, Any] | None = None) -> AuditReport:
        """Audit every shard once; returns this run's merged report.

        ``model`` (optional client-side key→value map) is split by the
        shard map: shard ``i`` is checked against exactly the keys it
        owns, so a key misrouted by a buggy map shows up as both a
        missing entry on its owner and a ghost on the interloper.
        """
        self._sync()
        shard_of = self.sharded.shard_map.shard_of
        run_report = AuditReport()
        for index, auditor in enumerate(self.auditors):
            slice_model = (
                None
                if model is None
                else {
                    key: value
                    for key, value in model.items()
                    if shard_of(key) == index
                }
            )
            run_report.merge(auditor.run(model=slice_model))
        # Per-run reports count one run per shard; the merged report
        # counts sharded runs, not shard-runs.
        run_report.runs = 1
        self.report.merge(run_report)
        return run_report

    def audit_reshard(self, record: Any = None) -> AuditReport:
        """Prove a completed migration lost nothing and doubled nothing.

        Checks, per :class:`~repro.shard.reshard.ReshardRecord` (all of
        ``reshard_log`` when ``record`` is None):

        1. the migration itself reported no cutover mismatch or failed
           heal/drain (``record.violations`` empty);
        2. the moved range is authoritatively *empty* on the source —
           DRAIN deleted every handed-over key (nothing double-applied);
        3. per-key version monotonicity across the move: every copied
           key's fact version on the target is at least its copy-time
           version (nothing regressed to a pre-migration value);
        4. no orphans: under the *current* map, every shard's
           authoritative keys route back to that shard (nothing lost in
           an ownership gap between epochs).
        """
        self._sync()
        records = (
            list(self.sharded.reshard_log) if record is None else [record]
        )
        run_report = AuditReport(runs=1)
        for rec in records:
            self._audit_one(run_report, rec)
        self._audit_ownership(run_report)
        self.report.merge(run_report)
        return run_report

    def _audit_one(self, report: AuditReport, rec: Any) -> None:
        sharded = self.sharded
        delta = rec.delta
        where = f"s{delta.source}->s{delta.target}@e{delta.epoch}"
        report.checks += 1
        for detail in rec.violations:
            report.violations.append(
                AuditViolation("reshard", where, "", detail)
            )
        # 2. the source drained the moved range
        source = sharded.clusters[delta.source].suite
        source_state = source.authoritative_state()
        for payload in sorted(source_state, key=lambda p: wrap(p)):
            report.checks += 1
            if delta.covers(payload):
                report.violations.append(
                    AuditViolation(
                        "reshard",
                        where,
                        str(payload),
                        "moved key still authoritative on the source "
                        "after drain",
                    )
                )
        # 3. version monotonicity across the move
        target_cluster = sharded.clusters[delta.target]
        target = MergedTiling(
            {
                name: target_cluster.representatives[name].store
                for name in target_cluster.suite._available()
            }
        )
        for payload, copied_version in sorted(
            rec.copied.items(), key=lambda item: wrap(item[0])
        ):
            report.checks += 1
            if not target.tilings:
                break
            best = target.best(wrap(payload)).version
            if best < copied_version:
                report.violations.append(
                    AuditViolation(
                        "reshard",
                        where,
                        str(payload),
                        f"target fact version {best} regressed below "
                        f"copy-time version {copied_version}",
                    )
                )

    def _audit_ownership(self, report: AuditReport) -> None:
        shard_of = self.sharded.shard_map.shard_of
        for index, cluster in enumerate(self.sharded.clusters):
            for payload in cluster.suite.authoritative_state():
                report.checks += 1
                owner = shard_of(payload)
                if owner != index:
                    report.violations.append(
                        AuditViolation(
                            "reshard",
                            f"s{index}",
                            str(payload),
                            f"authoritative on shard {index} but epoch "
                            f"{self.sharded.epoch} routes it to shard "
                            f"{owner}",
                        )
                    )

    def record_skip(self) -> None:
        """Note one scheduled audit skipped (e.g. undelivered decisions)."""
        self.report.skipped += 1

    def __repr__(self) -> str:
        return f"ShardAuditor({len(self.auditors)} shards)"
