"""Online auditing of the paper's replica invariants.

The algorithm's correctness rests on one structural property — *every
possible key has a version number on every representative* (entries for
present keys, gap version numbers tiling the intervals between them) —
plus the weighted-voting guarantee that the *current* version of any
key, present or absent, is held by at least a write quorum's worth of
votes.  :class:`InvariantAuditor` checks these directly against replica
stores, at commit boundaries (see ``sim/driver.py``'s ``audit=`` knob)
or on demand:

* **tiling** — each replica's entries and gaps exactly tile
  ``[LOW, HIGH]`` (delegates to the store's own structural
  ``check_invariants``: strictly increasing keys, sentinel bounds, one
  gap version per interval);
* **monotonicity** — for every key stored anywhere, all replicas
  holding the maximum version agree on (present, value); stale replicas
  are strictly dominated, which is what makes the quorum merge of
  Figure 8 sound across coalesces;
* **quorum-intersection** — the replicas holding the maximum version of
  each key, and of each empty interval between keys, muster at least W
  votes (a write installed it on a full write quorum; splits preserve
  it).  Only meaningful when every voting replica is up — a crashed
  replica's volatile store is legitimately behind — so it is skipped
  otherwise;
* **ghost census / model diff** — entries whose key the quorum-derived
  authoritative state says is absent are counted as ghosts (expected,
  never violations), and, when the caller supplies its client-side
  model, the derived state is diffed against it key by key.

The auditor reads stores directly (no RPCs, no network traffic), so it
never perturbs the simulation it is checking.  It publishes
``audit.checks`` / ``audit.violations`` counters and accumulates a
structured :class:`AuditReport`.  Every cross-replica fact it checks
comes from the suite's
:class:`~repro.storage.interface.MergedTiling` of the up replicas.  The
cluster parameter is duck-typed (``config`` / ``metrics`` /
``suite.merged_tiling``) to keep this module import-light.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import StoreCorruptionError
from repro.storage.interface import MergedTiling


@dataclass(frozen=True)
class AuditViolation:
    """One failed invariant check.

    ``check`` is the invariant name (``tiling`` / ``monotonicity`` /
    ``quorum-intersection`` / ``model``); ``replica`` the representative
    concerned (empty for cross-replica checks); ``key`` a display form
    of the key or interval; ``detail`` the human-readable explanation.
    """

    check: str
    replica: str
    key: str
    detail: str

    def render(self) -> str:
        where = f" rep={self.replica}" if self.replica else ""
        return f"[{self.check}]{where} key={self.key}: {self.detail}"


@dataclass
class AuditReport:
    """Accumulated outcome of one or more auditor runs."""

    runs: int = 0
    checks: int = 0
    violations: list[AuditViolation] = field(default_factory=list)
    ghosts: int = 0
    keys_audited: int = 0
    intervals_audited: int = 0
    skipped: int = 0

    @property
    def ok(self) -> bool:
        """True when no check has failed."""
        return not self.violations

    def merge(self, other: "AuditReport") -> None:
        """Fold another report (one run's results) into this one."""
        self.runs += other.runs
        self.checks += other.checks
        self.violations.extend(other.violations)
        self.ghosts += other.ghosts
        self.keys_audited += other.keys_audited
        self.intervals_audited += other.intervals_audited
        self.skipped += other.skipped

    def summary(self) -> dict[str, int]:
        """Flat counts for BENCH telemetry."""
        return {
            "runs": self.runs,
            "checks": self.checks,
            "violations": len(self.violations),
            "ghosts": self.ghosts,
            "keys_audited": self.keys_audited,
            "intervals_audited": self.intervals_audited,
            "skipped": self.skipped,
        }

    def render(self) -> str:
        """Human-readable report (one line per violation)."""
        head = (
            f"audit: {self.runs} runs, {self.checks} checks, "
            f"{len(self.violations)} violations, {self.ghosts} ghosts "
            f"({self.keys_audited} keys, {self.intervals_audited} "
            f"intervals audited, {self.skipped} audits skipped)"
        )
        if self.ok:
            return head
        lines = [head]
        lines.extend("  " + v.render() for v in self.violations)
        return "\n".join(lines)


class InvariantAuditor:
    """Checks replica invariants against a live cluster's stores."""

    def __init__(self, cluster: Any, metrics: Any = None) -> None:
        self.cluster = cluster
        registry = metrics if metrics is not None else cluster.metrics
        self._checks = registry.counter("audit.checks")
        self._violations = registry.counter("audit.violations")
        #: Cumulative report over every :meth:`run` call.
        self.report = AuditReport()

    # -- the audit ---------------------------------------------------------

    def run(self, model: dict[Any, Any] | None = None) -> AuditReport:
        """Audit every invariant once; returns this run's report.

        ``model`` is an optional client-side key→value map (what the
        workload believes the directory contains); when given, the
        quorum-derived authoritative state is diffed against it.  The
        run's report is also merged into the cumulative :attr:`report`
        and the ``audit.*`` counters.
        """
        report = AuditReport(runs=1)
        merged = self.cluster.suite.merged_tiling()
        config = self.cluster.config
        votes, write_quorum = config.votes, config.write_quorum
        # Quorum intersection is also suspended while a replica is
        # rejoining: a joiner's store legitimately trails until cutover
        # (that trailing is the very thing the join is repairing), and
        # its votes are not being counted meanwhile.  audit_join() is
        # the check that proves the gap closed.
        membership = getattr(self.cluster.suite, "membership", None)
        quorum_checkable = merged.tilings.keys() >= set(
            config.voting_names()
        ) and (membership is None or membership.all_up)

        # Invariant 1: each replica's entries+gaps tile [LOW, HIGH].
        for name, store in merged.tilings.items():
            report.checks += 1
            try:
                store.check_invariants()
            except StoreCorruptionError as exc:
                self._flag(report, "tiling", name, "[LOW .. HIGH]", str(exc))

        # The union of stored keys is the finite skeleton that, with the
        # gap probes below, covers the infinite key space.
        report.keys_audited = len(merged.keys)

        # Invariants 2+3 per stored key: max-version agreement, and the
        # max version mustered by >= W votes.
        for key in merged.keys:
            vmax = merged.best(key).version
            holders = {
                n: r for n, r in merged.facts(key).items() if r.version == vmax
            }
            verdicts = {(r.present, r.value) for r in holders.values()}
            report.checks += 1
            if len(verdicts) > 1:
                self._flag(
                    report,
                    "monotonicity",
                    ",".join(sorted(holders)),
                    repr(key),
                    f"replicas at version {vmax} disagree: "
                    + "; ".join(
                        f"{n}={'present' if r.present else 'absent'}"
                        f"/{r.value!r}"
                        for n, r in sorted(holders.items())
                    ),
                )
            if quorum_checkable:
                report.checks += 1
                held = sum(votes.get(n, 0) for n in holders)
                if held < write_quorum:
                    self._flag(
                        report,
                        "quorum-intersection",
                        ",".join(sorted(holders)),
                        repr(key),
                        f"version {vmax} held by {held} votes "
                        f"< write quorum {write_quorum}",
                    )

        # Invariant 3 per empty interval: no replica stores a key inside
        # it, so each replica's gap above its low bound covers all of it;
        # the maximum must again be on >= W votes.
        for a, b in merged.intervals():
            report.intervals_audited += 1
            if quorum_checkable:
                report.checks += 1
                gaps = merged.gaps_above(a)
                gmax = max(gaps.values())
                held = sum(
                    votes.get(n, 0) for n, g in gaps.items() if g == gmax
                )
                if held < write_quorum:
                    self._flag(
                        report,
                        "quorum-intersection",
                        "",
                        f"({a!r} .. {b!r})",
                        f"gap version {gmax} held by {held} votes "
                        f"< write quorum {write_quorum}",
                    )

        # Invariant 4: ghost census and (optionally) the model diff.
        report.ghosts = merged.ghosts()
        if model is not None:
            derived = merged.state()
            for payload in sorted(
                set(derived) | set(model), key=repr
            ):
                report.checks += 1
                if payload not in derived:
                    self._flag(
                        report, "model", "", repr(payload),
                        f"model has {model[payload]!r}, quorums say absent",
                    )
                elif payload not in model:
                    self._flag(
                        report, "model", "", repr(payload),
                        f"quorums say {derived[payload]!r}, model says absent",
                    )
                elif derived[payload] != model[payload]:
                    self._flag(
                        report, "model", "", repr(payload),
                        f"quorums say {derived[payload]!r}, "
                        f"model says {model[payload]!r}",
                    )

        self._checks.inc(report.checks)
        self.report.merge(report)
        return report

    def audit_join(self, joiner: str) -> AuditReport:
        """Prove a completed join lost nothing and double-applied nothing.

        Stricter than :meth:`run`'s quorum checks, which only constrain
        the voting set: cutover reconciled the joiner against *every* up
        peer, so the joiner must now be byte-equivalent to the
        authoritative state — for every key any up replica stores it
        holds the maximum version with the same verdict and value, and
        every empty interval carries the maximum gap version.  A missing
        or stale fact means an operation was lost across the join; a
        version *above* the maximum means something was applied twice
        (versions are never invented, so no legal history produces one).
        All failures are flagged under the ``join`` check.
        """
        report = AuditReport(runs=1)
        merged = self.cluster.suite.merged_tiling()
        if joiner not in merged.tilings:
            report.checks += 1
            self._flag(
                report, "join", joiner, "", "joiner is not up after join"
            )
            self._checks.inc(report.checks)
            self.report.merge(report)
            return report
        store = merged.tilings[joiner]

        report.checks += 1
        try:
            store.check_invariants()
        except StoreCorruptionError as exc:
            self._flag(report, "join", joiner, "[LOW .. HIGH]", str(exc))

        report.keys_audited = len(merged.keys)
        peers = MergedTiling(
            {n: t for n, t in merged.tilings.items() if n != joiner}
        )
        for key in merged.keys if peers.tilings else []:
            mine = merged.facts(key)[joiner]
            best = peers.best(key)
            vmax = best.version
            report.checks += 1
            if mine.version > vmax:
                self._flag(
                    report, "join", joiner, repr(key),
                    f"version {mine.version} above authoritative {vmax}: "
                    "something was applied twice or invented",
                )
            elif mine.version < vmax:
                self._flag(
                    report, "join", joiner, repr(key),
                    f"stale after join: version {mine.version} "
                    f"< authoritative {vmax}",
                )
            elif (mine.present, mine.value) != (best.present, best.value):
                self._flag(
                    report, "join", joiner, repr(key),
                    f"version {vmax} disagrees with peers: "
                    f"{'present' if mine.present else 'absent'}"
                    f"/{mine.value!r}",
                )

        for a, b in merged.intervals():
            report.intervals_audited += 1
            report.checks += 1
            gaps = merged.gaps_above(a)
            gmax = max(gaps.values())
            if gaps[joiner] != gmax:
                self._flag(
                    report, "join", joiner, f"({a!r} .. {b!r})",
                    f"gap version {gaps[joiner]} != authoritative {gmax}",
                )

        self._checks.inc(report.checks)
        self.report.merge(report)
        return report

    def record_skip(self) -> None:
        """Note one scheduled audit that had to be skipped (e.g. while a
        commit decision is still undelivered under message loss)."""
        self.report.skipped += 1

    def _flag(
        self,
        report: AuditReport,
        check: str,
        replica: str,
        key: str,
        detail: str,
    ) -> None:
        report.violations.append(AuditViolation(check, replica, key, detail))
        self._violations.inc()
