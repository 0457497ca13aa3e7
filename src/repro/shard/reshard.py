"""Live resharding: online migration of a key range between shard suites.

A :class:`Resharder` executes one :class:`~repro.shard.maps.ShardMapDelta`
— the range a :meth:`~repro.shard.maps.ShardMap.split` moved onto a
brand-new shard — against a running
:class:`~repro.shard.sharded.ShardedDirectory`, in three phases patterned
after :class:`~repro.repl.bootstrap.ReplicaJoin`:

* **COPY** — read the moving range's *authoritative* facts from the
  source suite (merging entry and covering-gap versions across a read
  quorum of replicas, exactly the weighted-voting read rule) and ship
  the present keys to every target replica in one ``rep_reconcile``
  message each.  The target suite is new and empty, so every copied
  version lands: versions from one suite mean nothing to a suite that
  already holds some of its own.  Ghosts — entries dominated by a
  covering gap elsewhere — are filtered here, so deleted keys are never
  resurrected on the target.  Clients keep reading and writing the
  source; nothing forwards their writes, whoever issues them.
* **CUTOVER** — compare the two suites' authoritative views of the
  range, heal every difference (whatever was written, rewritten or
  deleted on the source since the copy) as one quorum-paying wave of
  target ops, verify, then install the successor map: the epoch bumps
  and reads flip to the target.  The whole phase is one step, so no
  client op lands between the comparison and the flip.
* **DRAIN** — delete the moved keys from the source as one wave (the
  paper's own delete, so gap versioning stays correct on every source
  replica), then retire into the directory's ``reshard_log`` as a
  :class:`ReshardRecord` for the auditor.

The :class:`ReshardController` closes the loop with observability: it
watches per-shard windowed ``shard.routed`` rates through a
:class:`~repro.obs.live.WindowedView` and splits a hot range at its
median stored key automatically — the elasticity E22 showed range maps
need under :class:`~repro.sim.workload.SkewedKeyWorkload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import (
    ConfigurationError,
    NetworkError,
    QuorumUnavailableError,
    ReproError,
    SnapshotUnavailableError,
)
from repro.core.entries import LookupReply
from repro.core.keys import HIGH, wrap
from repro.repl.bootstrap import admin_call, ship_pieces
from repro.shard.maps import ShardMapDelta
from repro.storage.interface import MergedTiling

_MISSING = object()


# ---------------------------------------------------------------------------
# Authoritative range facts
# ---------------------------------------------------------------------------


def _quorum_members(cluster: Any, kind: str) -> list[str]:
    """Up, voting replicas of ``cluster`` — enough votes for a read quorum.

    Raises :class:`QuorumUnavailableError` when the reachable votes fall
    short; the caller retries on a later step.
    """
    suite = cluster.suite
    names = suite._eligible()
    votes = sum(suite.config.votes[n] for n in names)
    if votes < suite.config.read_quorum:
        raise QuorumUnavailableError(suite.config.read_quorum, votes, kind=kind)
    return names


def authoritative_range_facts(cluster: Any, delta: Any) -> dict[Any, LookupReply]:
    """Merged authoritative facts for ``delta``'s range across a quorum.

    Exports a snapshot from every up voting replica over the suite's RPC
    endpoint (paying latency like any lifecycle traffic) and keeps, per
    key, the :class:`~repro.storage.interface.MergedTiling`'s best fact —
    entry versions and covering-gap versions compete, exactly as in the
    paper's read.  Returns ``{payload: reply}`` for every user key in
    the range the suite holds as present; a key some replica stores but
    a dominating gap elsewhere beats is a ghost, and is left out.

    Raises :class:`SnapshotUnavailableError` / :class:`NetworkError`
    when a replica cannot export right now (transient; retry later).
    """
    suite = cluster.suite
    merged = MergedTiling(
        {
            name: admin_call(suite, name, "rep_export_snapshot")
            for name in _quorum_members(cluster, "reshard read")
        }
    )
    # [low, high) of user keys; ``high=None`` runs to the sentinel.
    low_k = wrap(delta.low)
    high_k = HIGH if delta.high is None else wrap(delta.high)
    return {
        key.payload: best
        for key in merged.keys
        if low_k <= key < high_k and (best := merged.best(key)).present
    }


def authoritative_range(cluster: Any, delta: Any) -> dict[Any, Any]:
    """``{payload: value}`` of :func:`authoritative_range_facts`."""
    facts = authoritative_range_facts(cluster, delta)
    return {payload: reply.value for payload, reply in facts.items()}


# ---------------------------------------------------------------------------
# The migration record and state machine
# ---------------------------------------------------------------------------


@dataclass
class ReshardRecord:
    """The audit trail of one range migration, filled in as it runs."""

    #: The range that moved, from which shard to which, at which epoch.
    delta: ShardMapDelta
    #: ``payload -> version`` of every present key at copy time.
    copied: dict[Any, int] = field(default_factory=dict)
    #: Authoritative keys handed over at cutover.
    moved: int = 0
    violations: list[str] = field(default_factory=list)
    steps: int = 0

    def summary(self) -> dict[str, Any]:
        """The delta and every field, the two collections as their sizes
        (the ``RESHARD`` replies' body)."""
        delta = self.delta
        return {
            "epoch": delta.epoch,
            "kind": "split",
            "source": delta.source,
            "target": delta.target,
            "low": delta.low,
            "high": delta.high,
            "copied": len(self.copied),
            "moved": self.moved,
            "violations": len(self.violations),
            "steps": self.steps,
        }


class Resharder:
    """Phase-driven migration of one key range between shard suites.

    Construct via :meth:`ShardedDirectory.begin_split`, which adds the
    empty target shard first, then pump :meth:`step` (or :meth:`run`)
    with client traffic interleaved between steps — that interleaving is
    the point: no phase blocks the directory.  Phases advance
    ``copy -> cutover -> drain -> done``; :meth:`abort` exits cleanly
    from any phase before cutover installs the new epoch.
    """

    PHASES = ("copy", "cutover", "drain", "done", "aborted")

    def __init__(self, directory: Any, new_map: Any) -> None:
        self.directory = directory
        self.new_map = new_map
        self.delta = new_map.delta
        self.phase = "copy"
        #: What the auditor reads once the migration retires.
        self.record = ReshardRecord(self.delta)
        #: Authoritative ``{payload: value}`` of the range at cutover.
        self.moved: dict[Any, Any] = {}

    # -- introspection ------------------------------------------------------

    @property
    def source(self) -> int:
        return self.delta.source

    @property
    def target(self) -> int:
        return self.delta.target

    @property
    def done(self) -> bool:
        return self.phase in ("done", "aborted")

    def status(self) -> dict[str, Any]:
        return {"phase": self.phase, **self.record.summary()}

    # -- driving ------------------------------------------------------------

    def step(self) -> bool:
        """Run one bounded slice of migration work; True when finished."""
        if self.done:
            return True
        self.record.steps += 1
        if self.phase == "copy":
            self._step_copy()
        elif self.phase == "cutover":
            self._step_cutover()
        elif self.phase == "drain":
            self._step_drain()
        return self.done

    def run(self, max_steps: int = 10_000) -> "Resharder":
        """Drive :meth:`step` until done (no client traffic interleaved)."""
        for _ in range(max_steps):
            if self.step():
                return self
        raise ReproError(
            f"reshard of [{self.delta.low!r}, {self.delta.high!r}) did not "
            f"finish within {max_steps} steps (stuck in {self.phase})"
        )

    def abort(self) -> None:
        """Stop cleanly without installing the successor epoch.

        The target shard goes with whatever was copied to it: no map
        ever routed to it, and the next split's target must be new and
        empty.  Illegal after cutover: the epoch is installed and only
        DRAIN remains.
        """
        if self.done:
            return
        if self.phase == "drain":
            raise ConfigurationError(
                "cannot abort after cutover: the new epoch is installed; "
                "let DRAIN finish"
            )
        self.phase = "aborted"
        self.directory.remove_shard()
        if self.directory.resharder is self:
            self.directory.resharder = None

    # -- phases -------------------------------------------------------------

    def _step_copy(self) -> None:
        directory = self.directory
        try:
            facts = authoritative_range_facts(
                directory.clusters[self.source], self.delta
            )
            target_cluster = directory.clusters[self.target]
            pieces = [
                ("entry", wrap(payload), reply.version, reply.value)
                for payload, reply in sorted(
                    facts.items(), key=lambda item: wrap(item[0])
                )
            ]
            if pieces:
                repairs = target_cluster.metrics.counter(
                    "repl.reconcile.repairs"
                )
                for name in _quorum_members(target_cluster, "reshard copy"):
                    ship_pieces(target_cluster.suite, name, pieces, repairs)
        except (SnapshotUnavailableError, NetworkError):
            return  # a replica is busy or unreachable; retry next step
        self.record.copied = {
            payload: reply.version for payload, reply in facts.items()
        }
        self.phase = "cutover"

    def _step_cutover(self) -> None:
        directory = self.directory
        target_cluster = directory.clusters[self.target]
        target_suite = target_cluster.suite
        violations = self.record.violations
        try:
            want = authoritative_range(
                directory.clusters[self.source], self.delta
            )
            got = authoritative_range(target_cluster, self.delta)
        except (SnapshotUnavailableError, NetworkError):
            return
        # Heal: everything the source's clients wrote, rewrote or deleted
        # since the copy shows up as a difference between the two
        # authoritative views; replay it through the target *suite*
        # (quorum-paying, version-monotone) pre-flip, as one wave.
        heal = [
            ("upsert", key, want[key]) if key in want else ("discard", key)
            for key in sorted(want.keys() | got.keys(), key=wrap)
            if got.get(key, _MISSING) != want.get(key, _MISSING)
        ]
        for outcome in target_suite.execute_batch(heal):
            if not outcome.ok:
                violations.append(
                    f"cutover heal failed for {outcome.op.key!r}: "
                    f"{outcome.error}"
                )
        # Verify: the healed target must answer the range exactly as the
        # source does, or the mismatch goes on the audit record.
        try:
            final = authoritative_range(target_cluster, self.delta)
        except (SnapshotUnavailableError, NetworkError):
            return  # healing is idempotent; verify on the next step
        for payload in sorted(want.keys() | final.keys(), key=wrap):
            if want.get(payload, _MISSING) != final.get(payload, _MISSING):
                violations.append(
                    f"cutover mismatch for {payload!r}: source holds "
                    f"{want.get(payload, '<absent>')!r}, target holds "
                    f"{final.get(payload, '<absent>')!r}"
                )
        self.moved = want
        self.record.moved = len(want)
        directory.install_map(self.new_map)  # the epoch bump: reads flip
        self.phase = "drain"

    def _step_drain(self) -> None:
        directory = self.directory
        source_suite = directory.clusters[self.source].suite
        # A key absent already was drained by an earlier, retried step.
        wave = [("discard", key) for key in sorted(self.moved, key=wrap)]
        if not all(out.ok for out in source_suite.execute_batch(wave)):
            # Retry the range next step.  Nothing goes on the record: a
            # drain that finishes late is clean, and one that never
            # finishes is what ``audit_reshard``'s source-side check
            # exists to catch.
            return
        directory.reshard_log.append(self.record)
        directory.note_migrated(self.record)
        self.phase = "done"
        if directory.resharder is self:
            directory.resharder = None


# ---------------------------------------------------------------------------
# Automatic hot-shard splitting
# ---------------------------------------------------------------------------


class ReshardController:
    """Split hot shards automatically from live windowed routing rates.

    Watches the per-shard ``shard.routed`` rates through a
    :class:`~repro.obs.live.WindowedView`; when one shard's rate exceeds
    ``hot_factor`` times the mean of the others, it starts a
    :meth:`~repro.shard.sharded.ShardedDirectory.begin_split` at the hot
    shard's median stored key and then pumps the migration one step per
    :meth:`tick` — client traffic keeps flowing in between.
    """

    def __init__(
        self,
        directory: Any,
        *,
        hot_factor: float = 2.0,
        max_splits: int = 2,
        window: float = 60.0,
    ) -> None:
        from repro.obs.live import WindowedView

        if hot_factor <= 1.0:
            raise ConfigurationError(
                f"hot_factor must exceed 1.0: {hot_factor}"
            )
        self.directory = directory
        self.hot_factor = hot_factor
        self.max_splits = max_splits
        self.splits_done = 0
        self.view = WindowedView(
            directory.metrics, directory.clock.now, window=window
        )
        self.view.sample()

    def tick(self) -> str | None:
        """One control decision: step a live migration, or detect a hot
        shard and start one.  Returns ``"step"`` / ``"split"`` / None."""
        directory = self.directory
        resharder = directory.resharder
        if resharder is not None and not resharder.done:
            if resharder.step():
                # Migration complete: the routing just changed, so rates
                # observed before cutover would misattribute the moved
                # range's traffic to its old owner.  Start the hot-shard
                # comparison fresh from this instant.
                self.view.reset()
            return "step"
        if self.splits_done >= self.max_splits:
            return None
        self.view.sample()
        rates = self.view.rates()
        per = {
            i: rates.get(f"shard.routed.s{i}")
            for i in range(len(directory.clusters))
        }
        hot = max(per, key=lambda i: per[i])
        others = [rate for i, rate in per.items() if i != hot]
        mean = sum(others) / len(others) if others else 0.0
        if per[hot] <= 0.0 or per[hot] < self.hot_factor * mean:
            return None
        boundary = self.split_key(hot)
        if boundary is None:
            return None
        try:
            directory.begin_split(boundary)
        except ReproError:
            return None  # duplicate boundary, hash map, reshard in flight…
        self.splits_done += 1
        return "split"

    def finish(self, max_steps: int = 10_000) -> None:
        """Drive any in-flight migration to completion (end of a run)."""
        resharder = self.directory.resharder
        if resharder is not None and not resharder.done:
            resharder.run(max_steps)

    def split_key(self, shard_index: int) -> Any | None:
        """The median stored user key of a shard — the boundary that
        halves its keyset.  Peeks one up replica's store directly, a
        control-plane read like the auditor's."""
        cluster = self.directory.clusters[shard_index]
        suite = cluster.suite
        for name in suite._available():
            rep = cluster.representatives[name]
            keys = sorted(
                entry.key.payload for entry in rep.store.user_entries()
            )
            if len(keys) < 3:
                return None
            median = keys[len(keys) // 2]
            if not keys[0] < median:
                return None
            return median
        return None
