"""Live resharding: online migration of a key range between shard suites.

A :class:`Resharder` executes one :class:`~repro.shard.maps.ShardMapDelta`
— the range a :meth:`~repro.shard.maps.VersionedShardMap.split` or
``merge`` moved — against a running
:class:`~repro.shard.sharded.ShardedDirectory`, in four phases patterned
after :class:`~repro.repl.bootstrap.ReplicaJoin`:

* **COPY** — read the moving range's *authoritative* facts from the
  source suite (merging entry and covering-gap versions across a read
  quorum of replicas, exactly the weighted-voting read rule) and install
  the present keys into every target replica via ``rep_reconcile``.
  Ghosts — entries dominated by a covering gap elsewhere — are filtered
  here, so deleted keys are never resurrected on the target.  The same
  atomic step that installs the copy enables dual-writes, closing the
  window where a client op could land on the source only.
* **DUAL_WRITE** — client writes on moving keys apply to both suites
  (:meth:`mirror`); reads keep coming from the source.  The phase dwells
  a configurable number of steps so live traffic demonstrably overlaps
  the migration.
* **CUTOVER** — compare the two suites' authoritative views of the
  range, heal any divergence through ordinary quorum-paying target ops,
  verify, then install the successor map: the epoch bumps and reads
  flip to the target.
* **DRAIN** — delete the moved keys from the source through the paper's
  own delete algorithm (suite-level, so gap versioning stays correct on
  every source replica), then retire into the directory's
  ``reshard_log`` as a :class:`ReshardRecord` for the auditor.

The :class:`ReshardController` closes the loop with observability: it
watches per-shard windowed ``shard.routed`` rates through a
:class:`~repro.obs.live.WindowedView` and splits a hot range at its
median stored key automatically — the elasticity E22 showed range maps
need under :class:`~repro.sim.workload.SkewedKeyWorkload`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

from repro.core.batch import _single
from repro.core.errors import (
    ConfigurationError,
    NetworkError,
    QuorumUnavailableError,
    ReproError,
    SnapshotUnavailableError,
)
from repro.core.keys import HIGH, BoundedKey, wrap
from repro.repl.bootstrap import admin_call

_MISSING = object()


# ---------------------------------------------------------------------------
# Authoritative range facts
# ---------------------------------------------------------------------------


def _range_bounds(low: Any, high: Any | None) -> tuple[BoundedKey, BoundedKey]:
    """Wrapped ``[low, high)`` bounds; ``high=None`` runs to the sentinel."""
    return wrap(low), (HIGH if high is None else wrap(high))


def _quorum_members(cluster: Any, kind: str) -> list[str]:
    """Up, voting replicas of ``cluster`` — enough votes for a read quorum.

    Raises :class:`QuorumUnavailableError` when the reachable votes fall
    short; the caller retries on a later step.
    """
    suite = cluster.suite
    membership = suite.membership
    names = [n for n in suite._available() if membership.can_vote(n)]
    votes = sum(suite.config.votes[n] for n in names)
    if votes < suite.config.read_quorum:
        raise QuorumUnavailableError(suite.config.read_quorum, votes, kind=kind)
    return names


def authoritative_range_facts(
    cluster: Any, low_k: BoundedKey, high_k: BoundedKey
) -> dict[Any, tuple[int, bool, Any]]:
    """Merged authoritative facts for ``[low_k, high_k)`` across a quorum.

    Exports a snapshot from every up voting replica over the suite's RPC
    endpoint (paying latency like any lifecycle traffic) and merges per
    key by maximum version — entry versions and covering-gap versions
    compete, exactly as in the paper's read.  Returns
    ``{payload: (version, present, value)}`` for every user key in the
    range that *any* replica stores; ``present`` is the verdict of the
    max-version fact, so a dominating gap marks the key as a ghost.

    Raises :class:`SnapshotUnavailableError` / :class:`NetworkError`
    when a replica cannot export right now (transient; retry later).
    """
    suite = cluster.suite
    indexed: list[tuple[list[BoundedKey], Any]] = []
    for name in _quorum_members(cluster, "reshard read"):
        snapshot, _lsn = admin_call(suite, name, "rep_export_snapshot")
        indexed.append(([entry.key for entry in snapshot.entries], snapshot))
    candidates: set[BoundedKey] = set()
    for keys, _snapshot in indexed:
        lo = bisect_left(keys, low_k)
        hi = bisect_left(keys, high_k)
        candidates.update(k for k in keys[lo:hi] if not k.is_sentinel)
    facts: dict[Any, tuple[int, bool, Any]] = {}
    for key in candidates:
        best_version = -1
        best_present = False
        best_value = None
        for keys, snapshot in indexed:
            idx = bisect_left(keys, key)
            if idx < len(keys) and keys[idx] == key:
                version = snapshot.entries[idx].version
                present, value = True, snapshot.entries[idx].value
            else:
                # Covering gap: between entries[idx-1] and entries[idx];
                # idx >= 1 always because LOW sorts below any user key.
                version = snapshot.gap_versions[idx - 1]
                present, value = False, None
            if version > best_version:
                best_version, best_present, best_value = (
                    version,
                    present,
                    value,
                )
        facts[key.payload] = (best_version, best_present, best_value)
    return facts


# ---------------------------------------------------------------------------
# The migration record and state machine
# ---------------------------------------------------------------------------


@dataclass
class ReshardRecord:
    """The audit trail of one completed range migration."""

    epoch: int
    kind: str
    source: int
    target: int
    low: Any
    high: Any | None
    #: ``payload -> version`` of every present key at copy time.
    copied: dict[Any, int] = field(default_factory=dict)
    #: Authoritative keys handed over at cutover.
    moved: int = 0
    mirrored: int = 0
    mirror_failures: int = 0
    violations: list[str] = field(default_factory=list)
    steps: int = 0

    def summary(self) -> dict[str, Any]:
        return {
            "epoch": self.epoch,
            "kind": self.kind,
            "source": self.source,
            "target": self.target,
            "low": self.low,
            "high": self.high,
            "copied": len(self.copied),
            "moved": self.moved,
            "mirrored": self.mirrored,
            "mirror_failures": self.mirror_failures,
            "violations": len(self.violations),
            "steps": self.steps,
        }


class Resharder:
    """Phase-driven migration of one key range between shard suites.

    Construct via :meth:`ShardedDirectory.begin_split` /
    ``begin_merge``, then pump :meth:`step` (or :meth:`run`) with client
    traffic interleaved between steps — that interleaving is the point:
    no phase blocks the directory.  Phases advance
    ``copy -> dual_write -> cutover -> drain -> done``; :meth:`abort`
    exits cleanly from any phase before cutover installs the new epoch.
    """

    PHASES = ("copy", "dual_write", "cutover", "drain", "done", "aborted")

    def __init__(
        self, directory: Any, new_map: Any, *, dwell_steps: int = 1
    ) -> None:
        if new_map.delta is None:
            raise ConfigurationError(
                "successor map carries no delta; derive it with "
                "split()/merge() on the current map"
            )
        self.directory = directory
        self.new_map = new_map
        self.delta = new_map.delta
        self.low = self.delta.low
        self.high = self.delta.high
        self.phase = "copy"
        #: True while client writes on moving keys must mirror to the target.
        self.dual_write = False
        self.dwell = max(0, dwell_steps)
        self.copied: dict[Any, int] = {}
        #: Authoritative ``{payload: value}`` of the range at cutover.
        self.moved: dict[Any, Any] = {}
        self.mirrored = 0
        self.mirror_failures = 0
        self.violations: list[str] = []
        self.steps = 0

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

    def covers(self, key: Any) -> bool:
        """Whether ``key`` lies in the moving range."""
        return self.delta.covers(key)

    def status(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "epoch": self.new_map.epoch,
            "kind": self.delta.kind,
            "source": self.source,
            "target": self.target,
            "low": self.low,
            "high": self.high,
            "dual_write": self.dual_write,
            "copied": len(self.copied),
            "mirrored": self.mirrored,
            "steps": self.steps,
        }

    # -- driving ------------------------------------------------------------

    def step(self) -> bool:
        """Run one bounded slice of migration work; True when finished."""
        if self.done:
            return True
        self.steps += 1
        if self.phase == "copy":
            self._step_copy()
        elif self.phase == "dual_write":
            self._step_dwell()
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
            f"reshard of [{self.low!r}, {self.high!r}) did not finish "
            f"within {max_steps} steps (stuck in {self.phase})"
        )

    def abort(self) -> None:
        """Stop cleanly without installing the successor epoch.

        Dual-writes stop immediately; data already copied to a target
        that was never routed to is unreachable and harmless.  Illegal
        after cutover: the epoch is installed and only DRAIN remains.
        """
        if self.done:
            return
        if self.phase == "drain":
            raise ConfigurationError(
                "cannot abort after cutover: the new epoch is installed; "
                "let DRAIN finish"
            )
        self.dual_write = False
        self.phase = "aborted"
        if self.directory.resharder is self:
            self.directory.resharder = None

    # -- the dual-write hook ------------------------------------------------

    def mirror(self, kind: str, key: Any, value: Any = None) -> None:
        """Forward one successful client write to the target suite.

        Lenient by design: failures are swallowed and counted, never
        client-visible, because CUTOVER's healing pass re-derives any
        dropped mirror from the source's authoritative state.
        """
        if not self.dual_write:
            return
        target_suite = self.directory.clusters[self.target].suite
        try:
            # The lenient form of either write: the target may or may
            # not hold the key yet.
            lenient = "discard" if kind == "delete" else "upsert"
            _single(target_suite, lenient, key, value)
            self.mirrored += 1
        except ReproError:
            self.mirror_failures += 1

    # -- phases -------------------------------------------------------------

    def _step_copy(self) -> None:
        directory = self.directory
        if self.target == len(directory.clusters):
            directory.add_shard()
        source_cluster = directory.clusters[self.source]
        target_cluster = directory.clusters[self.target]
        low_k, high_k = _range_bounds(self.low, self.high)
        try:
            facts = authoritative_range_facts(source_cluster, low_k, high_k)
            pieces = [
                ("entry", wrap(payload), version, value)
                for payload, (version, present, value) in sorted(
                    facts.items(), key=lambda item: wrap(item[0])
                )
                if present
            ]
            if pieces:
                suite = target_cluster.suite
                for name in _quorum_members(target_cluster, "reshard copy"):
                    admin_call(
                        suite,
                        name,
                        "rep_reconcile",
                        pieces,
                        payload_items=max(1, len(pieces)),
                    )
        except (SnapshotUnavailableError, NetworkError):
            return  # a replica is busy or unreachable; retry next step
        self.copied = {
            payload: version
            for payload, (version, present, _value) in facts.items()
            if present
        }
        # Same atomic step: the copy is installed and mirroring starts
        # before any client op can run, so nothing lands source-only.
        self.dual_write = True
        self.phase = "dual_write"

    def _step_dwell(self) -> None:
        self.dwell -= 1
        if self.dwell <= 0:
            self.phase = "cutover"

    def _step_cutover(self) -> None:
        directory = self.directory
        source_cluster = directory.clusters[self.source]
        target_cluster = directory.clusters[self.target]
        target_suite = target_cluster.suite
        low_k, high_k = _range_bounds(self.low, self.high)
        try:
            source_facts = authoritative_range_facts(
                source_cluster, low_k, high_k
            )
            target_facts = authoritative_range_facts(
                target_cluster, low_k, high_k
            )
        except (SnapshotUnavailableError, NetworkError):
            return
        # Heal: a mirror the dual-write dropped shows up as divergence
        # between the two authoritative views; replay it through the
        # target *suite* (quorum-paying, version-monotone) pre-flip.
        for payload, (_v, present, value) in sorted(
            source_facts.items(), key=lambda item: wrap(item[0])
        ):
            t = target_facts.get(payload)
            t_present = t is not None and t[1]
            t_value = t[2] if t is not None else None
            try:
                if present and (not t_present or t_value != value):
                    _single(target_suite, "upsert", payload, value)
                elif not present and t_present:
                    _single(target_suite, "discard", payload)
            except ReproError as exc:
                self.violations.append(
                    f"cutover heal failed for {payload!r}: {exc}"
                )
        for payload, (_v, present, _value) in sorted(
            target_facts.items(), key=lambda item: wrap(item[0])
        ):
            if present and payload not in source_facts:
                try:
                    _single(target_suite, "discard", payload)
                except ReproError as exc:
                    self.violations.append(
                        f"cutover heal failed for {payload!r}: {exc}"
                    )
        # Verify: the healed target must answer the range exactly as the
        # source does, or the mismatch goes on the audit record.
        try:
            final = authoritative_range_facts(target_cluster, low_k, high_k)
        except (SnapshotUnavailableError, NetworkError):
            return  # healing is idempotent; verify on the next step
        want = {
            p: value
            for p, (_v, present, value) in source_facts.items()
            if present
        }
        got = {
            p: value for p, (_v, present, value) in final.items() if present
        }
        for payload in sorted(set(want) | set(got), key=lambda p: wrap(p)):
            if want.get(payload, _MISSING) != got.get(payload, _MISSING):
                self.violations.append(
                    f"cutover mismatch for {payload!r}: source holds "
                    f"{want.get(payload, '<absent>')!r}, target holds "
                    f"{got.get(payload, '<absent>')!r}"
                )
        self.moved = want
        directory.install_map(self.new_map)  # the epoch bump: reads flip
        self.dual_write = False
        self.phase = "drain"

    def _step_drain(self) -> None:
        source_suite = self.directory.clusters[self.source].suite
        for payload in sorted(self.moved, key=lambda p: wrap(p)):
            try:
                # Absent already: drained by an earlier, retried step.
                _single(source_suite, "discard", payload)
            except ReproError as exc:
                self.violations.append(f"drain failed for {payload!r}: {exc}")
                return  # retry the remaining range next step
        self._finish()

    def _finish(self) -> None:
        directory = self.directory
        record = ReshardRecord(
            epoch=self.new_map.epoch,
            kind=self.delta.kind,
            source=self.source,
            target=self.target,
            low=self.low,
            high=self.high,
            copied=dict(self.copied),
            moved=len(self.moved),
            mirrored=self.mirrored,
            mirror_failures=self.mirror_failures,
            violations=list(self.violations),
            steps=self.steps,
        )
        directory.reshard_log.append(record)
        directory.note_migrated(record)
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
        min_rate: float = 0.0,
        dwell_steps: int = 1,
    ) -> None:
        from repro.obs.live import WindowedView

        if hot_factor <= 1.0:
            raise ConfigurationError(
                f"hot_factor must exceed 1.0: {hot_factor}"
            )
        self.directory = directory
        self.hot_factor = hot_factor
        self.max_splits = max_splits
        self.min_rate = min_rate
        self.dwell_steps = dwell_steps
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
        threshold = max(self.min_rate, self.hot_factor * mean)
        if per[hot] <= 0.0 or per[hot] < threshold:
            return None
        boundary = self.split_key(hot)
        if boundary is None:
            return None
        try:
            directory.begin_split(boundary, dwell_steps=self.dwell_steps)
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
