"""Background anti-entropy: pairwise tiling comparison and repair.

Read repair (the suite's ``read_repair`` option) only heals keys that
clients happen to read; a ghost on a representative nobody reads again
survives forever.  This sweeper turns convergence into a guarantee: it
periodically picks a pair of up, voting replicas, compares their
entry/gap tilings by digest, and when they diverge ships
:func:`~repro.repl.bootstrap.divergent_pieces` in *both* directions.

Why this converges (and why ghosts die):

* Pieces only ever flow where they are strictly newer, and the
  representative re-checks every piece under its monotone guards — so a
  sweep can only move a replica toward the authoritative state, never
  away from it, even racing live writes.
* A ghost is an entry dominated by some gap version; the replicas that
  executed the deleting coalesce (a full write quorum) hold that gap, so
  some pair (ghost-holder, gap-holder) always differs.  Shipping the gap
  removes the ghost on the stale side; shipping the ghost entry the
  other way is impossible (its version never beats the covering gap).
  Sweeping all pairs therefore drives the suite-wide ghost count to
  zero without a single client read touching the affected keys.

Joining replicas are skipped — :class:`~repro.repl.bootstrap.ReplicaJoin`
owns their repair until cutover.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any

from repro.core.errors import NetworkError, SnapshotUnavailableError
from repro.repl.bootstrap import admin_call, reconcile_replica


class AntiEntropySweeper:
    """Round-robin pairwise reconciliation over one cluster.

    ``step()`` sweeps the next pair in the rotation (the background,
    amortized mode the simulation driver uses); ``sweep_all()`` sweeps
    every pair once (tests and admin verbs that want convergence *now*).
    Both return the number of repairs applied.
    """

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster
        self.suite = cluster.suite
        metrics = cluster.metrics
        self._sweeps = metrics.counter("repl.antientropy.sweeps")
        self._divergent = metrics.counter("repl.antientropy.divergent")
        self._repairs = metrics.counter("repl.reconcile.repairs")
        self._rotation = 0

    # -- pair selection ----------------------------------------------------

    def _pairs(self) -> list[tuple[str, str]]:
        """Sweepable pairs: both members up, reachable, and voting."""
        return list(combinations(sorted(self.suite._eligible()), 2))

    # -- sweeping ----------------------------------------------------------

    def step(self) -> int:
        """Sweep the next pair in rotation; returns repairs applied."""
        pairs = self._pairs()
        if not pairs:
            return 0
        pair = pairs[self._rotation % len(pairs)]
        self._rotation += 1
        return self._sweep_pair(*pair)

    def sweep_all(self, rounds: int = 1) -> int:
        """Sweep every current pair ``rounds`` times; returns repairs.

        One round converges any single divergence between two replicas;
        multi-replica divergence (facts that must relay through an
        intermediate) can need a second.
        """
        repaired = 0
        for _ in range(rounds):
            for pair in self._pairs():
                repaired += self._sweep_pair(*pair)
        return repaired

    def _sweep_pair(self, left: str, right: str) -> int:
        """Compare digests; on mismatch, repair both directions."""
        suite = self.suite
        self._sweeps.inc()
        try:
            left_digest = admin_call(suite, left, "rep_tiling_digest")
            right_digest = admin_call(suite, right, "rep_tiling_digest")
            if left_digest == right_digest:
                return 0
            self._divergent.inc()
            left_snap, _ = admin_call(suite, left, "rep_export_snapshot")
            right_snap, _ = admin_call(suite, right, "rep_export_snapshot")
            return reconcile_replica(
                suite, left_snap, right_snap, right, self._repairs
            ) + reconcile_replica(
                suite, right_snap, left_snap, left, self._repairs
            )
        except (SnapshotUnavailableError, NetworkError):
            return 0  # busy or unreachable; the rotation comes back around
