"""Replica membership states: who votes, who merely receives writes.

The paper fixes the representative suite at creation time; this module
is the small piece of bookkeeping that lets a suite change a member's
*role* at runtime without changing its vote assignment.  A replica that
is bootstrapping (new, or back from a crash that also lost its log)
moves through a two-state machine:

* ``UP`` — full member: its votes count toward read and write quorums.
* ``JOINING`` — being refilled from its peers.  It receives every write
  (so no committed operation can miss it) but contributes no votes: its
  stale store must not supply read verdicts, and counting its vote
  toward W would let a write "succeed" on data the replica is about to
  overwrite.

The two edges: ``UP → JOINING`` (a wiped or brand-new replica starts
bootstrapping) and ``JOINING → UP`` (reconciled against every up voting
peer — the cutover).

The suite consults :meth:`SuiteMembership.all_up` before filtering
anything, so the no-join-in-progress fast path stays bit-identical to
the pre-lifecycle code (pinned by the transport/fan-out baselines).
"""

from __future__ import annotations

import enum
from typing import Iterable

from repro.core.errors import ConfigurationError


class ReplicaState(enum.Enum):
    """Membership role of one representative within its suite."""

    UP = "up"
    JOINING = "joining"


class SuiteMembership:
    """Per-representative lifecycle states for one directory suite.

    Tracks *roles*, not liveness: a crashed replica keeps its membership
    state (the suite's availability filter already excludes down nodes);
    what changes here is whether an up replica's votes count.
    """

    def __init__(self, names: Iterable[str]) -> None:
        self._states: dict[str, ReplicaState] = {
            name: ReplicaState.UP for name in names
        }
        if not self._states:
            raise ConfigurationError("membership needs at least one replica")
        #: Cheap flag the suite checks on every quorum collection; True
        #: whenever no join is in progress (the bit-identical fast path).
        self.all_up = True

    # -- transitions -------------------------------------------------------

    def state(self, name: str) -> ReplicaState:
        """Current lifecycle state of ``name``."""
        return self._states[name]

    def set_state(self, name: str, state: ReplicaState) -> None:
        """Move member ``name`` to ``state``."""
        if name not in self._states:
            raise KeyError(name)
        self._states[name] = state
        self.all_up = all(
            s is ReplicaState.UP for s in self._states.values()
        )

    # -- queries the suite makes on the hot path ---------------------------

    def can_vote(self, name: str) -> bool:
        """True when ``name``'s votes may count toward quorums."""
        return self._states[name] is ReplicaState.UP

    def voting(self, names: Iterable[str]) -> list[str]:
        """Filter ``names`` down to full (voting) members."""
        return [n for n in names if self.can_vote(n)]

    def non_voting(self) -> list[str]:
        """Members currently bootstrapping (write recipients, no votes)."""
        return [n for n, s in self._states.items() if s is not ReplicaState.UP]

    def counts(self) -> dict[str, int]:
        """State census for the ``repl.membership`` metrics provider."""
        out = {state.value: 0 for state in ReplicaState}
        for state in self._states.values():
            out[state.value] += 1
        return out

    def __repr__(self) -> str:
        states = ", ".join(
            f"{n}={s.value}" for n, s in sorted(self._states.items())
        )
        return f"SuiteMembership({states})"
