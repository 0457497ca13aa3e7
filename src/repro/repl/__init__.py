"""Replica lifecycle: membership states, online join, anti-entropy.

The paper's suite is static; this package is the operational layer that
lets one replica leave and rejoin a *running* suite without violating
the quorum-intersection invariant: a three-state membership machine
(:mod:`repro.repl.lifecycle`), an incremental snapshot + log-shipping
join (:mod:`repro.repl.bootstrap`), and a background pairwise
reconciliation sweep (:mod:`repro.repl.antientropy`).
"""

from repro.repl.antientropy import AntiEntropySweeper
from repro.repl.bootstrap import (
    ReplicaJoin,
    divergent_pieces,
    wipe_replica,
)
from repro.repl.lifecycle import ReplicaState, SuiteMembership

__all__ = [
    "AntiEntropySweeper",
    "ReplicaJoin",
    "ReplicaState",
    "SuiteMembership",
    "divergent_pieces",
    "wipe_replica",
]
