"""Replica lifecycle: membership states, online join, anti-entropy.

The paper's suite is static; this package is the operational layer that
lets one replica leave and rejoin a *running* suite without violating
the quorum-intersection invariant: a two-state membership machine
(:mod:`repro.repl.lifecycle`), a join that reconciles the replica
against every up peer before it votes again
(:mod:`repro.repl.bootstrap`), and a background pairwise reconciliation
sweep (:mod:`repro.repl.antientropy`).  The join and the sweep are one
primitive: export, diff, ship what is newer.
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
