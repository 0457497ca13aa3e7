"""Every wave of up to two ops that deletes, from every state a 3-2-2
directory reaches over three keys, under every read quorum.

The states are generated breadth-first from the empty directory.  A
step is one classic ``insert``, ``update`` or ``delete`` of one key,
under one of the three quorums of 3-2-2 (a preferred-quorum order, as
test_batch's ``_drive`` takes it), and a state is every replica's
tiling: its entries and gap versions.  A state at most ``depth`` steps
from the empty directory is in scope.  Depth 2 already holds the
corners a wave's walk must get right: a ghost one member keeps (a key
inserted on one quorum and deleted on another), and a present entry one
member lacks.

From each state, every wave of one or two ops over the three keys that
holds a ``delete`` or ``discard`` runs through ``execute_batch`` under
each read quorum, and op by op through the sequential twin (test_batch's
``_fallback``) from the same state on the same quorums.  Each (state,
wave, read quorum) triple must show:

* the twin's outcomes, ``authoritative_state()``, and highest version
  behind every key and in every gap, on sound stores
  (test_batch's ``_assert_same_directory``);
* no fallback: the wave committed as one transaction;
* no lock, undo record or ``_prepared`` vote left on any replica;
* the history — the wave, then a read of every key — is linearizable
  per key (:meth:`repro.obs.history.History.check`).

Each triple starts from its state by restoring every replica's store in
both clusters, so one pair of clusters serves every triple.

Tier-1 checks depth 1 whole and a third of depth 2 (the states first
reached by a step on quorum {B, C}).  Run as a module
(``python -m tests.integration.test_delete_wave_scope [depth]``, depth
3 by default) it checks every state to ``depth``, prints how many
states and triples it checked and how many histories ``check()``
accepted, and exits non-zero on any failure.
"""

from __future__ import annotations

import sys
import traceback

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import _DELETES, BATCH_KINDS, BatchOp
from repro.core.keys import wrap
from repro.core.quorum import PreferredQuorumPolicy
from repro.obs.history import History
from tests.unit.test_batch import (
    _assert_same_directory,
    _assert_same_outcomes,
    _drive,
    _fallback,
    _held,
)

KEYS = "bdf"
#: Preferred-quorum orders: read and write quorum {A, B}, {B, C}, {C, A}.
ORDERS = ("ABC", "BCA", "CAB")
#: The steps that change a replica: ``upsert`` is one of the first two,
#: ``discard`` the last, and a classic ``lookup`` repairs nothing.
STEPS = [(kind, key) for kind in ("insert", "update", "delete") for key in KEYS]
OPS = [(kind, key) for kind in BATCH_KINDS for key in KEYS]
#: Every wave of one or two ops that holds a delete; a write's value is
#: its place in the wave, so the fold's order shows in what is read.
WAVES = [
    [(kind, key, place) for place, (kind, key) in enumerate(ops, 1)]
    for ops in (
        [[op] for op in OPS if op[0] in _DELETES]
        + [
            [first, second]
            for first in OPS
            for second in OPS
            if first[0] in _DELETES or second[0] in _DELETES
        ]
    )
]


def _cluster():
    return DirectoryCluster.create(
        ClusterSpec(
            config="3-2-2", seed=3,
            quorum_policy=PreferredQuorumPolicy(list(ORDERS[0])),
        )
    )


def _state(cluster):
    """Every replica's tiling, in member order."""
    return tuple(
        rep.store.snapshot() for rep in cluster.representatives.values()
    )


def _restore(cluster, state):
    for rep, snapshot in zip(cluster.representatives.values(), state):
        rep.store.restore(snapshot)


def reachable(depth):
    """``{state: the order of the step that first reached it}``,
    breadth-first from the empty directory (``None`` for it)."""
    with _cluster() as cluster:
        found = {_state(cluster): None}
        frontier = list(found)
        for _ in range(depth):
            reached = []
            for state in frontier:
                for order in ORDERS:
                    for kind, key in STEPS:
                        _restore(cluster, state)
                        _drive(cluster, [("prefer", order), (kind, key, 0)])
                        after = _state(cluster)
                        if after not in found:
                            found[after] = order
                            reached.append(after)
            frontier = reached
    return found


def check(cluster, twin, state, wave, order):
    """One triple; raises on any failed check."""
    for side in (cluster, twin):
        _restore(side, state)
        side.suite.quorum_policy.preference = list(order)
    fallbacks = cluster.suite._batch_fallbacks.value
    history = History(_held(cluster, KEYS))
    batched = history.run("client", cluster.suite.execute_batch, wave)
    sequential = [_fallback(twin.suite, BatchOp(*op)) for op in wave]
    _assert_same_outcomes(batched, sequential)
    _assert_same_directory(cluster, twin, KEYS)
    assert cluster.suite._batch_fallbacks.value == fallbacks
    for rep in cluster.representatives.values():
        assert rep.locks.is_idle(), rep.name
        assert not (rep._undo or rep._prepared), rep.name
    history.run("reader", cluster.suite.execute_batch,
                [("lookup", key) for key in KEYS])
    history.check()


def sweep(states, stop_at_first=True):
    """Every wave under every read quorum from each of ``states``;
    returns ``(triples checked, failures)``."""
    checked, failures = 0, []
    with _cluster() as cluster, _cluster() as twin:
        for state in states:
            for wave in WAVES:
                for order in ORDERS:
                    checked += 1
                    try:
                        check(cluster, twin, state, wave, order)
                    except Exception:
                        if stop_at_first:
                            raise
                        failures.append((state, wave, order))
                        traceback.print_exc()
    return checked, failures


def _tier_one():
    """Depth 1 whole, and the depth-2 states first reached by a step
    on {B, C}: a third of depth 2, so tier-1 stays short."""
    shallow = reachable(1)
    return [
        state for state, order in reachable(2).items()
        if state in shallow or order == "BCA"
    ]


def _corners(state):
    """``(ghost, missing)``: whether some member holds an entry its key's
    highest version says is gone, and whether some member lacks a
    present key's entry."""
    ghost = missing = False
    for key in KEYS:
        replies = [snapshot.lookup(wrap(key)) for snapshot in state]
        best = None
        for reply in replies:
            if reply.beats(best):
                best = reply
        held = [reply.present for reply in replies]
        ghost |= not best.present and any(held)
        missing |= best.present and not all(held)
    return ghost, missing


def test_the_scope_holds_the_corners():
    """The tier-1 slice reaches a ghost and a missing copy."""
    corners = [_corners(state) for state in _tier_one()]
    assert any(ghost for ghost, _ in corners)
    assert any(missing for _, missing in corners)


def test_every_delete_wave_matches_the_twin():
    states = _tier_one()
    checked, _ = sweep(states)
    assert checked == len(states) * len(WAVES) * len(ORDERS)


def main(argv) -> int:
    depth = int(argv[0]) if argv else 3
    states = reachable(depth)
    checked, failures = sweep(states, stop_at_first=False)
    for state, wave, order in failures:
        print("FAILED", order, wave, file=sys.stderr)
    # check() runs last in each triple: every triple that passed is a
    # history it accepted.
    print(
        f"depth {depth}: {len(states)} states, {len(WAVES)} waves, "
        f"{len(ORDERS)} read quorums: {checked} triples checked, "
        f"{len(failures)} failed; check() accepted "
        f"{checked - len(failures)} histories"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
