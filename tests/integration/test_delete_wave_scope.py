"""Every wave of up to two ops that deletes, from every state a 3-2-2
directory reaches over three keys.

The states are :func:`tests.scope.reachable`'s: breadth-first from the
empty directory, a step being one classic ``insert``, ``update`` or
``delete`` of one key under one of the three quorums of 3-2-2, and a
state every replica's tiling.  A state at most ``depth`` steps from the
empty directory is in scope.  Depth 2 already holds the corners a
wave's walk must get right: a ghost one member keeps (a key inserted on
one quorum and deleted on another), and a present entry one member
lacks.

From each state, every wave of one or two ops over the three keys that
holds a ``delete`` or ``discard`` runs through ``execute_batch`` under
read quorum {A, B}, and op by op through the sequential twin from the
same state.  Each such triple (state, wave, read quorum) must show what
:func:`tests.scope.check` asks of a case, and no fallback: the wave
committed as one transaction.

One read quorum stands for all three.  The reachable states are closed
under renaming the replicas A→B→C→A, and that renaming maps the run
from a state under {A, B} onto the run from the renamed state under
{B, C}, message for message; so each triple checked stands for three,
one under each read quorum.
``test_a_renamed_run_is_the_same_run`` holds the premise, for every
wave, on every depth-1 state and on every depth-2 state that holds a
ghost.

Under read quorum {A, B} no wave sends C anything, so on 3-2-2 the
scope never walks past a ghost or refills on the member outside its
read quorum.  ``test_3_3_2_ghosts_send_the_third_member_a_refill`` runs
every wave from the depth-2 3-3-2 states that hold a ghost, where the
read quorum is every member and C is written by no wave under order
ABC; a 3-3-2 CI sweep is still owed.

Each triple starts from its state by restoring every replica in both
clusters (:func:`tests.scope.restore`), so one pair of clusters serves
every triple.  Tier-1 checks every state to depth 2.  Run as a module
(``python -m tests.integration.test_delete_wave_scope [depth]``, depth
3 by default) it checks every state to ``depth``, prints how many
states and triples it checked, the three times as many they stand for
and how many histories ``check()`` accepted, and exits non-zero on any
failure, naming each failed triple by its state's place in
breadth-first order and its wave.
"""

from __future__ import annotations

import sys
import traceback

from repro.core.batch import _DELETES, BATCH_KINDS
from repro.core.keys import wrap
from tests import scope

KEYS = "bdf"
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


def sweep(states, stop_at_first=True):
    """Every wave from each of ``states`` under read quorum {A, B};
    returns ``(triples checked, failures)``."""
    checked, failures = 0, []
    with scope.build() as cluster, scope.build() as twin:
        for number, state in enumerate(states):
            for wave in WAVES:
                checked += 1
                try:
                    for side in (cluster, twin):
                        scope.restore(side, state)
                    assert not scope.check(cluster, twin, wave, KEYS)
                except Exception:
                    if stop_at_first:
                        raise
                    failures.append((number, wave))
                    traceback.print_exc()
    return checked, failures


def _rotate(state, turns):
    """``state`` with each replica's tiling on the member ``turns``
    steps on, A→B→C→A."""
    return state[-turns:] + state[:-turns]


def _corners(cluster):
    """``(ghost, missing)``: whether a member holds an entry its key's
    highest version says is gone, and whether a member lacks a present
    key's entry."""
    ghost = missing = False
    for key, (_, present, _) in scope.held(cluster, KEYS).items():
        held = [
            rep.contains(wrap(key)) for rep in cluster.representatives.values()
        ]
        ghost |= not present and any(held)
        missing |= present and not all(held)
    return ghost, missing


def test_a_renamed_run_is_the_same_run():
    """From every depth-1 state, and every depth-2 state that holds a
    ghost (the first depth where a walk must step past one), every wave
    under read quorum {A, B} runs as it does renamed
    A→B→C→A once or twice, from the renamed state under {B, C} or
    {C, A}: the same outcomes and versions, the same directory, the same
    delete-overhead table, the same replica tilings and the same
    messages, renamed back."""
    states = scope.reachable(2, KEYS)
    assert {_rotate(state, 1) for state in states} == set(states)
    shallow = set(scope.reachable(1, KEYS))
    with scope.build() as cluster:
        log = []
        scope.tap(cluster, log)
        for state in states:
            scope.restore(cluster, state)
            if state not in shallow and not _corners(cluster)[0]:
                continue
            for wave in WAVES:
                runs = []
                for turns, order in enumerate(scope.ORDERS):
                    scope.restore(cluster, _rotate(state, turns), order)
                    del log[:]
                    outcomes = cluster.suite.execute_batch(wave)
                    runs.append((
                        [(o.value, type(o.error), o.version)
                         for o in outcomes],
                        cluster.suite.authoritative_state(),
                        cluster.suite.delete_stats.as_table(),
                        _rotate(scope.state_of(cluster), -turns),
                        # Members renamed back (methods are lower case).
                        " ".join(log).translate(str.maketrans(order, "ABC")),
                    ))
                assert runs[1] == runs[0], (state, wave)
                assert runs[2] == runs[0], (state, wave)


def test_the_scope_holds_the_corners():
    """Tier-1's states reach a ghost and a missing copy."""
    corners = set()
    with scope.build() as cluster:
        for state in scope.reachable(2, KEYS):
            scope.restore(cluster, state)
            corners.add(_corners(cluster))
    assert any(ghost for ghost, _ in corners)
    assert any(missing for _, missing in corners)


def test_3_3_2_ghosts_send_the_third_member_a_refill():
    """On 3-3-2 a wave reads every member and, under order ABC, writes
    {A, B}, so a ghost C keeps is the wave's to step past.  From each of
    the nine depth-2 3-3-2 states that hold a ghost, every wave commits
    as one transaction and shows what :func:`tests.scope.check` asks,
    and some wave sends C a ``rep_neighbors_many``."""
    with scope.build("3-3-2") as cluster, scope.build("3-3-2") as twin:
        ghosts = []
        for state in scope.reachable(2, KEYS, "3-3-2"):
            scope.restore(cluster, state)
            if _corners(cluster)[0]:
                ghosts.append(state)
        assert len(ghosts) == 9
        log = []
        scope.tap(cluster, log)
        refills = 0
        for state in ghosts:
            for wave in WAVES:
                for side in (cluster, twin):
                    scope.restore(side, state)
                del log[:]
                assert not scope.check(cluster, twin, wave, KEYS), (state, wave)
                refills += "rep_neighbors_many@C" in log
    assert refills


def test_every_delete_wave_matches_the_twin():
    states = scope.reachable(2, KEYS)
    checked, _ = sweep(states)
    assert checked == len(states) * len(WAVES)


def main(argv) -> int:
    depth = int(argv[0]) if argv else 3
    states = scope.reachable(depth, KEYS)
    checked, failures = sweep(states, stop_at_first=False)
    for number, wave in failures:
        print("FAILED state", number, wave, file=sys.stderr)
    # check() runs the history last: every triple that passed is a
    # history it accepted.
    print(
        f"depth {depth}: {len(states)} states, {len(WAVES)} waves, read "
        f"quorum {{A, B}}: {checked} triples checked, standing for "
        f"{len(scope.ORDERS) * checked} under the {len(scope.ORDERS)} read "
        f"quorums; {len(failures)} failed; check() accepted "
        f"{checked - len(failures)} histories"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
