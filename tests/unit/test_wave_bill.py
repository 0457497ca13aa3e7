"""The exact message bill of a wave of one, for every kind and quorum pair.

A wave costs its rounds plus what is left of two-phase commit once the
last write has carried each writer's vote and a read of one key has been
released with its reply.  In closed form (:func:`bill`), with read quorum
``Rq`` and write quorum ``Wq``:

* a ``lookup`` is its read round, released: ``R``;
* an op the fold refuses (an ``insert`` of a present key, an ``update``
  or ``delete`` of an absent one) reads, then asks each member it read
  for a read-only vote: ``R + R``;
* a write reads, installs with the vote (``W``), asks ``prepare`` of
  the members it only read (``|Rq - Wq|``) and commits on the ones it
  wrote (``W``);
* a delete of a present key does too, with Figure 13's walk in place of
  the install: a neighbour round (``R``), whose replies also judge each
  candidate, and the vote-carrying coalesce (``W``), which carries the
  boundary copies.  A ghost adds a refill message to each read-quorum
  member whose stream it ran dry, and a missing copy adds nothing.

Every kind of :data:`~repro.core.batch.BATCH_KINDS`, with its key
present and absent, over all nine (read, write) quorum pairs of 3-2-2,
on a directory every replica holds in full.  Beside the count, each
member's 2PC messages are held to the rule that produced it: ``prepare``
only to a member that has not voted, ``commit`` only to one that wrote,
nothing at all after a released read.

Then the delete walk's own terms, each against the sequential twin: a
ghost only the member outside the write quorum holds, a bound one
write-quorum member lacks, two independent deletes, and a dependent
one, which flushes the wave's writes and walks again.  After a wave's
first ``rep_neighbors_many`` nothing is looked up or installed by a
message of its own, but for that flush.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.batch import BATCH_KINDS, _DELETES
from repro.core.keys import wrap
from tests.conftest import scripted_insert
from tests.unit.test_batch import (
    _assert_same_wave,
    _SplitQuorums,
    _spy,
    _twin,
)
from tests.unit.test_fanout import _tap

QUORUMS = ["AB", "AC", "BC"]
#: Keys every replica holds; ``d`` is the present key, ``c`` the absent
#: one, and each has real neighbours on every replica.
KEYS = "bdf"


def writes(kind: str, present: bool) -> bool:
    """Whether a wave of one ``kind`` op writes anything."""
    if kind == "lookup":
        return False
    if kind in _DELETES or kind == "update":
        return present
    return kind == "upsert" or not present


def bill(
    kind: str, present: bool, read: str, write: str, refills: int = 0
) -> int:
    """Messages a wave of one costs on fixed quorums ``read``/``write``,
    its walk stepping past ghosts on ``refills`` more messages."""
    r, w = len(read), len(write)
    if kind == "lookup":
        return r
    if not writes(kind, present):
        return r + r
    work = r + refills + w if kind in _DELETES else w
    return r + work + len(set(read) - set(write)) + w


def twopc(kind: str, present: bool, read: str, write: str) -> dict:
    """Each member's 2PC messages, in order."""
    log = {name: [] for name in "ABC"}
    if kind == "lookup":
        return log
    wrote = writes(kind, present)
    for name in read:
        if not (wrote and name in write):
            log[name].append("prepare")
    if wrote:
        for name in write:
            log[name].append("commit")
    return log


CASES = [
    (kind, present, read, write)
    for kind, present in itertools.product(BATCH_KINDS, (True, False))
    for read, write in itertools.product(QUORUMS, QUORUMS)
]


@pytest.mark.parametrize(
    "kind,present,read,write",
    CASES,
    ids=[
        f"{kind}-{'present' if present else 'absent'}-r{read}-w{write}"
        for kind, present, read, write in CASES
    ],
)
def test_a_wave_of_one_pays_its_bill(kind, present, read, write):
    with _twin(quorum_policy=_SplitQuorums(read, write)) as cluster:
        for key in KEYS:
            scripted_insert(cluster, "ABC", key, 1, key)
        log = _spy(cluster)
        net = cluster.network.stats
        before = net.rpc_rounds
        (outcome,) = cluster.suite.execute_batch(
            [(kind, "d" if present else "c", 1)]
        )
        assert net.rpc_rounds - before == bill(kind, present, read, write)
        assert log == twopc(kind, present, read, write)
        assert outcome.ok == (
            kind in ("lookup", "upsert", "discard") or writes(kind, present)
        )
        assert cluster.suite._batch_fallbacks.value == 0
        for rep in cluster.representatives.values():
            assert rep.locks.is_idle(), rep.name
            assert not (rep._undo or rep._seen_txns or rep._prepared), rep.name


# -- the walk's own terms -----------------------------------------------------

#: Keys every replica holds before each case below.
WALK_KEYS = "bdfhj"
#: What a walk may send after its first ``rep_neighbors_many``.
WALK = {"rep_neighbors_many", "rep_coalesce_many", "prepare", "commit"}


def _walk_case(read, write, wave, plant=None, **spec):
    """Run ``wave`` over :data:`WALK_KEYS` on fixed quorums, after
    ``plant(cluster)`` (both sides), against the sequential twin.
    Returns the cluster's messages and, in order, each one's
    ``method@member``."""
    sides = [
        _twin(quorum_policy=_SplitQuorums(read, write), **spec)
        for _ in range(2)
    ]
    with sides[0] as cluster, sides[1] as twin:
        for side in sides:
            for key in WALK_KEYS:
                scripted_insert(side, "ABC", key, 1, key)
            if plant is not None:
                plant(side)
        log = []
        _tap(cluster, log)
        before = cluster.network.stats.rpc_rounds
        batched = cluster.suite.execute_batch(wave)
        spent = cluster.network.stats.rpc_rounds - before
        _assert_same_wave(
            cluster, twin, batched, wave,
            [("insert", key) for key in WALK_KEYS],
        )
        for rep in cluster.representatives.values():
            assert rep.locks.is_idle(), rep.name
            assert not (rep._undo or rep._seen_txns or rep._prepared), rep.name
        return spent, log, cluster.suite.delete_stats


def _after_the_walk_starts(log):
    """The methods sent from the wave's first ``rep_neighbors_many`` on."""
    methods = [row.split("@")[0] for row in log]
    return methods[methods.index("rep_neighbors_many"):]


@pytest.mark.parametrize("batch_size", [1, 3])
def test_a_ghost_outside_the_write_quorum_costs_a_refill_to_its_holder(
    batch_size,
):
    """``e`` is deleted on B and C alone, so A — read, never written —
    keeps it as a ghost next to ``d``.  Judged from the replies in hand
    (B's gap outranks A's entry), it is stepped past: at one result a
    message A's stream runs dry and is refilled, one message to A
    alone; at three A sent the next neighbour already."""

    def plant(side):
        scripted_insert(side, "ABC", "e", 1, "e")
        side.suite.quorum_policy.members["read"] = ["B", "C"]
        side.suite.delete("e")
        side.suite.quorum_policy.members["read"] = ["A", "B"]
        assert side.representatives["A"].contains(wrap("e"))

    refills = 1 if batch_size == 1 else 0
    spent, log, _ = _walk_case(
        "AB", "BC", [("delete", "d")], plant, neighbor_batch_size=batch_size
    )
    assert spent == bill("delete", True, "AB", "BC", refills)
    assert log.count("rep_neighbors_many@A") == 1 + refills
    assert log.count("rep_neighbors_many@B") == 1
    assert set(_after_the_walk_starts(log)) <= WALK


@pytest.mark.parametrize("read,write", [("BC", "BC"), ("AB", "BC")])
def test_a_missing_bound_travels_in_the_coalesce(read, write):
    """C lacks ``ff``, ``f``'s real successor: the coalesce to C carries
    it, C installs it first, and that is the delete's one copy — for no
    message more."""

    def plant(side):
        scripted_insert(side, "AB", "ff", 1, "ff")

    spent, log, stats = _walk_case(read, write, [("delete", "f")], plant)
    assert spent == bill("delete", True, read, write)
    assert set(_after_the_walk_starts(log)) <= WALK
    copies = stats.insertions_while_coalescing
    assert (copies.n, copies.max) == (1, 1)


@pytest.mark.parametrize("read,write", [("BC", "BC"), ("AB", "BC")])
def test_two_independent_deletes_cost_what_one_does(read, write):
    """``(b, f)`` and ``(f, j)`` meet at ``f``, which neither deletes:
    one walk, one coalesce message a member, one vote."""
    spent, log, _ = _walk_case(
        read, write, [("delete", "d"), ("discard", "h")]
    )
    assert spent == bill("delete", True, read, write)
    assert set(_after_the_walk_starts(log)) <= WALK


@pytest.mark.parametrize("read,write", [("BC", "BC"), ("AB", "BC")])
def test_a_dependent_delete_flushes_then_walks(read, write):
    """``e`` lands inside ``d``'s neighbourhood, so the shared search's
    finding is set aside: the flush installs ``e`` (``W``), ``d`` walks
    again (``R``) and coalesces (``W``).  Neither write is the last, so
    every member is asked ``prepare``."""
    spent, log, _ = _walk_case(
        read, write, [("insert", "e", 1), ("delete", "d")]
    )
    r, w = len(read), len(write)
    assert spent == r + r + w + r + w + len(set(read) | set(write)) + w
    after = _after_the_walk_starts(log)
    flush = after.index("rep_insert_many")
    assert after[flush:flush + w] == ["rep_insert_many"] * w
    assert set(after[:flush] + after[flush + w:]) <= WALK
