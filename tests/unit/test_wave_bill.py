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
  the install: a neighbour round and a candidate round (``2R``) on a
  directory without ghosts, a probe round and the vote-carrying
  coalesce (``2W``).

Every kind of :data:`~repro.core.batch.BATCH_KINDS`, with its key
present and absent, over all nine (read, write) quorum pairs of 3-2-2,
on a directory every replica holds in full.  Beside the count, each
member's 2PC messages are held to the rule that produced it: ``prepare``
only to a member that has not voted, ``commit`` only to one that wrote,
nothing at all after a released read.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.batch import BATCH_KINDS, _DELETES
from tests.conftest import scripted_insert
from tests.unit.test_batch import _SplitQuorums, _spy, _twin

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


def bill(kind: str, present: bool, read: str, write: str) -> int:
    """Messages a wave of one costs on fixed quorums ``read``/``write``."""
    r, w = len(read), len(write)
    if kind == "lookup":
        return r
    if not writes(kind, present):
        return r + r
    work = 2 * r + 2 * w if kind in _DELETES else w
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

