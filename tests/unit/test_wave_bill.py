"""The exact message bill of a wave, for every kind and quorum pair.

A wave costs its rounds plus what is left of two-phase commit once the
last write has carried each writer's vote and a wave that only reads has
been released with its reply.  A wave draws its write quorum ``Wq`` inside its
read quorum ``Rq``: the first W members of it when R ≥ W.  In closed
form (:func:`bill`):

* a ``lookup`` is its read round, released: ``R`` — and so is a wave
  of lookups of any number of keys;
* an op the fold refuses (an ``insert`` of a present key, an ``update``
  or ``delete`` of an absent one) reads, then asks each member it read
  for a read-only vote: ``R + R``;
* a write reads, sends each member of ``Wq`` one closing write that
  carries its vote (``W``), asks ``prepare`` of the members it only read
  (``|Rq - Wq|``, none when R = W) and commits on the ones it wrote
  (``W``);
* a delete of a present key costs what a write does: the read round
  carries Figure 13's first neighbour step too, whose replies also judge
  each candidate, and the closing write carries the coalesce and its
  boundary copies.  A ghost adds a refill message to each read-quorum
  member whose stream it ran dry, and a missing copy adds nothing.

Every kind of :data:`~repro.core.batch.BATCH_KINDS`, with its key
present and absent, over all nine (read, classic write) quorum pairs of
3-2-2 — where a wave writes its read quorum whatever a classic write
would draw — and over the three read quorums of 3-3-2, where the member
a wave reads last is only read.  Beside the count, each member's 2PC
messages are held to the rule that produced it: ``prepare`` only to a
member that has not voted, ``commit`` only to one that wrote, nothing at
all after a released read.

Then the delete walk's own terms and waves of two and three, each
against the sequential twin: a ghost only the member outside the write
quorum holds, a bound one write-quorum member lacks, independent
deletes beside an insert or an update — one write message to each
write-quorum member after the walk, however many ops — and a dependent
delete, which flushes the wave's writes, walks again and coalesces
before the closing write.
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
from tests.scope import assert_clean, tap

QUORUMS = ["AB", "AC", "BC"]
#: Read quorums of 3-3-2, each with its last member only read.
WIDE_READS = ["ABC", "BCA", "CAB"]
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


def nested(read: str) -> str:
    """The write quorum a wave draws inside read quorum ``read`` — its
    first two members, W = 2 at 3-2-2 and 3-3-2 alike."""
    return read[:2]


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
    walk = refills if kind in _DELETES else 0
    return r + walk + w + len(set(read) - set(write)) + w


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


def _pays_its_bill(kind, present, read, write, **spec):
    """A wave of one ``kind`` op on fixed quorums: ``read``, and
    ``write`` for a classic write, which the wave does not use."""
    with _twin(quorum_policy=_SplitQuorums(read, write), **spec) as cluster:
        for key in KEYS:
            scripted_insert(cluster, "ABC", key, 1, key)
        log = _spy(cluster)
        net = cluster.network.stats
        before = net.rpc_rounds
        (outcome,) = cluster.suite.execute_batch(
            [(kind, "d" if present else "c", 1)]
        )
        write = nested(read)
        assert net.rpc_rounds - before == bill(kind, present, read, write)
        assert log == twopc(kind, present, read, write)
        assert outcome.ok == (
            kind in ("lookup", "upsert", "discard") or writes(kind, present)
        )
        assert cluster.suite._batch_fallbacks.value == 0
        assert_clean(cluster)


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
    """At 3-2-2 the classic write quorum ``write`` does not move a wave:
    it writes the members it read, so none is only read."""
    assert nested(read) == read
    _pays_its_bill(kind, present, read, write)


WIDE_CASES = [
    (kind, present, read)
    for kind, present in itertools.product(BATCH_KINDS, (True, False))
    for read in WIDE_READS
]


@pytest.mark.parametrize(
    "kind,present,read",
    WIDE_CASES,
    ids=[
        f"{kind}-{'present' if present else 'absent'}-r{read}"
        for kind, present, read in WIDE_CASES
    ],
)
def test_a_wave_of_one_pays_its_bill_when_r_exceeds_w(kind, present, read):
    """3-3-2: the wave writes the first two members it read, and asks
    the third, which it only read, for a read-only ``prepare``."""
    _pays_its_bill(kind, present, read, nested(read), config="3-3-2")


READ_ONLY_CASES = [
    (config, read, n)
    for config, reads in (("3-2-2", QUORUMS), ("3-3-2", WIDE_READS))
    for read in reads
    for n in (2, 3, 16)
]


@pytest.mark.parametrize(
    "config,read,n",
    READ_ONLY_CASES,
    ids=[f"{config}-r{read}-{n}" for config, read, n in READ_ONLY_CASES],
)
def test_a_read_only_wave_costs_r_at_any_width(config, read, n):
    """Lookups of ``n`` keys, present and absent: the read round alone,
    released, with no 2PC message, no WAL record and no decision."""
    quorums = _SplitQuorums(read, nested(read))
    with _twin(config=config, quorum_policy=quorums) as cluster:
        for key in KEYS:
            scripted_insert(cluster, "ABC", key, 1, key)
        log = _spy(cluster)
        reps = list(cluster.representatives.values())
        lsns = [rep.wal.next_lsn for rep in reps]
        decisions = dict(cluster.suite.txn_manager.decision_log.decisions)
        before = cluster.network.stats.rpc_rounds
        keys = "abcdefghijklmnop"[:n]
        outcomes = cluster.suite.execute_batch([("lookup", key) for key in keys])
        assert cluster.network.stats.rpc_rounds - before == len(read)
        assert [o.value for o in outcomes] == [
            (True, key) if key in KEYS else (False, None) for key in keys
        ]
        assert log == {name: [] for name in "ABC"}
        assert [rep.wal.next_lsn for rep in reps] == lsns
        assert cluster.suite.txn_manager.decision_log.decisions == decisions
        assert cluster.suite._batch_fallbacks.value == 0
        assert_clean(cluster)


# -- the walk's own terms, and waves of two and three -------------------------

#: Keys every replica holds before each case below.
WALK_KEYS = "bdfhj"
#: What a wave with a delete may send after its read round.
WALK = {"rep_neighbors_many", "rep_write_many", "prepare", "commit"}
#: ``(config, read quorum)``: R = W on 3-2-2, R > W on 3-3-2.  Either
#: way the wave writes B and C; on 3-3-2 it only reads A.
SHAPES = [("3-2-2", "BC"), ("3-3-2", "BCA")]
SHAPE_IDS = [f"{read}-{nested(read)}" for _, read in SHAPES]


def _walk_case(config, read, wave, plant=None, keys=WALK_KEYS, **spec):
    """Run ``wave`` over ``keys`` on fixed quorums — ``read``, and its
    first two members to write — after ``plant(cluster)`` (both sides),
    against the sequential twin.  Returns the messages the wave cost,
    each one's ``method@member`` in order, and the cluster's
    delete-overhead statistics."""
    sides = [
        _twin(
            config=config, quorum_policy=_SplitQuorums(read, nested(read)),
            **spec,
        )
        for _ in range(2)
    ]
    with sides[0] as cluster, sides[1] as twin:
        for side in sides:
            for key in keys:
                scripted_insert(side, "ABC", key, 1, key)
            if plant is not None:
                plant(side)
        log = []
        tap(cluster, log)
        before = cluster.network.stats.rpc_rounds
        batched = cluster.suite.execute_batch(wave)
        spent = cluster.network.stats.rpc_rounds - before
        _assert_same_wave(
            cluster, twin, batched, wave, [("insert", key) for key in keys]
        )
        assert_clean(cluster)
        return spent, log, cluster.suite.delete_stats


def _after_the_read(log):
    """The methods sent after the wave's read round, which carried the
    first step of its walk."""
    methods = [row.split("@")[0] for row in log]
    reads = methods.count("rep_lookup_many")
    assert methods[:reads] == ["rep_lookup_many"] * reads
    return methods[reads:]


def _one_write_each(log, read):
    """One write message to each write-quorum member — after the walk,
    since nothing is written before it — and none to any other."""
    written = sorted(row for row in log if row.startswith("rep_write_many@"))
    assert written == [f"rep_write_many@{m}" for m in sorted(nested(read))]


@pytest.mark.parametrize("batch_size", [1, 3])
def test_a_ghost_outside_the_write_quorum_costs_a_refill_to_its_holder(
    batch_size,
):
    """3-3-2, so a wave has a member it only reads.  ``e`` is deleted on
    B and C alone, so A — read, never written — keeps it as a ghost next
    to ``d``.  Judged from the replies in hand (B's gap outranks A's
    entry), it is stepped past: at one result a message A's stream runs
    dry and is refilled, one message to A alone; at three A sent the
    next neighbour already, in its read reply."""

    def plant(side):
        scripted_insert(side, "ABC", "e", 1, "e")
        side.suite.delete("e")
        assert side.representatives["A"].contains(wrap("e"))

    refills = 1 if batch_size == 1 else 0
    spent, log, _ = _walk_case(
        "3-3-2", "BCA", [("delete", "d")], plant,
        neighbor_batch_size=batch_size,
    )
    assert spent == bill("delete", True, "BCA", "BC", refills)
    assert log.count("rep_neighbors_many@A") == refills
    assert log.count("rep_neighbors_many@B") == 0
    assert set(_after_the_read(log)) <= WALK


@pytest.mark.parametrize("config,read", SHAPES, ids=SHAPE_IDS)
def test_a_missing_bound_travels_in_the_coalesce(config, read):
    """C lacks ``ff``, ``f``'s real successor: the closing write to C
    carries it, C installs it first, and that is the delete's one copy —
    for no message more."""

    def plant(side):
        scripted_insert(side, "AB", "ff", 1, "ff")

    spent, log, stats = _walk_case(config, read, [("delete", "f")], plant)
    assert spent == bill("delete", True, read, nested(read))
    assert set(_after_the_read(log)) <= WALK
    copies = stats.insertions_while_coalescing
    assert (copies.n, copies.max) == (1, 1)


@pytest.mark.parametrize("config,read", SHAPES, ids=SHAPE_IDS)
def test_two_independent_deletes_cost_what_one_does(config, read):
    """``(b, f)`` and ``(f, j)`` meet at ``f``, which neither deletes:
    one walk, one closing write a member, one vote."""
    spent, log, _ = _walk_case(
        config, read, [("delete", "d"), ("discard", "h")]
    )
    assert spent == bill("delete", True, read, nested(read))
    assert set(_after_the_read(log)) <= WALK
    _one_write_each(log, read)


@pytest.mark.parametrize("config,read", SHAPES, ids=SHAPE_IDS)
def test_an_insert_beside_an_independent_delete_costs_what_the_delete_does(
    config, read
):
    """``i`` lies outside ``d``'s neighbourhood ``[b, f]``: the insert
    rides the closing write that coalesces ``d``'s range, so the wave
    costs what the delete alone does."""
    spent, log, _ = _walk_case(
        config, read, [("insert", "i", 1), ("delete", "d")]
    )
    assert spent == bill("delete", True, read, nested(read))
    assert set(_after_the_read(log)) <= WALK
    _one_write_each(log, read)


@pytest.mark.parametrize("config,read", SHAPES, ids=SHAPE_IDS)
def test_two_independent_deletes_and_an_update_cost_what_one_delete_does(
    config, read
):
    """``d`` and ``h`` walk together, and ``l`` lies outside both
    neighbourhoods: two ranges and one entry in one closing write a
    member."""
    spent, log, stats = _walk_case(
        config, read,
        [("delete", "d"), ("update", "l", 2), ("delete", "h")],
        keys="bdfhjl",
    )
    assert spent == bill("delete", True, read, nested(read))
    assert set(_after_the_read(log)) <= WALK
    _one_write_each(log, read)
    assert stats.deletions_while_coalescing.n == 2


@pytest.mark.parametrize("config,read", SHAPES, ids=SHAPE_IDS)
def test_a_dependent_delete_flushes_then_walks(config, read):
    """``e`` lands inside ``d``'s neighbourhood, so the shared search's
    finding, read with the wave's keys, is set aside: the flush installs
    ``e`` (``W``), ``d`` walks again (``R``) and coalesces (``W``).
    Neither write is the last, and nothing is left for a closing write,
    so every member is asked ``prepare``."""
    spent, log, _ = _walk_case(
        config, read, [("insert", "e", 1), ("delete", "d")]
    )
    r, w = len(read), 2
    assert spent == r + w + r + w + r + w
    after = _after_the_read(log)
    flush = after.index("rep_write_many")
    assert after[flush:flush + w] == ["rep_write_many"] * w
    assert set(after[:flush] + after[flush + w:]) <= WALK


@pytest.mark.parametrize("config,read", SHAPES, ids=SHAPE_IDS)
def test_an_independent_and_a_dependent_delete(config, read):
    """``e`` makes ``d`` dependent; ``h``'s neighbourhood ``[f, j]`` is
    untouched, so ``h`` stays independent.  The read, carrying the
    shared search's first step (``R``); then ``d``'s turn: the flush of ``e``
    (``W``), ``d``'s walk (``R``) and coalesce (``W``); then the closing
    write, ``h``'s range with the votes (``W``), the read-only
    ``prepare``s and the ``commit`` (``W``)."""
    spent, log, _ = _walk_case(
        config, read, [("insert", "e", 1), ("delete", "d"), ("delete", "h")]
    )
    r, w = len(read), 2
    assert spent == r + w + r + w + w + (r - w) + w
    assert set(_after_the_read(log)) <= WALK
    writes = [row for row in log if row.startswith("rep_write_many@")]
    assert len(writes) == 3 * w
