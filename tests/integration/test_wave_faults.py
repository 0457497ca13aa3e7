"""Every single fault of a wave's messages, one at a time.

Six waves between them send every shape of message a wave has: a read
released with its reply, a read of two keys beside a write the fold
refuses, whose members answer ``prepare`` read-only, a write refused
from the fold beside one that is installed, the closing
``rep_write_many`` that coalesces independent deletes and installs the
final entries with the vote, a dependent
delete's flush and its own coalesce, and a closing write that only
coalesces — besides the shared walk (past a ghost, with a boundary copy
to make) and two-phase commit.  The waves run on 3-2-2, where the write
quorum is the read quorum, and the three delete waves also on 3-3-2
with read quorum {B, C, A} and write quorum {B, C}, where A only reads
and votes read-only.  Each wave's fault-free message sequence is
recorded (:func:`tests.scope.tap`); then, for every message in it, one
fault at a time:

* the request is lost;
* the reply is lost (the effect is applied);
* the destination crashes before it arrives, and is back when it does:
  the message reaches a replica that lost the wave's earlier work (a
  destination still down would answer as a lost request does, at once);
* the destination applies it and crashes before replying; it stays down
  for the rest of the wave.

Each at ``rpc_retries`` 0 and 1 (:class:`~repro.net.failures.
ScriptedLoss` for the losses).  Every case must show what
:func:`tests.scope.check` asks of a case, and besides:

* a member that restarts after its first message of the wave and
  before its vote makes the wave fall back (``suite.batch.fallbacks``
  grows by one): the coordinator sees the later incarnation in the
  member's reply, to a suite round or to ``prepare``;
* whatever a restarted member logged of the wave after the restart ends
  with the commit or the abort — and with one of them after a restart
  mid-wave.

The sweep names a case by its message (:func:`case_id`),
``config-order-wave-method@member#k:fault-rN``.  The tier-1 pytest ids
keep the message's index, ``{wave}-{index}-{fault}-r{retries}``;
``test_each_wave_sends_its_recorded_messages`` pins each tier-1 wave's
messages (:data:`SEQUENCES`, in the order of its indices), so a change
to them fails there rather than moving an id onto another message.

Run as a module (``python -m tests.integration.test_wave_faults``) it
sweeps wider: every wave, every message and every fault at
``rpc_retries`` 0, 1 and 2, over every read-quorum order of 3-2-2 and
3-3-2.  It prints how many cases it ran and how many histories
``check()`` accepted, and exits non-zero on any failure.
"""

from __future__ import annotations

import functools
import itertools
import sys
import traceback

import pytest

from repro.core.errors import RpcTimeoutError
from repro.core.keys import wrap
from repro.net.failures import LossEvent, ScriptedLoss
from tests import scope

#: Present on every replica, but for ``f`` (A lacks it, so deleting
#: ``d`` copies it in) and ``e`` (a ghost B keeps beside ``d``).
SETUP = (
    [("insert", key, 0) for key in "bdehjl"]
    + [("prefer", "ACB"), ("delete", "e")]
    + [("prefer", "BCA"), ("insert", "f", 0), ("prefer", "ABC")]
)
DELETE_WAVES = {
    # d's neighbourhood [b, f] does not hold k: one closing write.
    "insert-and-independent-delete": [("insert", "k", 1), ("delete", "d")],
    # c lands beside d, so d flushes, walks and coalesces in its turn;
    # j's range waits for the closing write.
    "independent-and-dependent-delete": [
        ("insert", "c", 1), ("delete", "d"), ("delete", "j"),
    ],
    # Two ranges meeting at f, and no entry: a closing write that only
    # coalesces.
    "delete-only": [("delete", "d"), ("discard", "h")],
}
WAVES = {
    # One key read: each member releases it with its reply, no 2PC.
    "released-read": [("lookup", "d")],
    # Two keys read, b by an insert the fold refuses: the wave is not
    # read-only, so its members answer ``prepare`` read-only.
    "two-key-read": [("lookup", "d"), ("insert", "b", 1)],
    # b is present, so its insert is refused for no message; k's upsert
    # is the closing write.
    "refused-write": [("insert", "b", 1), ("upsert", "k", 1)],
    **DELETE_WAVES,
}
FAULTS = ("request", "reply", "crash-before", "crash-after")
KEYS = sorted(
    {step[1] for step in SETUP if step[0] != "prefer"} | set("cdhjk")
)
#: ``(config, preference)``: the read quorum is the preference's first R
#: members, and a wave's write quorum its first W.
SHAPES = [
    (config, "".join(order))
    for config in ("3-2-2", "3-3-2")
    for order in itertools.permutations("ABC")
]


@pytest.mark.parametrize("config", ["3-2-2", "3-3-2"])
def test_the_setup_plants_a_ghost_and_a_missing_copy(config):
    with scope.build(config, SETUP) as cluster:
        assert cluster.representatives["B"].contains(wrap("e"))
        assert not cluster.representatives["A"].contains(wrap("f"))


@functools.cache
def _record(config, order, name):
    """The fault-free run's messages, ``(method, member)`` each."""
    with scope.build(config, SETUP, order) as cluster:
        log = []
        scope.tap(cluster, log)
        cluster.suite.execute_batch(WAVES[name])
        return [tuple(row.split("@")) for row in log]


def _inject(cluster, sequence, index, fault, restarted):
    """Arm ``fault`` on the message at ``index`` of ``sequence``;
    returns the names of the members a crash took down.  A restart
    before the message fills ``restarted`` with the member, the
    transaction and how long its log was then."""
    method, member = sequence[index]
    place = cluster.suite.placements[member]
    # Which delivery of ``method`` to ``member`` it is.
    nth = sequence[:index].count((method, member))
    if fault in ("request", "reply"):
        cluster.network.install_faults(
            ScriptedLoss([LossEvent(
                fault, place.node_id, f"{place.service_name}.{method}", nth
            )])
        )
        return set()
    down = set()
    rep = cluster.representatives[member]
    inner = getattr(rep, method)
    deliveries = itertools.count()

    def faulty(*args, **kwargs):
        if next(deliveries) != nth:
            return inner(*args, **kwargs)
        if fault == "crash-before":
            cluster.crash(member)
            cluster.recover(member)
            restarted.update(rep=rep, txn=args[0], mark=len(rep.wal.records))
            return inner(*args, **kwargs)
        inner(*args, **kwargs)
        cluster.crash(member)
        down.add(member)
        raise RpcTimeoutError(place.node_id, method=method, lost="reply")

    setattr(rep, method, faulty)
    return down


def _restarts_mid_wave(sequence, index):
    """A restart before message ``index`` falls between its member's
    first message of the wave and its vote: the member had a message
    before, and this one is not its ``commit`` (the only message a
    member is sent after voting)."""
    method, member = sequence[index]
    return method != "commit" and any(
        earlier == member for _, earlier in sequence[:index]
    )


def run_case(config, order, name, index, fault, retries):
    """One fault at one message of one wave; raises on any failed check."""
    sequence = _record(config, order, name)
    shape = (config, SETUP, order)
    with scope.build(*shape) as cluster, scope.build(*shape) as twin:
        cluster.suite.rpc_retries = retries
        restarted = {}
        down = _inject(cluster, sequence, index, fault, restarted)
        fell_back = scope.check(cluster, twin, WAVES[name], KEYS, down)
        if restarted:
            rep, txn = restarted["rep"], restarted["txn"]
            logged = [
                r.kind for r in rep.wal.records[restarted["mark"]:]
                if r.txn_id == txn
            ]
            if _restarts_mid_wave(sequence, index):
                assert fell_back == 1, logged
                assert logged, logged
            assert not logged or logged[-1] in ("commit", "abort"), logged


def _cases(shapes, waves, retries):
    return [
        (config, order, name, index, fault, r)
        for config, order in shapes
        for name in waves
        for index in range(len(_record(config, order, name)))
        for fault in FAULTS
        for r in retries
    ]


CASES = _cases([("3-2-2", "ABC")], WAVES, (0, 1)) + _cases(
    [("3-3-2", "BCA")], DELETE_WAVES, (0, 1)
)
_READ = "rep_lookup_many@A#0 rep_lookup_many@B#0"
_BILL = "rep_write_many@A#0 rep_write_many@B#0 commit@A#0 commit@B#0"
_FIRST = "rep_lookup_many@B#0 rep_lookup_many@C#0 rep_lookup_many@A#0 " \
    "rep_neighbors_many@B#0 rep_write_many@B#0 rep_write_many@C#0"
_LAST = "prepare@A#0 commit@B#0 commit@C#0"
#: The messages of each tier-1 wave, which its cases are named by.
SEQUENCES = {
    ("3-2-2", "ABC", "released-read"): _READ,
    ("3-2-2", "ABC", "two-key-read"): f"{_READ} prepare@A#0 prepare@B#0",
    ("3-2-2", "ABC", "refused-write"): f"{_READ} {_BILL}",
    ("3-2-2", "ABC", "insert-and-independent-delete"):
        f"{_READ} rep_neighbors_many@B#0 {_BILL}",
    ("3-2-2", "ABC", "independent-and-dependent-delete"):
        f"{_READ} rep_neighbors_many@B#0 rep_write_many@A#0 "
        "rep_write_many@B#0 rep_neighbors_many@A#0 rep_neighbors_many@B#1 "
        "rep_neighbors_many@B#2 rep_write_many@A#1 rep_write_many@B#1 "
        "rep_write_many@A#2 rep_write_many@B#2 commit@A#0 commit@B#0",
    ("3-2-2", "ABC", "delete-only"): f"{_READ} rep_neighbors_many@B#0 {_BILL}",
    ("3-3-2", "BCA", "insert-and-independent-delete"): f"{_FIRST} {_LAST}",
    ("3-3-2", "BCA", "independent-and-dependent-delete"):
        f"{_FIRST} rep_neighbors_many@B#1 rep_neighbors_many@C#0 "
        "rep_neighbors_many@A#0 rep_neighbors_many@B#2 rep_write_many@B#1 "
        f"rep_write_many@C#1 rep_write_many@B#2 rep_write_many@C#2 {_LAST}",
    ("3-3-2", "BCA", "delete-only"): f"{_FIRST} {_LAST}",
}


def case_id(config, order, name, index, fault, retries):
    """``{config}-{order}-{wave}-{method@member#k}:{fault}-r{retries}``."""
    label = scope.labels(_record(config, order, name))[index]
    return f"{config}-{order}-{name}-{label}:{fault}-r{retries}"


def test_each_wave_sends_its_recorded_messages():
    """A change to a wave's messages is a change to its cases: re-record
    this table, and name the cases it adds and drops."""
    assert {
        shape: " ".join(scope.labels(_record(*shape))) for shape in SEQUENCES
    } == SEQUENCES


@pytest.mark.parametrize(
    "case", CASES,
    ids=[
        ("" if c == "3-2-2" else f"{c}-{o}-") + f"{n}-{i}-{f}-r{r}"
        for c, o, n, i, f, r in CASES
    ],
)
def test_one_fault_at_one_message(case):
    run_case(*case)


def main() -> int:
    cases = _cases(SHAPES, WAVES, (0, 1, 2))
    failed = 0
    for case in cases:
        try:
            run_case(*case)
        except Exception:
            failed += 1
            print("FAILED", case_id(*case), file=sys.stderr)
            traceback.print_exc()
    # check() runs the history last, so every case that passed is a
    # history it accepted.
    print(f"{len(cases)} cases checked, {failed} failed; "
          f"check() accepted {len(cases) - failed} histories")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
