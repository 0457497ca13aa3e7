"""Every single fault of a wave's messages, one at a time.

Three waves on 3-2-2 between them send every shape of write the fold
has — the closing ``rep_write_many`` that coalesces independent deletes
and installs the final entries with the vote, a dependent delete's flush
and its own coalesce, and a closing write that only coalesces — besides
the read, the shared walk (past a ghost, with a boundary copy to make)
and two-phase commit.  Each wave's fault-free message sequence is
recorded (test_fanout's ``_tap``); then, for every message in it, one
fault at a time:

* the request is lost;
* the reply is lost (the effect is applied);
* the destination crashes before it arrives, and is back when it does:
  the message reaches a replica that lost the wave's earlier work (a
  destination still down would answer as a lost request does, at once);
* the destination applies it and crashes before replying; it stays down
  for the rest of the wave.

Each at ``rpc_retries`` 0 and 1 (:class:`~repro.net.failures.
ScriptedLoss` for the losses).  Then every replica is recovered and
pending decisions resolved, and the run must show:

* each op's outcome is the sequential twin's (a wave that aborted
  re-runs its ops as waves of one, which answer the same);
* the directory is the twin's, and the invariant auditor finds every
  current version on a write quorum;
* every replica's store equals its own WAL replay;
* no replica keeps a lock, undo record, ``_prepared`` vote or
  ``_seen_txns`` entry;
* a restarted member either took the rest of the wave and committed
  it, or refused it before applying anything: it logged nothing of the
  wave after the restart but the abort;
* when the wave committed without falling back (a lost reply was sent
  again), the delete-overhead table is the twin's.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import BatchOp
from repro.core.errors import RpcTimeoutError
from repro.core.keys import wrap
from repro.core.quorum import PreferredQuorumPolicy
from repro.net.failures import LossEvent, ScriptedLoss
from tests.unit.test_batch import (
    _assert_same_directory,
    _assert_same_outcomes,
    _drive,
    _fallback,
)
from tests.unit.test_fanout import _tap

#: Present on every replica, but for ``f`` (A lacks it, so deleting
#: ``d`` copies it in) and ``e`` (a ghost B keeps beside ``d``).
SETUP = (
    [("insert", key, 0) for key in "bdehjl"]
    + [("prefer", "ACB"), ("delete", "e")]
    + [("prefer", "BCA"), ("insert", "f", 0), ("prefer", "ABC")]
)
WAVES = {
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
FAULTS = ("request", "reply", "crash-before", "crash-after")
KEYS = sorted({step[1] for step in SETUP if step[0] != "prefer"} | set("cdhjk"))


def _cluster():
    cluster = DirectoryCluster.create(
        ClusterSpec(
            config="3-2-2", seed=3,
            quorum_policy=PreferredQuorumPolicy(["A", "B", "C"]),
        )
    )
    _drive(cluster, SETUP)
    assert cluster.representatives["B"].contains(wrap("e"))
    assert not cluster.representatives["A"].contains(wrap("f"))
    return cluster


def _record(wave):
    """The fault-free run: ``(method, member)`` of every message, and
    the sequential twin's outcomes and delete-overhead table."""
    with _cluster() as cluster, _cluster() as twin:
        log = []
        _tap(cluster, log)
        cluster.suite.execute_batch(wave)
        sequential = [_fallback(twin.suite, BatchOp(*op)) for op in wave]
        return (
            [tuple(row.split("@")) for row in log],
            sequential,
            twin.suite.delete_stats.as_table(),
        )


_RECORDED = {name: _record(wave) for name, wave in WAVES.items()}


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


def _assert_clean(cluster):
    for name, rep in cluster.representatives.items():
        assert rep.locks.is_idle(), name
        assert not (rep._undo or rep._seen_txns or rep._prepared), name
        replayed = rep._store_factory()
        rep.wal.replay_into(
            replayed,
            extra_committed=rep.wal.in_doubt_txns()
            & set(rep._decision_outcomes()),
        )
        assert replayed.snapshot() == rep.store.snapshot(), name
    auditor = cluster.make_auditor()
    auditor.run()
    assert auditor.report.violations == []


CASES = [
    (name, index, fault, retries)
    for name in WAVES
    for index in range(len(_RECORDED[name][0]))
    for fault in FAULTS
    for retries in (0, 1)
]


@pytest.mark.parametrize(
    "name,index,fault,retries", CASES,
    ids=[f"{n}-{i}-{f}-r{r}" for n, i, f, r in CASES],
)
def test_one_fault_at_one_message(name, index, fault, retries):
    wave = WAVES[name]
    sequence, sequential, overhead = _RECORDED[name]
    with _cluster() as cluster:
        cluster.suite.rpc_retries = retries
        restarted = {}
        down = _inject(cluster, sequence, index, fault, restarted)
        fallbacks = cluster.suite._batch_fallbacks.value
        batched = cluster.suite.execute_batch(wave)
        cluster.network.install_faults(None)
        for member in down:
            cluster.recover(member)
        cluster.suite.txn_manager.resolve_pending()
        _assert_same_outcomes(batched, sequential)
        with _cluster() as twin:
            for op in wave:
                _fallback(twin.suite, BatchOp(*op))
            _assert_same_directory(cluster, twin, KEYS)
        _assert_clean(cluster)
        if restarted:
            # What the restarted member logged of the wave: all of it
            # and the commit, or, refused, nothing but the abort.
            rep, txn = restarted["rep"], restarted["txn"]
            logged = [
                r.kind for r in rep.wal.records[restarted["mark"]:]
                if r.txn_id == txn
            ]
            assert "commit" in logged or set(logged) <= {"abort"}, logged
        if cluster.suite._batch_fallbacks.value == fallbacks:
            assert cluster.suite.delete_stats.as_table() == overhead
