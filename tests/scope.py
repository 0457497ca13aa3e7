"""The enumeration harness: what a case is, what it must show, and what
it is called, each decided once.

A *case* runs one wave through ``execute_batch`` on a cluster built by
:func:`build` (3-2-2 or 3-3-2 on a preferred-quorum order), either after
a scripted setup or from a *state* — every replica's tiling, as
:func:`reachable` generates them breadth-first from the empty directory
— restored with :func:`restore`.  Beside it a *twin*, built and started
the same way, runs the same ops one at a time through the classic path
(:func:`fallback`).

What every case must show is :func:`check`:

* every member in doubt about the wave finds its decision in the
  coordinator's ``DecisionLog``, and it is commit exactly when the wave
  committed (did not fall back) — checked before anything recovers;
* then, every crashed member recovered and pending decisions resolved,
  each op's outcome is the twin's, but for an op whose wave of one found
  too few replicas up, which the twin skips;
* the directory is the twin's, with the same highest version behind
  every key and in every gap (:func:`assert_same_directory`);
* when the wave did not fall back, the delete-overhead table
  (``delete_stats``) is the twin's;
* every replica is clean (:func:`assert_clean`) and its store is its
  own WAL replay, and the invariant auditor finds every current version
  on a write quorum;
* the history — the wave, then a read of every key — is linearizable
  per key (:meth:`repro.obs.history.History.check`).

A case that injects a fault is named by the message it hits,
:func:`labels`' ``method@member#k``: the k-th delivery of ``method`` to
``member`` in the wave's fault-free run (:func:`tap` records it), so a
change to a wave's messages cannot silently move a name onto another
message.
"""

from __future__ import annotations

import functools

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import BatchOp, BatchOutcome, _single
from repro.core.errors import QuorumUnavailableError, ReproError
from repro.core.keys import wrap
from repro.core.quorum import PreferredQuorumPolicy
from repro.core.stats import DeleteOverheadStats
from repro.obs.history import History
from repro.storage.interface import MergedTiling

#: Preferred-quorum orders: on 3-2-2 the read and write quorum {A, B},
#: {B, C}, {C, A}; on 3-3-2 the same write quorums, every member read.
#: Each is the one before with every replica renamed A→B→C→A.
ORDERS = ("ABC", "BCA", "CAB")
#: Every method a suite or its 2PC coordinator sends a representative.
_WIRE_METHODS = (
    "rep_lookup", "rep_insert", "rep_lookup_many", "rep_write_many",
    "rep_neighbors_batch", "rep_coalesce", "rep_neighbors_many",
    "prepare", "commit", "abort",
)


# -- the twin ---------------------------------------------------------------


def fallback(suite, op):
    """The sequential twin's step: ``op`` alone through the classic path
    (:func:`~repro.core.batch._single`), its error captured as the
    outcome."""
    outcome = BatchOutcome(op)
    try:
        outcome.value = _single(suite, op.kind, op.key, op.value)
    except ReproError as exc:
        outcome.error = exc
    return outcome


def drive(cluster, script):
    """``script`` one op at a time through the classic path; a
    ``("prefer", "BCA")`` step re-orders a preferred-quorum policy, which
    is how a test plants a ghost or a missing copy on a chosen member."""
    for step in script:
        if step[0] == "prefer":
            cluster.suite.quorum_policy.preference = list(step[1])
        else:
            fallback(cluster.suite, BatchOp(*step))


def held(cluster, keys):
    """``{key: (version, present, value)}``, what each key holds: the
    reply with the highest version any replica has behind it.  Where a
    :class:`~repro.obs.history.History` of the cluster starts."""
    merged = MergedTiling(
        {name: rep.store for name, rep in cluster.representatives.items()}
    )
    result = {}
    for key in keys:
        best = merged.best(wrap(key))
        result[key] = (best.version, best.present, best.value)
    return result


def highest_version(cluster, key):
    """The highest version any replica holds for ``key`` — its entry's,
    or that of the gap it falls in.  What the next write of the key
    chains from, whichever quorum it reads."""
    return held(cluster, [key])[key][0]


def assert_same_outcomes(batched, twin, ops):
    """``batched`` answers ``ops``, in order, as ``twin`` does running
    each alone in its turn (:func:`fallback`)."""
    for b, op in zip(batched, ops, strict=True):
        op = op if isinstance(op, BatchOp) else BatchOp(*op)
        s = fallback(twin.suite, op)
        assert b.op == op
        assert b.value == s.value, op
        assert type(b.error) is type(s.error), op


def assert_same_directory(cluster, twin, keys):
    """Same contents, same highest reply behind every key (present or
    gap) and behind a point in every gap between them, sound stores — on
    clusters whose quorum draws differed."""
    assert (
        cluster.suite.authoritative_state() == twin.suite.authoritative_state()
    )
    # "k~" sorts after k and everything k prefixes, before the next key.
    probes = [" ", *keys, *(key + "~" for key in keys)]
    assert held(cluster, probes) == held(twin, probes)
    cluster.check_invariants()
    twin.check_invariants()


def tap(cluster, log):
    """Append ``method@member`` to ``log`` for every message delivered."""
    for name, rep in cluster.representatives.items():
        for method in _WIRE_METHODS:
            def tapped(*args, _inner=getattr(rep, method),
                       _row=f"{method}@{name}", **kwargs):
                log.append(_row)
                return _inner(*args, **kwargs)

            setattr(rep, method, tapped)


# -- clusters and states ----------------------------------------------------


def build(config="3-2-2", setup=(), order="ABC"):
    """A cluster on a preferred-quorum policy, ``setup`` driven through
    the classic path (:func:`drive`) from order ABC, then ``order``: the
    read quorum is its first R members, and a wave's write quorum its
    first W."""
    cluster = DirectoryCluster.create(
        ClusterSpec(
            config=config, seed=3,
            quorum_policy=PreferredQuorumPolicy(list(ORDERS[0])),
        )
    )
    drive(cluster, setup)
    cluster.suite.quorum_policy.preference = list(order)
    return cluster


def state_of(cluster):
    """Every replica's tiling, in member order."""
    return tuple(
        rep.store.snapshot() for rep in cluster.representatives.values()
    )


def restore(cluster, state, order="ABC"):
    """Start ``cluster`` afresh from ``state`` under ``order``: each
    replica drops its volatile state, takes the tiling and checkpoints
    it (so its WAL replays to it), and the delete-overhead table
    starts empty."""
    for rep, snapshot in zip(cluster.representatives.values(), state):
        rep.on_crash()
        rep.store.restore(snapshot)
        rep.checkpoint()
    cluster.suite.delete_stats = DeleteOverheadStats()
    cluster.suite.quorum_policy.preference = list(order)


@functools.cache
def reachable(depth, keys, config="3-2-2"):
    """Every state at most ``depth`` steps from the empty ``config``
    directory, breadth-first.  A step is one classic ``insert``,
    ``update`` or ``delete`` of one of ``keys`` under one of
    :data:`ORDERS`: ``upsert`` is one of the first two, ``discard`` the
    last, and a classic ``lookup`` repairs nothing."""
    steps = [
        (kind, key) for kind in ("insert", "update", "delete") for key in keys
    ]
    with build(config) as cluster:
        found = {state_of(cluster): None}
        frontier = list(found)
        for _ in range(depth):
            reached = []
            for state in frontier:
                for order in ORDERS:
                    for kind, key in steps:
                        restore(cluster, state, order)
                        drive(cluster, [(kind, key, 0)])
                        after = state_of(cluster)
                        if after not in found:
                            found[after] = None
                            reached.append(after)
            frontier = reached
    return tuple(found)


# -- what a case is called --------------------------------------------------


def labels(sequence):
    """``method@member#k`` for each ``(method, member)`` message: its
    k-th delivery of ``method`` to ``member``."""
    return [
        f"{method}@{member}#{sequence[:i].count((method, member))}"
        for i, (method, member) in enumerate(sequence)
    ]


# -- what a case must show --------------------------------------------------


def assert_clean(cluster):
    """No replica keeps a lock, an undo record or a ``_prepared`` vote."""
    for name, rep in cluster.representatives.items():
        assert rep.locks.is_idle(), name
        assert not (rep._undo or rep._prepared), name


def check(cluster, twin, wave, keys, down=()):
    """Run ``wave`` on ``cluster`` and op by op on ``twin``, and assert
    everything a case must show (the module docstring); returns how
    many times the wave fell back (0 or 1).  ``down`` names the members
    a fault crashed while the wave ran: they are recovered once the
    decision log is checked, and only while one is down may an op fail
    for want of a quorum."""
    suite = cluster.suite
    fallbacks = suite._batch_fallbacks.value
    # Transaction ids are sequential from 1: the wave's is the next one.
    txn = (suite.last_txn_id or 0) + 1
    history = History(held(cluster, keys))
    batched = history.run("client", suite.execute_batch, wave)
    fell_back = suite._batch_fallbacks.value - fallbacks
    # A member in doubt learns the wave's decision from the log.
    decision = suite.txn_manager.decision_log.outcome(txn)
    for name, rep in cluster.representatives.items():
        if txn in rep.wal.in_doubt_txns():
            assert decision == ("abort" if fell_back else "commit"), name
    cluster.network.install_faults(None)
    for member in down:
        cluster.recover(member)
    suite.txn_manager.resolve_pending()
    done = [
        outcome for outcome in batched
        if not isinstance(outcome.error, QuorumUnavailableError)
    ]
    assert down or len(done) == len(wave)
    assert_same_outcomes(done, twin, [outcome.op for outcome in done])
    assert_same_directory(cluster, twin, keys)
    if not fell_back:
        assert (
            suite.delete_stats.as_table() == twin.suite.delete_stats.as_table()
        )
    assert_clean(cluster)
    # Each store is its own WAL replay, in-doubt transactions the
    # decision log committed counted in.
    for name, rep in cluster.representatives.items():
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
    history.run(
        "reader", suite.execute_batch, [("lookup", key) for key in keys]
    )
    history.check()
    return fell_back
