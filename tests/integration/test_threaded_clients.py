"""Integration tests: concurrent transactions against the cluster.

The paper's concurrency claim, executed rather than simulated: several
client threads run genuine suite operations, interleaved one message at
a time by the baton (:class:`~repro.sim.threads.BatonScheduler`); range
locks abort conflicting transactions (retried by the harness); and
afterwards the directory must be exactly what a serial replay of the
committed operations leaves.

The harness cases run on both transports.  On the simulated one the
client threads call the representatives directly; on
``transport="asyncio"`` they do too, since co-located replicas left the
loopback sockets.  Either way only the thread holding the baton runs,
so no representative is ever entered by two threads at once (the
conftest guard holds every test to that).  The asyncio classes subclass
the simulated ones rather than parametrize them, so the simulated cases
keep the names they have always had.

:class:`TestEveryOrder` walks every schedule of a small scope — two
clients, two ops each, over three keys — within a preemption bound:
one in tier-1, and a seeded sample beyond it.  Every schedule's history
must pass :meth:`repro.obs.history.History.check`.  Run this module as
a script for the wider bound (CI does); it prints how many histories
``check()`` accepted and exits non-zero unless it accepted them all::

    PYTHONPATH=src python -m tests.integration.test_threaded_clients 2
"""

import itertools
import random
import sys
import threading

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import BatchOp, BatchOutcome
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    TransactionError,
)
from repro.core.quorum import PreferredQuorumPolicy
from repro.obs.history import History
from repro.obs.spans import RecordingTracer
from repro.sim.threads import BatonScheduler, ThreadedClients
from tests.scope import assert_clean, held


class _OnTransport:
    transport = None  # the simulated network

    @pytest.fixture
    def make_cluster(self):
        made = []

        def make(**spec):
            cluster = DirectoryCluster.create(
                ClusterSpec(config="3-2-2", transport=self.transport, **spec)
            )
            made.append(cluster)
            return cluster

        yield make
        for cluster in made:
            cluster.close()


class TestPartitionedClients(_OnTransport):
    """Each client owns a key interval: exact final-state checking."""

    def test_final_state_equals_union_of_models(self, make_cluster):
        cluster = make_cluster(seed=5)
        harness = ThreadedClients(
            cluster, n_clients=4, ops_per_client=60, seed=6
        )
        result = harness.run()
        result.raise_errors()
        assert result.committed == 4 * 60
        assert all(r.semantic_rejections == 0 for r in result.reports)
        assert cluster.suite.authoritative_state() == result.merged_model()
        cluster.check_invariants()

    def test_lock_tables_drain(self, make_cluster):
        cluster = make_cluster(seed=7)
        ThreadedClients(cluster, n_clients=3, ops_per_client=40, seed=8).run()
        assert_clean(cluster)

    def test_cross_partition_lock_traffic_occurs(self, make_cluster):
        # Deletes read-lock across gap boundaries into neighbors'
        # territory, so some conflicts are expected even with disjoint
        # ownership (this is what makes the test non-trivial).
        cluster = make_cluster(seed=9)
        result = ThreadedClients(
            cluster, n_clients=6, ops_per_client=80, seed=10
        ).run()
        result.raise_errors()
        assert cluster.suite.authoritative_state() == result.merged_model()
        # Not asserted > 0 (scheduling-dependent), but record it happens
        # in practice more often than never across the suite of runs.

    def test_btree_store_under_concurrency(self, make_cluster):
        cluster = make_cluster(store="btree", seed=11)
        result = ThreadedClients(
            cluster, n_clients=4, ops_per_client=50, seed=12
        ).run()
        result.raise_errors()
        assert cluster.suite.authoritative_state() == result.merged_model()
        cluster.check_invariants()


class TestContendedClients(_OnTransport):
    """All clients share one key space: rejections are legitimate."""

    def test_shared_keyspace_stays_coherent(self, make_cluster):
        cluster = make_cluster(seed=13)
        result = ThreadedClients(
            cluster,
            n_clients=4,
            ops_per_client=60,
            key_partitions=False,
            seed=14,
        ).run()
        result.raise_errors()
        cluster.check_invariants()
        assert_clean(cluster)
        # Every present key's value was committed by some client.
        state = cluster.suite.authoritative_state()
        committed_values = set()
        for report in result.reports:
            committed_values.update(report.model.values())
        # (Values may also have been overwritten by clients whose model
        # later dropped them; presence in *some* model is not required,
        # but the structural coherence above plus clean lock drain is.)
        assert all(isinstance(k, float) for k in state)


class _Asyncio:
    transport = "asyncio"

    @pytest.fixture(autouse=True)
    def _preempt_often(self):
        # Switch threads ~500x more often than the default 5 ms, so a
        # baton that let two clients run at once would put two threads
        # inside one representative, which the conftest guard fails.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)


class TestPartitionedClientsAsyncio(_Asyncio, TestPartitionedClients):
    pass


class TestContendedClientsAsyncio(_Asyncio, TestContendedClients):
    pass


# -- serial replay ----------------------------------------------------------


def _apply(model, op):
    """One op on a dict model: its outcome, as the suite would answer."""
    kind, key, value = op
    present = key in model
    if kind == "insert":
        if present:
            return "KeyAlreadyPresentError"
        model[key] = value
    elif not present:
        return "KeyNotPresentError"
    elif kind == "update":
        model[key] = value
    else:
        del model[key]
    return "ok"


def _record_commits(suite):
    """Which client entered each transaction commit that succeeded, in
    the order they entered it.  Under strict two-phase locking every
    lock is held by then and none yet released, so this order is a
    serial order of the committed transactions."""
    order, entries = [], itertools.count()
    commit = suite.txn_manager.commit

    def recording(txn, *args, **kwargs):
        seq = next(entries)
        commit(txn, *args, **kwargs)
        order.append((seq, int(threading.current_thread().name[7:])))

    suite.txn_manager.commit = recording
    return order


def _replay_commits(preload, order, committed_ops):
    """Replay every client's committed ops in commit order; each must
    be legal there.  Returns the model it leaves."""
    model = dict(preload)
    cursors = [iter(ops) for ops in committed_ops]
    for _, client in sorted(order):
        op = next(cursors[client])
        assert _apply(model, op) == "ok", (op, model)
    assert all(next(c, None) is None for c in cursors)
    return model


class TestBatonScheduler:
    """The harness's own claims, on seeded runs of the baton."""

    def test_committed_ops_equal_a_serial_replay(self):
        for seed, partitions in ((21, True), (22, False), (23, False)):
            cluster = DirectoryCluster.create(
                ClusterSpec(config="3-2-2", seed=seed)
            )
            order = _record_commits(cluster.suite)
            result = ThreadedClients(
                cluster, n_clients=3, ops_per_client=40,
                key_partitions=partitions, seed=seed,
            ).run()
            result.raise_errors()
            replayed = _replay_commits(
                {}, order, [r.committed_ops for r in result.reports]
            )
            assert cluster.suite.authoritative_state() == replayed
            cluster.check_invariants()

    def test_conflicting_transactions_abort_and_retry(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=24))
        result = ThreadedClients(
            cluster, n_clients=3, ops_per_client=40, key_partitions=False,
            seed=24,
        ).run()
        result.raise_errors()
        assert result.lock_conflicts > 0
        assert_clean(cluster)

    def test_bodies_report_their_errors_and_the_hook_goes(self):
        cluster = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=25))

        def fails():
            cluster.suite.lookup(1.0)
            raise ValueError("the body's own")

        def works():
            cluster.suite.insert(2.0, "v")

        scheduler = BatonScheduler(
            cluster.network, lambda runnable, current: runnable[-1]
        )
        failed, worked = scheduler.run([fails, works])
        assert isinstance(failed, ValueError) and worked is None
        assert "service_for" not in vars(cluster.network)
        assert cluster.suite.lookup(2.0) == (True, "v")

    def test_a_shared_recording_tracer_fails_loudly(self):
        """One tracer, one stack: interleaved clients must not nest
        into each other's trees, so the run fails instead."""
        tracer = RecordingTracer()
        cluster = DirectoryCluster.create(
            ClusterSpec(config="3-2-2", seed=26, tracer=tracer)
        )
        result = ThreadedClients(
            cluster, n_clients=2, ops_per_client=5, seed=26, max_retries=5
        ).run()
        with pytest.raises(AssertionError, match="span exited out of order"):
            result.raise_errors()


# -- every order of a small scope ----------------------------------------------

#: Two clients, two ops each, over the keys 1, 2 and 3: (preloaded
#: entries, each client's program).  An op is a classic call, or a list
#: of lookups run as one wave by ``execute_batch``.
SCOPES = {
    "disjoint": (
        {2: "p"},
        [[("insert", 1, "a"), ("update", 1, "b")],
         [("insert", 3, "c"), ("delete", 3, None)]],
    ),
    "contended": (
        {},
        [[("insert", 2, "a"), ("delete", 2, None)],
         [("insert", 2, "b"), ("update", 2, "c")]],
    ),
    "neighbours": (
        {1: "p", 2: "q", 3: "r"},
        [[("delete", 1, None), ("insert", 1, "a")],
         [("delete", 3, None), ("delete", 2, None)]],
    ),
    # One wave reads 1 and 2, released at each member with its reply,
    # while the other client updates 2 (W'), then 1 (W).
    "straddle": (
        {1: "p", 2: "q"},
        [[[("lookup", 1), ("lookup", 2)]],
         [("update", 2, "b"), ("update", 1, "a")]],
    ),
}
KEYS = (1, 2, 3)
#: Each op's preferred-quorum order, for the scopes that fix them.  The
#: wave reads {A, C}; W' writes {A, B} and W writes {B, C}, so a wave
#: that reads A before W' and C after W finds 1 after W and 2 before
#: W': the straddle docs/CORRECTNESS.md allows a read-only wave.
ORDERS = {"straddle": [["ACB"], ["ABC", "BCA"]]}


class _EachOpsQuorum(PreferredQuorumPolicy):
    """The preferred order of the op each client thread runs."""

    def __init__(self):
        super().__init__()
        self.orders = {}

    def select(self, kind, available, config, rng):
        name = threading.current_thread().name
        self.preference = list(self.orders.get(name, "ABC"))
        return super().select(kind, available, config, rng)


def _tap_versions(suite):
    """``{thread ident: version}``: what a classic op's
    :attr:`BatchOutcome.version` would be — the version its first
    lookup read (``"read"``), and the gap its delete left (``"gap"``)."""
    seen = {}
    lookup, coalesce = suite._suite_lookup, suite._coalesce_around

    def first_lookup(txn, key):
        reply = lookup(txn, key)
        seen.setdefault((threading.get_ident(), "read"), reply.version)
        return reply

    def gap(txn, key, version):
        found = coalesce(txn, key, version)
        seen[threading.get_ident(), "gap"] = found[2]
        return found

    suite._suite_lookup, suite._coalesce_around = first_lookup, gap
    return seen


def _straddles(history):
    """Whether the wave read 1 after W and 2 before W' (``ORDERS``)."""
    ops = {(op.client, op.kind, op.key): op for op in history.ops}
    read_1, read_2 = ops[0, "lookup", 1], ops[0, "lookup", 2]
    written_2, written_1 = ops[1, "update", 2], ops[1, "update", 1]
    return (
        written_2.ret < written_1.invoke
        and read_1.version == written_1.version
        and read_2.version < written_2.version
    )


class _Script:
    """A chooser that follows a prefix of decisions, then lets the
    client holding the baton run on (never preempts), and records
    every decision it made."""

    def __init__(self, prefix, probe):
        self.prefix, self.probe = prefix, probe
        self.trace = []  # (options, picked index, current)

    def __call__(self, runnable, current):
        self.probe()
        options = list(runnable)
        if len(self.trace) < len(self.prefix):
            pick = self.prefix[len(self.trace)]
        else:
            pick = options.index(current) if current in options else 0
        self.trace.append((options, pick, current))
        return options[pick]


def _preemptions(trace, picks):
    return sum(
        1
        for (options, _, current), pick in zip(trace, picks)
        if current in options and options[pick] != current
    )


def _merges(programs):
    """Every serial order of the programs' ops that keeps each
    program's own order."""
    slots = [i for i, program in enumerate(programs) for _ in program]
    for order in set(itertools.permutations(slots)):
        cursors = [iter(program) for program in programs]
        yield [(i, next(cursors[i])) for i in order]


def _run_schedule(scope, choose_for):
    """One run of ``scope`` under the chooser ``choose_for(probe)``
    builds; checks it and returns (chooser, stats)."""
    preload, programs = SCOPES[scope]
    orders = ORDERS.get(scope)
    policy = _EachOpsQuorum() if orders else None
    cluster = DirectoryCluster.create(
        ClusterSpec(config="3-2-2", seed=1, quorum_policy=policy)
    )
    for key, value in preload.items():
        cluster.suite.insert(key, value)
    history = History(held(cluster, KEYS))
    versions = _tap_versions(cluster.suite)
    successor = cluster.suite.version_space.successor
    commit = cluster.suite.txn_manager.commit
    order = _record_commits(cluster.suite)
    reps = list(cluster.representatives.values())
    stats = {"overlapped": False, "conflicts": 0, "straddle": False}

    def probe():
        holders = set().union(*(rep.locks.holders() for rep in reps))
        stats["overlapped"] |= len(holders) > 1

    chooser = choose_for(probe)
    scheduler = BatonScheduler(cluster.network, chooser)
    outcomes = [[] for _ in programs]

    def wave(i, ops):
        for _attempt in range(50):
            batched = history.run(i, cluster.suite.execute_batch, ops)
            if not any(isinstance(o.error, TransactionError) for o in batched):
                return
            stats["conflicts"] += 1
            scheduler.back_off()
        raise AssertionError(f"{ops} never got its locks")

    def classic(i, kind, key, value):
        args = (key,) if value is None else (key, value)
        calls = history.invoke(i, [(kind, key, value)])
        done = BatchOutcome(BatchOp(kind, key, value))
        me = threading.get_ident()
        for _attempt in range(50):
            versions.pop((me, "read"), None)
            versions.pop((me, "gap"), None)
            try:
                getattr(cluster.suite, kind)(*args)
                outcomes[i].append("ok")
                done.version = (
                    versions[me, "gap"] if kind == "delete"
                    else successor(versions[me, "read"])
                )
                break
            except (KeyAlreadyPresentError, KeyNotPresentError) as exc:
                outcomes[i].append(type(exc).__name__)
                done.error, done.version = exc, versions[me, "read"]
                break
            except TransactionError:
                stats["conflicts"] += 1
                scheduler.back_off()
        else:
            raise AssertionError(f"{kind} {key} never got its locks")
        history.complete(calls, [done])

    def client(i):
        for n, op in enumerate(programs[i]):
            if policy is not None:
                policy.orders[threading.current_thread().name] = orders[i][n]
            if isinstance(op, list):
                wave(i, op)
            else:
                classic(i, *op)

    errors = scheduler.run([lambda i=i: client(i) for i in range(len(programs))])
    assert errors == [None] * len(programs), errors
    state = cluster.suite.authoritative_state()
    cluster.check_invariants()
    assert_clean(cluster)
    # A read-only wave has no serial place (module docstring): there,
    # the history alone is the referee.
    if not any(isinstance(op, list) for program in programs for op in program):
        # Outcomes and state are those of some serial order of the ops ...
        serial = []
        for merge in _merges(programs):
            model, answers = dict(preload), [[] for _ in programs]
            for i, op in merge:
                answers[i].append(_apply(model, op))
            serial.append((answers, model))
        assert (outcomes, state) in serial
        # ... and commit order is one.
        committed = [
            [op for op, out in zip(program, outs) if out == "ok"]
            for program, outs in zip(programs, outcomes)
        ]
        assert _replay_commits(preload, order, committed) == state
    # The history ends with a read of every key.
    cluster.suite.txn_manager.commit = commit
    history.run("reader", cluster.suite.execute_batch,
                [("lookup", key) for key in KEYS])
    history.check()
    if scope == "straddle":
        stats["straddle"] = _straddles(history)
    return chooser, stats


def explore(scope, bound):
    """Run ``scope`` under every schedule with at most ``bound``
    preemptions (a switch away from a client that could have run on);
    yields each run's stats."""
    stack = [[]]
    while stack:
        prefix = stack.pop()
        script, stats = _run_schedule(
            scope, lambda probe: _Script(prefix, probe)
        )
        yield stats
        picks = [pick for _, pick, _ in script.trace]
        for i in range(len(prefix), len(script.trace)):
            options, default, _ = script.trace[i]
            for alt in range(len(options)):
                branch = picks[:i] + [alt]
                if alt != default and _preemptions(script.trace, branch) <= bound:
                    stack.append(branch)


def _tally(runs):
    runs = list(runs)
    return (
        len(runs),
        sum(s["overlapped"] for s in runs),
        sum(s["conflicts"] > 0 for s in runs),
        sum(s["straddle"] for s in runs),
    )


class TestEveryOrder:
    @pytest.mark.parametrize("scope", sorted(SCOPES))
    def test_every_schedule_within_one_preemption(self, scope):
        runs, overlapped, conflicted, straddled = _tally(explore(scope, 1))
        # The straddle scope's reader sends two messages, not eight.
        assert runs > (10 if scope == "straddle" else 40)
        if scope == "disjoint":
            # Writers on disjoint keys really run side by side.
            assert overlapped > 0
        if scope == "contended":
            assert conflicted > 0
        if scope == "straddle":
            # Without it the scope would show nothing the contract allows.
            assert straddled > 0

    @pytest.mark.parametrize("scope", sorted(SCOPES))
    def test_a_seeded_slice_of_unbounded_schedules(self, scope):
        rng = random.Random(f"baton-{scope}")
        runs = [
            _run_schedule(
                scope,
                lambda probe: lambda runnable, current: (
                    probe(), rng.choice(runnable)
                )[1],
            )[1]
            for _ in range(60)
        ]
        _, overlapped, _, _ = _tally(runs)
        if scope != "straddle":  # a released read holds no lock between messages
            assert overlapped > 0


def main(argv):
    bound = int(argv[1]) if len(argv) > 1 else 2
    total = 0
    for scope in sorted(SCOPES):
        runs, overlapped, conflicted, straddled = _tally(explore(scope, bound))
        total += runs
        print(
            f"{scope}: {runs} interleavings checked, {overlapped} with "
            f"both clients holding locks, {conflicted} with a "
            f"lock-conflict abort and retry, {straddled} straddling"
        )
    # A history check() rejects raises out of the walk, so every
    # interleaving counted is a history it accepted.
    print(
        f"{total} interleavings checked within {bound} preemptions; "
        f"check() accepted {total} histories"
    )


if __name__ == "__main__":
    main(sys.argv)
