"""Unit tests for the grouped quorum round (:mod:`repro.core.batch`).

The engine's contract is *exact* equivalence with sequential execution:
one wave of ops shares a transaction, one read round, one write round,
and one 2PC, yet every op observes the presence/version/value its
predecessors in the wave established, per-op logical errors surface as
outcomes without poisoning neighbours, and the committed state matches
a sequential run bit for bit.  Parameterized over the sim transport
(serial and parallel fan-out) and real asyncio sockets with parallel
fan-out — the combination the batched service front door actually runs.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterSpec, DirectoryCluster
from repro.core.batch import (
    BATCH_KINDS,
    BatchOp,
    BatchOutcome,
    _fallback,
    _single,
    execute_batch,
)
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    QuorumUnavailableError,
)
from repro.core.keys import wrap
from repro.core.quorum import PreferredQuorumPolicy


def _committed_version(cluster, key):
    """The authoritative (highest present) version of ``key`` — the one
    any read quorum elects, straight off the replica stores."""
    return max(
        reply.version
        for rep in cluster.representatives.values()
        for reply in [rep.store.lookup(wrap(key))]
        if reply.present
    )


def _highest_version(cluster, key):
    """The highest version any replica holds for ``key`` — its entry's,
    or that of the gap it falls in.  What the next write of the key
    chains from, whichever quorum it reads."""
    return max(
        rep.store.lookup(wrap(key)).version
        for rep in cluster.representatives.values()
    )


def _messages(cluster):
    """Logical RPCs so far: the simulator's rounds, or the asyncio
    transport's ``service.rpc.calls`` (the conformance suite holds the
    two equal)."""
    try:
        return cluster.network.stats.rpc_rounds
    except AttributeError:
        return cluster.metrics.counter("service.rpc.calls").value


def _twin(**spec):
    """A 3-2-2 cluster at this suite's seed: sim-serial — the sequential
    side of a comparison — unless ``spec`` says otherwise."""
    return DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=11, **spec))


def _assert_same_directory(cluster, twin, keys):
    """Same contents, same version behind every key (present or gap),
    sound stores — on clusters whose quorum draws differed."""
    assert (
        cluster.suite.authoritative_state() == twin.suite.authoritative_state()
    )
    for key in keys:
        assert _highest_version(cluster, key) == _highest_version(twin, key), key
    cluster.check_invariants()
    twin.check_invariants()


def _assert_same_outcomes(batched, sequential):
    for b, s in zip(batched, sequential, strict=True):
        assert b.value == s.value, b.op
        assert type(b.error) is type(s.error), b.op


MODES = [("sim", "serial"), ("sim", "parallel"), ("asyncio", "parallel")]


@pytest.fixture(params=MODES, ids=[f"{t}-{f}" for t, f in MODES])
def make_cluster(request):
    """Identically seeded clusters in this mode, closed at teardown."""
    transport, fanout = request.param
    made = []

    def make(**spec):
        made.append(_twin(transport=transport, fanout=fanout, **spec))
        return made[-1]

    yield make
    for c in made:
        c.close()


@pytest.fixture()
def cluster(make_cluster):
    return make_cluster()


class TestWaveSemantics:
    def test_mixed_wave_outcomes_in_order(self, cluster):
        suite = cluster.suite
        suite.insert("seed", "s0")
        outcomes = suite.execute_batch(
            [
                BatchOp("lookup", "seed"),
                BatchOp("insert", "a", 1),
                BatchOp("upsert", "seed", "s1"),
                BatchOp("lookup", "a"),
                BatchOp("update", "a", 2),
            ]
        )
        assert [o.op.kind for o in outcomes] == [
            "lookup",
            "insert",
            "upsert",
            "lookup",
            "update",
        ]
        assert all(o.ok for o in outcomes)
        assert outcomes[0].value == (True, "s0")
        # Op 3 observes op 1's insert within the same wave.
        assert outcomes[3].value == (True, 1)
        assert suite.lookup("a") == (True, 2)
        assert suite.lookup("seed") == (True, "s1")

    def test_per_op_errors_do_not_poison_neighbours(self, cluster):
        suite = cluster.suite
        suite.insert("taken", 0)
        outcomes = suite.execute_batch(
            [
                BatchOp("insert", "taken", 1),  # present: per-op error
                BatchOp("insert", "fresh", 2),  # must still commit
                BatchOp("update", "ghost", 3),  # absent: per-op error
                BatchOp("lookup", "taken"),
            ]
        )
        assert isinstance(outcomes[0].error, KeyAlreadyPresentError)
        assert outcomes[1].ok
        assert isinstance(outcomes[2].error, KeyNotPresentError)
        # The failed insert changed nothing: lookup sees the old value.
        assert outcomes[3].value == (True, 0)
        with pytest.raises(KeyAlreadyPresentError):
            outcomes[0].unwrap()
        assert suite.lookup("fresh") == (True, 2)
        assert suite.lookup("ghost") == (False, None)

    def test_same_key_folds_to_final_write(self, cluster):
        suite = cluster.suite
        outcomes = suite.execute_batch(
            [
                BatchOp("upsert", "k", "v1"),
                BatchOp("lookup", "k"),
                BatchOp("upsert", "k", "v2"),
                BatchOp("insert", "k", "v3"),  # now present: error
                BatchOp("upsert", "k", "v4"),
            ]
        )
        assert outcomes[1].value == (True, "v1")
        assert isinstance(outcomes[3].error, KeyAlreadyPresentError)
        assert suite.lookup("k") == (True, "v4")

    def test_folded_versions_match_sequential(self, cluster):
        """The n-th write of a key gets the version n sequential
        transactions would have assigned (gap splits keep the old gap's
        version on both halves, so chaining successor() per fold step is
        exact)."""
        suite = cluster.suite
        suite.execute_batch(
            [BatchOp("upsert", "k", i) for i in range(4)]
        )
        batched = _committed_version(cluster, "k")
        twin = DirectoryCluster.create(ClusterSpec(config="3-2-2", seed=11))
        try:
            twin.suite.insert("k", 0)
            for i in range(1, 4):
                twin.suite.update("k", i)
            assert batched == _committed_version(twin, "k")
        finally:
            twin.close()

    def test_equivalence_with_sequential_execution(self, cluster):
        """A seeded script over every batchable kind, cut into waves of
        2-13 ops, answers what a sequential twin answers op for op and
        leaves the same directory: contents, and the version behind
        every key drawn — entry or gap — so the next write of any of
        them chains identically."""
        rng = random.Random(4242)
        script = []
        for _ in range(400):
            kind = rng.choice(BATCH_KINDS)
            key = f"k{rng.randrange(12)}"
            value = (
                rng.randrange(100)
                if kind in ("insert", "update", "upsert")
                else None
            )
            script.append(BatchOp(kind, key, value))
        assert {op.kind for op in script} == set(BATCH_KINDS)

        batched, start = [], 0
        while start < len(script):
            size = rng.randrange(2, 14)
            batched.extend(
                cluster.suite.execute_batch(script[start : start + size])
            )
            start += size

        with _twin() as twin:
            sequential = [_fallback(twin.suite, op) for op in script]
            _assert_same_outcomes(batched, sequential)
            _assert_same_directory(
                cluster, twin, sorted({op.key for op in script})
            )
        assert cluster.suite._batch_fallbacks.value == 0

    def test_empty_and_tuple_forms(self, cluster):
        suite = cluster.suite
        assert suite.execute_batch([]) == []
        outcomes = suite.execute_batch([("upsert", "t", 9), ("lookup", "t")])
        assert outcomes[1].value == (True, 9)

    def test_unbatchable_kind_rejected(self, cluster):
        with pytest.raises(ValueError, match="unbatchable"):
            cluster.suite.execute_batch([BatchOp("size", "k")])

    def test_op_counts_match_sequential_accounting(self, cluster):
        suite = cluster.suite
        suite.insert("present", 0)
        base = (
            suite.op_counts.lookups,
            suite.op_counts.inserts,
            suite.op_counts.updates,
            suite.op_counts.failed,
        )
        suite.execute_batch(
            [
                BatchOp("lookup", "present"),
                BatchOp("insert", "present", 1),  # counted + failed
                BatchOp("upsert", "present", 2),  # counts as update
                BatchOp("upsert", "new", 3),  # counts as insert
            ]
        )
        assert (
            suite.op_counts.lookups - base[0],
            suite.op_counts.inserts - base[1],
            suite.op_counts.updates - base[2],
            suite.op_counts.failed - base[3],
        ) == (1, 2, 1, 1)


class TestDeletesInTheFold:
    """A delete is a step of the fold: it flushes what the wave has
    written so far, runs Figure 13 from the neighbour search on inside
    the shared transaction, and leaves the fold knowing the coalesced
    range is a gap at the new version."""

    @staticmethod
    def _against_twin(cluster, setup, wave):
        """``setup`` one op at a time on both sides, then ``wave`` as
        one grouped transaction here and op by op on a twin."""
        with _twin() as twin:
            for op in setup:
                _single(cluster.suite, *op)
                _single(twin.suite, *op)
            batched = cluster.suite.execute_batch(wave)
            sequential = [_fallback(twin.suite, BatchOp(*op)) for op in wave]
            _assert_same_outcomes(batched, sequential)
            _assert_same_directory(
                cluster, twin, sorted({op[1] for op in setup + wave})
            )
        assert cluster.suite._batch_fallbacks.value == 0
        return batched

    def test_insert_delete_insert_of_one_key(self, cluster):
        outcomes = self._against_twin(
            cluster,
            [("insert", "a", 0), ("insert", "z", 0)],
            [
                ("insert", "k", 1),
                ("lookup", "k"),
                ("delete", "k"),
                ("lookup", "k"),
                ("insert", "k", 2),
                ("discard", "k"),
                ("discard", "k"),
                ("upsert", "k", 3),
            ],
        )
        assert [o.value for o in outcomes] == [
            None, (True, 1), None, (False, None), None, 1, 0, None,
        ]
        assert cluster.suite.lookup("k") == (True, 3)
        # gap 0 -> entry 1 -> gap 2 -> entry 3 -> gap 4 -> entry 5
        assert _highest_version(cluster, "k") == 5

    def test_real_neighbour_inserted_earlier_in_the_wave(self, cluster):
        """``b`` exists only in the wave's write buffer when ``c`` is
        deleted; unflushed, the walk would pass it by, the coalesce
        would span (a, e), and ``b`` — installed afterwards below the
        new gap's version — would read as absent."""
        self._against_twin(
            cluster,
            [("insert", k, 0) for k in "ace"] + [("update", "c", 1)] * 3,
            [("insert", "b", 1), ("insert", "d", 1), ("delete", "c")],
        )
        assert cluster.suite.authoritative_state() == {
            "a": 0, "b": 1, "d": 1, "e": 0,
        }
        # Only c lay between its real neighbours b and d.
        assert cluster.suite.delete_stats.entries_coalesced.max == 1

    def test_two_deletes_with_overlapping_ranges(self, cluster):
        outcomes = self._against_twin(
            cluster,
            [("insert", k, 0) for k in "abcde"],
            [
                ("delete", "b"),  # coalesces (a, c)
                ("delete", "c"),  # coalesces (a, d): over the first
                ("lookup", "b"),
                ("delete", "b"),  # gone: refused from the fold state
                ("insert", "b", 1),  # chains off the second gap
                ("delete", "d"),  # real predecessor: the b just written
            ],
        )
        assert outcomes[2].value == (False, None)
        assert isinstance(outcomes[3].error, KeyNotPresentError)
        assert cluster.suite.authoritative_state() == {"a": 0, "b": 1, "e": 0}

    def test_insert_into_a_gap_the_wave_just_coalesced(self, cluster):
        """``bb`` was read absent at the old gap's version 0; the delete
        of ``b`` (version 4) leaves a gap at 5 over (a, c), so the
        insert must take 6 — at 1 it would lose to the gap."""
        self._against_twin(
            cluster,
            [("insert", k, 0) for k in "abc"] + [("update", "b", 1)] * 3,
            [("lookup", "bb"), ("delete", "b"), ("insert", "bb", 7)],
        )
        assert _highest_version(cluster, "b") == 5
        assert _highest_version(cluster, "bb") == 6
        assert cluster.suite.lookup("bb") == (True, 7)

    def test_deletes_of_absent_keys_cost_no_message(self, make_cluster):
        """Refused from the fold state: the wave with them sends what
        the wave without them sends."""
        wave = [("upsert", "a", 1), ("delete", "b"), ("lookup", "c")]
        refused = [("delete", "x"), ("discard", "y"), ("delete", "b")]
        costs = []
        for extra in ([], refused):
            c = make_cluster()
            for key in "abc":
                c.suite.insert(key, 0)
            before = _messages(c)
            outcomes = c.suite.execute_batch(wave + extra)
            costs.append(_messages(c) - before)
        assert isinstance(outcomes[3].error, KeyNotPresentError)
        assert outcomes[4].value == 0
        assert isinstance(outcomes[5].error, KeyNotPresentError)
        assert costs[0] == costs[1] > 0

    def test_n_deletes_cost_one_read_round_and_one_commit(self, make_cluster):
        """Exact, on quorums that do not move (always A and B of 3-2-2):
        a classic delete is a lookup (R = 2), Figure 13 from the walk on
        (two searches of 2 + 2, 4 probes, 2 coalesces = 14) and a 2PC
        over two participants (4).  A wave of n deletes on disjoint
        neighbourhoods pays the 14 n times and the rest once."""
        c = make_cluster(quorum_policy=PreferredQuorumPolicy(["A", "B", "C"]))
        for i in range(20):
            c.suite.insert(f"k{i:02d}", i)
        before = _messages(c)
        c.suite.delete("k01")
        assert _messages(c) - before == 2 + 14 + 4
        for n, first in ((2, 3), (5, 8)):
            before = _messages(c)
            outcomes = c.suite.execute_batch(
                [("delete", f"k{first + 2 * j:02d}") for j in range(n)]
            )
            assert all(o.ok for o in outcomes)
            assert _messages(c) - before == 2 + 14 * n + 4

    def test_a_set_counts_the_same_alone_and_in_a_wave(self, make_cluster):
        """One transaction either way, counted as the insert or the
        update it turned out to be."""
        counts, costs = [], []
        for run in (
            lambda suite, op: _single(suite, *op),
            lambda suite, op: suite.execute_batch([op]),
        ):
            c = make_cluster()
            c.suite.insert("present", 0)
            before = _messages(c)
            run(c.suite, ("upsert", "present", 1))
            run(c.suite, ("upsert", "absent", 1))
            costs.append(_messages(c) - before)
            counts.append(c.metrics.snapshot()["suite.ops"])
            assert c.suite.authoritative_state() == {"present": 1, "absent": 1}
        assert counts[0] == counts[1]
        assert (counts[0]["inserts"], counts[0]["updates"]) == (2, 1)
        assert counts[0]["failed"] == 0
        assert costs[0] == costs[1]


class TestFallbackAndMetrics:
    def test_quorum_loss_falls_back_per_op(self, cluster):
        suite = cluster.suite
        suite.insert("x", 1)
        cluster.crash("A")
        cluster.crash("B")
        before = suite._batch_fallbacks.value
        outcomes = suite.execute_batch(
            [BatchOp("lookup", "x"), BatchOp("upsert", "x", 2)]
        )
        assert suite._batch_fallbacks.value == before + 1
        # The grouped transaction aborted whole; each op then surfaces
        # its own availability error instead of failing the wave.
        assert all(
            isinstance(o.error, QuorumUnavailableError) for o in outcomes
        )
        cluster.recover("A")
        cluster.recover("B")
        # No partial effects survived the abort.
        assert suite.lookup("x") == (True, 1)
        outcomes = suite.execute_batch([BatchOp("upsert", "x", 2)])
        assert outcomes[0].ok
        assert suite.lookup("x") == (True, 2)

    @staticmethod
    def _after_first_coalesce(monkeypatch, suite, then):
        """Call ``then()`` once, when the wave's first coalesce is on
        the replicas and the transaction is still open."""
        coalesce, fired = suite._coalesce_around, []

        def hooked(*args):
            result = coalesce(*args)
            if not fired:
                fired.append(True)
                then()
            return result

        monkeypatch.setattr(suite, "_coalesce_around", hooked)

    def test_quorum_lost_after_the_first_coalesce_aborts_the_wave_whole(
        self, make_cluster, monkeypatch
    ):
        """A and B hold every write; B and C crash with the first
        delete's coalesce applied.  The wave aborts whole — A undoes the
        coalesce and the flushed insert — and each op then answers for
        itself; nothing is counted for work that was rolled back."""
        cluster = make_cluster(
            quorum_policy=PreferredQuorumPolicy(["A", "B", "C"])
        )
        suite = cluster.suite
        for key in "abcde":
            suite.insert(key, 0)
        stores = {
            name: rep.store.snapshot()
            for name, rep in cluster.representatives.items()
        }
        ops, overhead = suite.metrics.snapshot()["suite.ops"], (
            suite.delete_stats.as_table()
        )
        fallbacks = suite._batch_fallbacks.value

        def lose_the_quorum():
            cluster.crash("B")
            cluster.crash("C")

        self._after_first_coalesce(monkeypatch, suite, lose_the_quorum)
        outcomes = suite.execute_batch(
            [
                ("insert", "bb", 1),
                ("delete", "b"),
                ("upsert", "c", 1),
                ("delete", "d"),
                ("lookup", "a"),
            ]
        )
        assert suite._batch_fallbacks.value == fallbacks + 1
        assert all(
            isinstance(o.error, QuorumUnavailableError) for o in outcomes
        )
        cluster.recover("B")
        cluster.recover("C")
        for name, rep in cluster.representatives.items():
            assert rep.store.snapshot() == stores[name], name
            assert rep.locks.is_idle(), name
        assert suite.delete_stats.as_table() == overhead
        after = suite.metrics.snapshot()["suite.ops"]
        # What the fallback's five public calls counted, and the abort.
        assert after["deletes"] == ops["deletes"] + 2
        assert after["failed"] == ops["failed"] + 1 + 5
        assert suite.authoritative_state() == dict.fromkeys("abcde", 0)

    def test_a_wave_that_falls_back_records_each_delete_once(
        self, cluster, monkeypatch
    ):
        """The quorum is lost for one round only: the wave aborts with
        a coalesce on every replica that took it, and the fallback then
        succeeds — same answers, same directory as a twin that never
        failed, and one delete-overhead sample per delete."""
        suite = cluster.suite
        wave = [
            ("insert", "bb", 1),
            ("delete", "b"),
            ("delete", "d"),
            ("insert", "b", 2),
            ("discard", "bb"),
        ]

        def fail_the_next_round():
            collect = suite._collect_quorum

            def once(kind):
                monkeypatch.setattr(suite, "_collect_quorum", collect)
                raise QuorumUnavailableError(2, 1, kind)

            monkeypatch.setattr(suite, "_collect_quorum", once)

        with _twin() as twin:
            for key in "abcde":
                suite.insert(key, 0)
                twin.suite.insert(key, 0)
            self._after_first_coalesce(monkeypatch, suite, fail_the_next_round)
            batched = suite.execute_batch(wave)
            assert suite._batch_fallbacks.value == 1
            sequential = [_fallback(twin.suite, BatchOp(*op)) for op in wave]
            _assert_same_outcomes(batched, sequential)
            _assert_same_directory(cluster, twin, list("abcde") + ["bb"])
            assert (
                suite.delete_stats.deletions_while_coalescing.n
                == twin.suite.delete_stats.deletions_while_coalescing.n
                == 3
            )
        for name, rep in cluster.representatives.items():
            assert rep.locks.is_idle(), name

    def test_wave_metrics(self, cluster):
        suite = cluster.suite
        waves, ops = suite._batch_size.n, suite._batch_ops.value
        suite.execute_batch([BatchOp("upsert", f"m{i}", i) for i in range(5)])
        suite.execute_batch([BatchOp("lookup", "m0")])
        assert suite._batch_size.n == waves + 2
        assert suite._batch_ops.value == ops + 6
        snapshot = suite.metrics.snapshot()
        sizes = [
            row
            for name, row in snapshot.items()
            if name.endswith("suite.batch.size") and isinstance(row, dict)
        ]
        assert sizes and sizes[0]["n"] == suite._batch_size.n

    def test_module_function_matches_method(self, cluster):
        outcomes = execute_batch(cluster.suite, [BatchOp("upsert", "f", 1)])
        assert isinstance(outcomes[0], BatchOutcome) and outcomes[0].ok
        assert cluster.suite.lookup("f") == (True, 1)
