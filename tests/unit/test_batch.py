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
    """Same contents, same version behind every key (present or gap)
    and behind a point in every gap between them, sound stores — on
    clusters whose quorum draws differed."""
    assert (
        cluster.suite.authoritative_state() == twin.suite.authoritative_state()
    )
    # "k~" sorts after k and everything k prefixes, before the next key.
    for key in [" ", *keys, *(key + "~" for key in keys)]:
        assert _highest_version(cluster, key) == _highest_version(twin, key), key
    cluster.check_invariants()
    twin.check_invariants()


def _assert_same_outcomes(batched, sequential):
    for b, s in zip(batched, sequential, strict=True):
        assert b.value == s.value, b.op
        assert type(b.error) is type(s.error), b.op


def _drive(cluster, script):
    """``script`` one op at a time through the classic path; a
    ``("prefer", "BCA")`` step re-orders a preferred-quorum policy, which
    is how a test plants a ghost or a missing copy on a chosen member."""
    for step in script:
        if step[0] == "prefer":
            cluster.suite.quorum_policy.preference = list(step[1])
        else:
            _fallback(cluster.suite, BatchOp(*step))


def _assert_same_wave(cluster, twin, batched, wave, script=()):
    """``wave`` ran grouped on ``cluster``; run it op by op on ``twin``
    (same history, same fixed quorums) and demand the same of both:
    replies, directory, per-key and per-gap versions, delete-overhead
    table and op counts."""
    sequential = [_fallback(twin.suite, BatchOp(*op)) for op in wave]
    _assert_same_outcomes(batched, sequential)
    keys = sorted({op[1] for op in [*script, *wave] if op[0] != "prefer"})
    _assert_same_directory(cluster, twin, keys)
    assert (
        cluster.suite.delete_stats.as_table()
        == twin.suite.delete_stats.as_table()
    )
    assert (
        cluster.metrics.snapshot()["suite.ops"]
        == twin.metrics.snapshot()["suite.ops"]
    )
    assert cluster.suite._batch_fallbacks.value == 0


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
        over two participants (4).  A wave of deletes on disjoint
        neighbourhoods pays one neighbour round and one candidate round
        (2R), one probe round and one coalesce round (2W) — and that is
        constant in n."""
        c = make_cluster(quorum_policy=PreferredQuorumPolicy(["A", "B", "C"]))
        for i in range(20):
            c.suite.insert(f"k{i:02d}", i)
        before = _messages(c)
        c.suite.delete("k01")
        assert _messages(c) - before == 2 + 14 + 4
        for n, first in ((1, 3), (2, 5), (5, 9)):
            before = _messages(c)
            outcomes = c.suite.execute_batch(
                [("delete", f"k{first + 2 * j:02d}") for j in range(n)]
            )
            assert all(o.ok for o in outcomes)
            assert _messages(c) - before == 2 + (2 * 2 + 2 * 2) + 4
        walks = c.metrics.snapshot()["suite.batch.walk_deletes"]
        assert (walks["n"], walks["max"]) == (3, 5)
        assert c.suite._batch_rewalks.value == 0

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_searches_past_ghosts_share_their_extra_rounds(
        self, make_cluster, batch_size
    ):
        """A keeps ghosts right of k03 and right of k07 (their deletes
        went to B and C).  Both searches step past theirs together: one
        more candidate round (R) and, at one result a message, one more
        neighbour message — to A alone, whose streams ran dry; three
        results a message had the next neighbour in hand already."""
        with _twin(
            quorum_policy=PreferredQuorumPolicy(["A", "B", "C"]),
            neighbor_batch_size=batch_size,
        ) as twin:
            c = make_cluster(
                quorum_policy=PreferredQuorumPolicy(["A", "B", "C"]),
                neighbor_batch_size=batch_size,
            )
            script = [("insert", f"k{i:02d}", i) for i in range(12)] + [
                ("prefer", "BCA"),
                ("delete", "k04"),
                ("delete", "k08"),
                ("prefer", "ABC"),
            ]
            _drive(c, script)
            _drive(twin, script)
            assert c.representatives["A"].contains(wrap("k04"))
            wave = [("delete", "k03"), ("delete", "k07"), ("delete", "k10")]
            before = _messages(c)
            batched = c.suite.execute_batch(wave)
            extra = (1 if batch_size == 1 else 0) + 2
            assert _messages(c) - before == 2 + 8 + extra + 4
            _assert_same_wave(c, twin, batched, wave, script)
            # Each ghost went with the range around it.
            assert c.suite.delete_stats.deletions_while_coalescing.max == 1

    def test_a_missing_boundary_is_installed_in_one_round(self, make_cluster):
        """k05 was inserted on B and C only, so A lacks the entry both
        k04 and k06 end their ranges on: one install message (to A) on
        top of the constant bill, and one insertion-while-coalescing,
        which is the first delete's — the second finds the copy there,
        as it would have in a sequential run."""
        with _twin(
            quorum_policy=PreferredQuorumPolicy(["A", "B", "C"])
        ) as twin:
            c = make_cluster(
                quorum_policy=PreferredQuorumPolicy(["A", "B", "C"])
            )
            script = [
                ("insert", f"k{i:02d}", i) for i in range(10) if i != 5
            ] + [("prefer", "BCA"), ("insert", "k05", 5), ("prefer", "ABC")]
            _drive(c, script)
            _drive(twin, script)
            assert not c.representatives["A"].contains(wrap("k05"))
            wave = [("delete", "k04"), ("delete", "k06")]
            before = _messages(c)
            batched = c.suite.execute_batch(wave)
            assert _messages(c) - before == 2 + 8 + 1 + 4
            _assert_same_wave(c, twin, batched, wave, script)
            stats = c.suite.delete_stats.insertions_while_coalescing
            assert (stats.n, stats.max, stats.avg) == (2, 1, 0.5)
            assert c.representatives["A"].contains(wrap("k05"))

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


class TestWalkersShareOrWait:
    """The wave's deletes search together and the independent ones
    coalesce together, ahead of the fold; a dependent one waits for its
    turn, flushes, and walks alone.  One case per clause of the rule,
    each against a sequential twin on the same fixed quorums — so the
    delete-overhead table and the op counts compare exactly too — and
    each saying how many shared and how many walked alone."""

    FIXED = ["A", "B", "C"]

    def _run(self, make_cluster, setup, wave, *, together, alone, **spec):
        with _twin(
            quorum_policy=PreferredQuorumPolicy(list(self.FIXED)), **spec
        ) as twin:
            cluster = make_cluster(
                quorum_policy=PreferredQuorumPolicy(list(self.FIXED)), **spec
            )
            _drive(cluster, setup)
            _drive(twin, setup)
            batched = cluster.suite.execute_batch(wave)
            _assert_same_wave(cluster, twin, batched, wave, setup)
        shared = cluster.metrics.snapshot()["suite.batch.walk_deletes"]
        assert (shared["n"], shared["max"] if shared["n"] else 0) == (
            (1, together) if together is not None else (0, 0)
        )
        assert cluster.suite._batch_rewalks.value == alone
        return cluster, batched

    SEVEN = [("insert", k, 0) for k in "abcdefg"]

    def test_disjoint_neighbourhoods_share_everything(self, make_cluster):
        self._run(
            make_cluster, self.SEVEN,
            [("delete", "b"), ("upsert", "g", 1), ("discard", "e")],
            together=2, alone=0,
        )

    @pytest.mark.parametrize("order", [("b", "d"), ("d", "b")])
    def test_adjacent_ranges_share_a_boundary_and_the_walk(
        self, make_cluster, order
    ):
        """(a, c) and (c, e) meet at c, which the wave leaves alone."""
        cluster, _ = self._run(
            make_cluster, self.SEVEN, [("delete", k) for k in order],
            together=2, alone=0,
        )
        assert cluster.suite.authoritative_state() == dict.fromkeys("acefg", 0)

    @pytest.mark.parametrize("order", [("c", "d"), ("d", "c")])
    def test_overlapping_ranges_keep_arrival_order(self, make_cluster, order):
        """Each is the other's neighbour: the second must find the
        first gone, and coalesce over the gap it left."""
        cluster, _ = self._run(
            make_cluster,
            self.SEVEN + [("update", order[0], 1)] * 3,
            [("delete", k) for k in order],
            together=0, alone=2,
        )
        # The first left a gap at 5; the second, over it, one at 6.
        assert _highest_version(cluster, order[0]) == 6

    def test_neighbour_inserted_earlier_in_the_wave(self, make_cluster):
        """``cc`` is still in the write buffer when ``d`` is deleted:
        the shared walk, on the replicas as they stood, found (c, e)."""
        cluster, _ = self._run(
            make_cluster, self.SEVEN + [("update", "d", 1)] * 3,
            [("insert", "cc", 1), ("delete", "d"), ("lookup", "cc")],
            together=0, alone=1,
        )
        assert cluster.suite.lookup("cc") == (True, 1)

    def test_neighbour_deleted_earlier_in_the_wave(self, make_cluster):
        """b's delete shares; d and e wait, and e finds c — not d — on
        its left."""
        cluster, _ = self._run(
            make_cluster, self.SEVEN,
            [("delete", "b"), ("delete", "d"), ("delete", "e")],
            together=1, alone=2,
        )
        assert cluster.suite.delete_stats.entries_coalesced.max == 1

    def test_a_written_boundary_makes_its_walker_wait(self, make_cluster):
        """c is d's real predecessor and the wave rewrites it."""
        self._run(
            make_cluster, self.SEVEN,
            [("update", "c", 1), ("delete", "d")],
            together=0, alone=1,
        )

    def test_set_then_delete_of_one_key(self, make_cluster):
        """Absent before the wave: no shared walk is even tried."""
        cluster, batched = self._run(
            make_cluster, self.SEVEN,
            [("upsert", "cc", 1), ("delete", "cc"), ("lookup", "cc")],
            together=None, alone=1,
        )
        assert batched[2].value == (False, None)
        # gap 0 -> entry 1 -> gap 2
        assert _highest_version(cluster, "cc") == 2

    def test_delete_then_insert_of_one_key(self, make_cluster):
        cluster, _ = self._run(
            make_cluster, self.SEVEN + [("update", "d", 1)] * 3,
            [("delete", "d"), ("insert", "d", 9), ("delete", "b")],
            together=1, alone=1,
        )
        assert cluster.suite.lookup("d") == (True, 9)
        # entry 4 -> gap 5 -> entry 6
        assert _highest_version(cluster, "d") == 6

    def test_reads_and_refusals_inside_a_range_do_not_hold_it(
        self, make_cluster
    ):
        """Nothing is written at ``cc`` or ``dd``, and the second
        ``delete d`` is refused from the fold: d still shares."""
        _, batched = self._run(
            make_cluster, self.SEVEN,
            [
                ("lookup", "cc"),
                ("update", "dd", 1),
                ("delete", "d"),
                ("lookup", "dd"),
                ("delete", "d"),
                ("insert", "c", 1),
            ],
            together=1, alone=0,
        )
        assert isinstance(batched[1].error, KeyNotPresentError)
        assert isinstance(batched[4].error, KeyNotPresentError)
        assert isinstance(batched[5].error, KeyAlreadyPresentError)

    def test_the_wave_draws_one_read_and_one_write_quorum(self, cluster):
        suite = cluster.suite
        for k in "abcdefg":
            suite.insert(k, 0)
        drawn = {k: s.n for k, s in suite._quorum_members.items()}
        suite.execute_batch(
            [("delete", "b"), ("insert", "cc", 1), ("delete", "d"),
             ("delete", "f"), ("upsert", "a", 2)]
        )
        assert {k: s.n - drawn[k] for k, s in suite._quorum_members.items()} == {
            "read": 1, "write": 1,
        }


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
    def _before_round(monkeypatch, suite, method, then, nth=1):
        """Call ``then()`` once, just before the wave's ``nth`` round of
        ``method`` goes out; the transaction is open, and every earlier
        round is on the replicas."""
        send, seen = suite._round, []

        def hooked(txn, calls):
            if calls and calls[0][1] == method:
                seen.append(method)
                if len(seen) == nth:
                    then()
            return send(txn, calls)

        monkeypatch.setattr(suite, "_round", hooked)

    WAVE = [
        ("insert", "gg", 1),
        ("delete", "b"),
        ("upsert", "g", 1),
        ("delete", "e"),
        ("lookup", "a"),
    ]

    def _lose(self, make_cluster, monkeypatch, crash):
        """Run :attr:`WAVE` — b and e share their walk — with ``crash``
        going down just before the coalesce round, on A and B always."""
        cluster = make_cluster(
            quorum_policy=PreferredQuorumPolicy(["A", "B", "C"])
        )
        suite = cluster.suite
        for key in "abcdefg":
            suite.insert(key, 0)
        stores = {
            name: rep.store.snapshot()
            for name, rep in cluster.representatives.items()
        }
        ops = suite.metrics.snapshot()["suite.ops"]
        overhead = suite.delete_stats.as_table()
        fallbacks = suite._batch_fallbacks.value
        coalesces = self._coalesce_records(cluster)

        def lose_the_quorum():
            for name in crash:
                cluster.crash(name)

        self._before_round(
            monkeypatch, suite, "rep_coalesce_many", lose_the_quorum
        )
        outcomes = suite.execute_batch(self.WAVE)
        assert suite._batch_fallbacks.value == fallbacks + 1
        # Each op then answered for itself.
        assert all(
            isinstance(o.error, QuorumUnavailableError) for o in outcomes
        )
        applied = {
            name: n - coalesces[name]
            for name, n in self._coalesce_records(cluster).items()
        }
        for name in crash:
            cluster.recover(name)
        for name, rep in cluster.representatives.items():
            assert rep.store.snapshot() == stores[name], name
            assert rep.locks.is_idle(), name
        # Nothing is counted for work that was rolled back: the table is
        # as it was, and the op counts hold what the fallback's five
        # public calls counted, plus the abort.
        assert suite.delete_stats.as_table() == overhead
        after = suite.metrics.snapshot()["suite.ops"]
        assert after["deletes"] == ops["deletes"] + 2
        assert after["failed"] == ops["failed"] + 1 + 5
        assert suite.authoritative_state() == dict.fromkeys("abcdefg", 0)
        return applied

    @staticmethod
    def _coalesce_records(cluster):
        return {
            name: sum(1 for r in rep.wal.records if r.kind == "coalesce")
            for name, rep in cluster.representatives.items()
        }

    def test_quorum_lost_between_the_walk_and_the_coalesce(
        self, make_cluster, monkeypatch
    ):
        """The whole write quorum goes down with both ranges searched
        and probed and neither applied."""
        applied = self._lose(make_cluster, monkeypatch, crash="AB")
        assert applied == {"A": 0, "B": 0, "C": 0}

    def test_quorum_lost_after_the_first_coalesce_aborts_the_wave_whole(
        self, make_cluster, monkeypatch
    ):
        """B and C go down; A takes ``rep_coalesce_many`` — both ranges
        — and B never answers.  The wave aborts whole, and A puts each
        range back from its own undo record."""
        applied = self._lose(make_cluster, monkeypatch, crash="BC")
        assert applied == {"A": 2, "B": 0, "C": 0}

    def test_a_wave_that_falls_back_records_each_delete_once(
        self, cluster, monkeypatch
    ):
        """The quorum is lost for one round only — the second coalesce
        round, with the shared one on every replica that took it.  The
        wave aborts, and the fallback then succeeds: same answers, same
        directory as a twin that never failed, and one delete-overhead
        sample per delete."""
        suite = cluster.suite
        wave = [
            ("insert", "bb", 1),
            ("delete", "b"),
            ("delete", "d"),
            ("insert", "b", 2),
            ("discard", "bb"),
        ]

        def fail_this_round():
            raise QuorumUnavailableError(2, 1, "write")

        with _twin() as twin:
            for key in "abcde":
                suite.insert(key, 0)
                twin.suite.insert(key, 0)
            self._before_round(
                monkeypatch, suite, "rep_coalesce_many", fail_this_round, nth=2
            )
            batched = suite.execute_batch(wave)
            assert suite._batch_fallbacks.value == 1
            # d shared (and was undone); b was walking alone.
            assert suite._batch_walk_deletes.max == 1
            assert suite._batch_rewalks.value == 1
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
