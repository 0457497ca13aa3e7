"""Unit tests for quorum policies."""

import random
from collections import Counter

import pytest

from repro.core.config import SuiteConfig
from repro.core.errors import QuorumUnavailableError
from repro.core.quorum import (
    LocalityQuorumPolicy,
    PreferredQuorumPolicy,
    QuorumPolicy,
    RandomQuorumPolicy,
    StickyQuorumPolicy,
)

CFG_322 = SuiteConfig.from_xyz("3-2-2")
CFG_423 = SuiteConfig.from_xyz("4-2-3")


class TestRandomPolicy:
    def test_quorum_carries_enough_votes(self):
        policy = RandomQuorumPolicy()
        rng = random.Random(1)
        for _ in range(50):
            quorum = policy.select("read", ["A", "B", "C"], CFG_322, rng)
            assert sum(CFG_322.votes[n] for n in quorum) >= 2

    def test_insufficient_votes_raise(self):
        policy = RandomQuorumPolicy()
        with pytest.raises(QuorumUnavailableError):
            policy.select("write", ["A"], CFG_322, random.Random(1))

    def test_uniform_coverage(self):
        policy = RandomQuorumPolicy()
        rng = random.Random(2)
        counts = Counter()
        for _ in range(3000):
            for n in policy.select("read", ["A", "B", "C"], CFG_322, rng):
                counts[n] += 1
        # Each representative should appear in roughly 2/3 of quorums.
        for n in "ABC":
            assert 1800 < counts[n] < 2200

    def test_zero_vote_reps_never_selected(self):
        config = SuiteConfig(
            votes={"A": 1, "B": 1, "C": 1, "HINT": 0},
            read_quorum=2,
            write_quorum=2,
        )
        policy = RandomQuorumPolicy()
        rng = random.Random(3)
        for _ in range(100):
            quorum = policy.select(
                "read", ["A", "B", "C", "HINT"], config, rng
            )
            assert "HINT" not in quorum

    def test_weighted_votes_respected(self):
        config = SuiteConfig(
            votes={"big": 3, "s1": 1, "s2": 1}, read_quorum=3, write_quorum=3
        )
        policy = RandomQuorumPolicy()
        rng = random.Random(4)
        for _ in range(50):
            quorum = policy.select("write", list(config.names), config, rng)
            assert sum(config.votes[n] for n in quorum) >= 3

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            QuorumPolicy.quorum_size("scribble", CFG_322)


class TestStickyPolicy:
    def test_reuses_quorum_while_available(self):
        policy = StickyQuorumPolicy()
        rng = random.Random(5)
        first = policy.select("write", ["A", "B", "C"], CFG_322, rng)
        for _ in range(20):
            assert policy.select("write", ["A", "B", "C"], CFG_322, rng) == first

    def test_repicks_when_member_unavailable(self):
        policy = StickyQuorumPolicy()
        rng = random.Random(6)
        first = policy.select("write", ["A", "B", "C"], CFG_322, rng)
        gone = first[0]
        remaining = [n for n in ["A", "B", "C"] if n != gone]
        replacement = policy.select("write", remaining, CFG_322, rng)
        assert gone not in replacement

    def test_switch_prob_one_behaves_randomly(self):
        policy = StickyQuorumPolicy(switch_prob=1.0)
        rng = random.Random(7)
        seen = set()
        for _ in range(60):
            seen.add(tuple(sorted(policy.select("write", ["A", "B", "C"], CFG_322, rng))))
        assert len(seen) == 3  # all three 2-subsets show up

    def test_read_and_write_tracked_separately(self):
        policy = StickyQuorumPolicy()
        rng = random.Random(8)
        read = policy.select("read", ["A", "B", "C"], CFG_322, rng)
        write = policy.select("write", ["A", "B", "C"], CFG_322, rng)
        # They may coincide by chance, but re-selection is independent.
        assert policy._last["read"] == read
        assert policy._last["write"] == write

    def test_bad_switch_prob_rejected(self):
        with pytest.raises(ValueError):
            StickyQuorumPolicy(switch_prob=1.5)


class TestPreferredPolicy:
    def test_takes_preference_order(self):
        policy = PreferredQuorumPolicy(preference=["C", "A", "B"])
        quorum = policy.select("read", ["A", "B", "C"], CFG_322, random.Random(9))
        assert quorum == ["C", "A"]

    def test_skips_unavailable_preferred(self):
        policy = PreferredQuorumPolicy(preference=["C", "A", "B"])
        quorum = policy.select("read", ["A", "B"], CFG_322, random.Random(9))
        assert quorum == ["A", "B"]

    def test_unlisted_reps_used_as_fallback(self):
        policy = PreferredQuorumPolicy(preference=["A"])
        quorum = policy.select("write", ["A", "B", "C"], CFG_322, random.Random(9))
        assert quorum[0] == "A" and len(quorum) == 2


class TestLocalityPolicy:
    """The Figure 16 4-2-3 example: A1, A2 local; B1, B2 remote."""

    def _config(self):
        return SuiteConfig(
            votes={"A1": 1, "A2": 1, "B1": 1, "B2": 1},
            read_quorum=2,
            write_quorum=3,
        )

    def test_reads_fully_local(self):
        config = self._config()
        policy = LocalityQuorumPolicy(local=["A1", "A2"])
        rng = random.Random(10)
        for _ in range(20):
            quorum = policy.select(
                "read", ["A1", "A2", "B1", "B2"], config, rng
            )
            assert quorum == ["A1", "A2"]

    def test_writes_rotate_remote_member(self):
        config = self._config()
        policy = LocalityQuorumPolicy(local=["A1", "A2"])
        rng = random.Random(11)
        remotes = []
        for _ in range(10):
            quorum = policy.select(
                "write", ["A1", "A2", "B1", "B2"], config, rng
            )
            assert set(quorum) >= {"A1", "A2"}
            remote = [n for n in quorum if n.startswith("B")]
            assert len(remote) == 1
            remotes.append(remote[0])
        # "evenly distributed among the remote representatives"
        counts = Counter(remotes)
        assert counts["B1"] == counts["B2"] == 5

    def test_falls_back_to_remote_reads_when_local_down(self):
        config = self._config()
        policy = LocalityQuorumPolicy(local=["A1", "A2"])
        quorum = policy.select(
            "read", ["A2", "B1", "B2"], config, random.Random(12)
        )
        assert quorum[0] == "A2" and len(quorum) == 2


class _FixedDetector:
    """Stand-in detector suspecting a fixed set of node ids."""

    def __init__(self, suspects):
        self._suspects = set(suspects)

    def is_suspect(self, node_id):
        return node_id in self._suspects


class TestDetectorScreening:
    def test_suspects_screened_out(self):
        policy = RandomQuorumPolicy()
        policy.bind_detector(_FixedDetector({"node-C"}), node_of=lambda n: f"node-{n}")
        rng = random.Random(1)
        for _ in range(50):
            quorum = policy.choose("read", ["A", "B", "C"], CFG_322, rng)
            assert "C" not in quorum

    def test_falls_back_when_survivors_cannot_carry_quorum(self):
        # Suspecting B and C leaves only 1 trusted vote for a 2-vote
        # quorum: screening must be abandoned, not fail the operation.
        policy = RandomQuorumPolicy()
        policy.bind_detector(_FixedDetector({"B", "C"}))
        quorum = policy.choose("write", ["A", "B", "C"], CFG_322, random.Random(2))
        assert sum(CFG_322.votes[n] for n in quorum) >= 2

    def test_screening_counters_published(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        policy = RandomQuorumPolicy()
        policy.bind_metrics(registry)
        policy.bind_detector(_FixedDetector({"C"}))
        policy.choose("read", ["A", "B", "C"], CFG_322, random.Random(3))
        assert registry.snapshot()["suite.quorum.read.suspects_screened"] == 1

    def test_fallback_counter_published(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        policy = RandomQuorumPolicy()
        policy.bind_metrics(registry)
        policy.bind_detector(_FixedDetector({"B", "C"}))
        policy.choose("write", ["A", "B", "C"], CFG_322, random.Random(4))
        assert registry.snapshot()["suite.quorum.write.suspect_fallbacks"] == 1

    def test_no_detector_means_no_screening(self):
        policy = RandomQuorumPolicy()
        quorum = policy.choose("read", ["A", "B", "C"], CFG_322, random.Random(5))
        assert sum(CFG_322.votes[n] for n in quorum) >= 2

    def test_the_nested_draw_does_not_put_a_screened_suspect_back(self):
        """B is in the read quorum the write quorum is drawn inside, but
        suspected by the time the write quorum is drawn: the draw tops
        the rest of the read quorum up from the trusted members."""
        policy = RandomQuorumPolicy()
        policy.bind_detector(_FixedDetector({"B"}))
        for seed in range(20):
            quorum = policy.choose(
                "write", ["A", "B", "C"], CFG_322, random.Random(seed),
                within=["B", "A"],
            )
            assert quorum == ["A", "C"]


class TestNestedDraw:
    """A served wave's write quorum, drawn inside its read quorum."""

    def test_r_at_least_w_takes_a_prefix_and_draws_nothing(self):
        config = SuiteConfig.from_xyz("5-4-3")
        rng = random.Random(6)
        state = rng.getstate()
        quorum = RandomQuorumPolicy().choose(
            "write", list("ABCDE"), config, rng, within=list("DBEA")
        )
        assert quorum == list("DBE")
        assert rng.getstate() == state

    def test_r_below_w_is_the_read_quorum_topped_up_by_the_policy(self):
        policy = PreferredQuorumPolicy(["C", "D", "A", "B"])
        quorum = policy.choose(
            "write", list("ABCD"), CFG_423, random.Random(7),
            within=["B", "A"],
        )
        assert quorum == ["B", "A", "C"]

    def test_a_read_member_gone_since_the_read_is_replaced(self):
        quorum = PreferredQuorumPolicy(["A", "B", "C"]).choose(
            "write", ["A", "C"], CFG_322, random.Random(8), within=["B", "A"]
        )
        assert quorum == ["A", "C"]
