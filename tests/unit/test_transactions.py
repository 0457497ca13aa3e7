"""Unit tests for transactions, the manager, and two-phase commit."""

import pytest

from repro.core.errors import (
    InvalidTransactionStateError,
    NodeDownError,
    TwoPhaseCommitError,
)
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint
from repro.txn.ids import TxnIdGenerator
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TxnState
from repro.txn.twopc import READ_ONLY, DecisionLog, TwoPhaseCoordinator
from repro.txn.transaction import Participant


class _Participant:
    """A scriptable 2PC participant service.  A ``READ_ONLY`` one votes
    read-only when the coordinator allows it (every time it is asked, as
    a representative that wrote nothing does) and yes when it does not.
    It keeps no record of what it served: asked ``prepare`` after a
    restart, it votes as before."""

    def __init__(self, vote=True):
        self.vote = vote
        self.prepared = []
        self.committed = []
        self.aborted = []

    def prepare(self, txn_id, read_only_votes=False):
        self.prepared.append(txn_id)
        if self.vote == READ_ONLY:
            if not read_only_votes:
                return True
            return READ_ONLY
        return self.vote

    def commit(self, txn_id):
        self.committed.append(txn_id)

    def abort(self, txn_id):
        self.aborted.append(txn_id)


def make_cluster(votes):
    """Network of participant services with given vote behaviours."""
    net = Network()
    rpc = RpcEndpoint(net, origin="client")
    services = {}
    participants = {}
    for i, vote in enumerate(votes):
        name = f"p{i}"
        node = net.add_node(f"node-{i}")
        svc = _Participant(vote)
        node.host("svc", svc)
        services[name] = svc
        participants[name] = Participant(f"node-{i}", "svc")
    return net, rpc, services, participants


class TestTxnIds:
    def test_monotone(self):
        gen = TxnIdGenerator()
        ids = [gen.next_id() for _ in range(5)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            TxnIdGenerator(start=0)


class TestTransaction:
    def test_enlist_records_participants(self):
        txn = Transaction(1)
        txn.enlist("A", "node-A", "dir:A")
        txn.enlist("A", "node-A", "dir:A")  # idempotent
        assert list(txn.participants) == ["A"]

    def test_enlist_after_finish_rejected(self):
        txn = Transaction(1, state=TxnState.COMMITTED)
        with pytest.raises(InvalidTransactionStateError):
            txn.enlist("A", "n", "s")

    def test_second_enlist_keeps_the_first_participant(self):
        txn = Transaction(1)
        txn.enlist("A", "node-A", "dir:A")
        first = txn.participants["A"]
        txn.enlist("A", "node-A2", "dir:A2")
        assert txn.participants["A"] is first
        assert first == Participant("node-A", "dir:A")

    def test_enlist_into_committed_raises_even_when_enlisted(self):
        txn = Transaction(1)
        txn.enlist("A", "node-A", "dir:A")
        txn.state = TxnState.COMMITTED
        with pytest.raises(InvalidTransactionStateError):
            txn.enlist("A", "node-A", "dir:A")
        with pytest.raises(InvalidTransactionStateError):
            txn.enlist("B", "node-B", "dir:B")
        assert list(txn.participants) == ["A"]

    def test_is_finished(self):
        assert not Transaction(1).is_finished
        assert Transaction(1, state=TxnState.ABORTED).is_finished


class TestDecisionLog:
    def test_decide_and_outcome(self):
        log = DecisionLog()
        log.decide(1, "commit")
        assert log.outcome(1) == "commit"
        assert log.outcome(2) is None

    def test_conflicting_decision_rejected(self):
        log = DecisionLog()
        log.decide(1, "commit")
        with pytest.raises(ValueError):
            log.decide(1, "abort")

    def test_repeated_same_decision_ok(self):
        log = DecisionLog()
        log.decide(1, "abort")
        log.decide(1, "abort")

    def test_bad_decision_rejected(self):
        with pytest.raises(ValueError):
            DecisionLog().decide(1, "maybe")

    def test_committed_ids(self):
        log = DecisionLog()
        log.decide(1, "commit")
        log.decide(2, "abort")
        log.decide(3, "commit")
        assert log.committed_ids() == frozenset({1, 3})

    def test_forget(self):
        log = DecisionLog()
        log.decide(1, "commit")
        log.forget(1)
        log.forget(2)  # never decided: nothing to drop
        assert log.outcome(1) is None and log.decisions == {}


class TestTwoPhaseCoordinator:
    def test_all_yes_commits(self):
        net, rpc, services, participants = make_cluster([True, True])
        coordinator = TwoPhaseCoordinator(rpc, DecisionLog())
        outcome = coordinator.commit(7, participants)
        assert outcome.committed
        for svc in services.values():
            assert svc.committed == [7]
            assert svc.aborted == []

    def test_one_no_vote_aborts_all(self):
        net, rpc, services, participants = make_cluster([True, False])
        coordinator = TwoPhaseCoordinator(rpc, DecisionLog())
        outcome = coordinator.commit(7, participants)
        assert not outcome.committed
        for svc in services.values():
            assert svc.aborted == [7]
            assert svc.committed == []

    def test_unreachable_participant_forces_abort(self):
        net, rpc, services, participants = make_cluster([True, True])
        net.node("node-1").crash()
        coordinator = TwoPhaseCoordinator(rpc, DecisionLog())
        outcome = coordinator.commit(7, participants)
        assert not outcome.committed
        assert outcome.votes["p1"] is False

    def test_decision_durable_before_completion(self):
        net, rpc, services, participants = make_cluster([True, True])
        log = DecisionLog()
        coordinator = TwoPhaseCoordinator(rpc, log)
        coordinator.commit(7, participants)
        assert log.outcome(7) == "commit"

    def test_participant_lost_in_phase_two_reported(self):
        net, rpc, services, participants = make_cluster([True, True])
        # Crash p1 after its prepare: monkeypatch prepare to crash the node.
        original = services["p1"].prepare

        def prepare_then_crash(txn_id):
            result = original(txn_id)
            net.node("node-1").crash()
            return result

        services["p1"].prepare = prepare_then_crash
        coordinator = TwoPhaseCoordinator(rpc, DecisionLog())
        outcome = coordinator.commit(7, participants)
        assert outcome.committed  # decision stands
        assert outcome.unreachable_at_completion == ("p1",)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_a_restarted_participant_is_aborted(self, parallel):
        """p1 restarts between the call that enlisted it and ``prepare``:
        its yes comes from a later incarnation, whose locks and effects
        the restart took, so the coordinator counts it no."""
        net, rpc, services, participants = make_cluster([True, True])
        net.node("node-1").crash()
        net.node("node-1").recover()
        log = DecisionLog()
        coordinator = TwoPhaseCoordinator(rpc, log, parallel=parallel)
        outcome = coordinator.commit(7, participants)
        assert not outcome.committed
        assert outcome.votes == {"p0": True, "p1": False}
        assert services["p1"].prepared == [7]  # it was asked, and said yes
        assert log.outcome(7) == "abort"
        for svc in services.values():
            assert (svc.committed, svc.aborted) == ([], [7])

    def test_abort_returns_unreachable(self):
        net, rpc, services, participants = make_cluster([True, True])
        net.node("node-0").crash()
        coordinator = TwoPhaseCoordinator(rpc, DecisionLog())
        unreachable = coordinator.abort(7, participants)
        assert unreachable == ("p0",)
        assert services["p1"].aborted == [7]


class TestReadOnlyVotes:
    """What the coordinator does with the third answer to ``prepare``."""

    def test_every_voter_read_only_commits_with_nothing_more(self):
        net, rpc, services, participants = make_cluster([READ_ONLY] * 2)
        log = DecisionLog()
        coordinator = TwoPhaseCoordinator(rpc, log)
        before = net.stats.rpc_rounds
        outcome = coordinator.commit(7, participants, read_only_votes=True)
        assert outcome.committed
        assert outcome.votes == {"p0": True, "p1": True}
        assert net.stats.rpc_rounds - before == 2  # the prepares only
        assert log.decisions == {}
        for svc in services.values():
            assert (svc.prepared, svc.committed, svc.aborted) == ([7], [], [])

    def test_read_only_voters_sit_out_phase_two(self):
        net, rpc, services, participants = make_cluster([READ_ONLY, True])
        log = DecisionLog()
        outcome = TwoPhaseCoordinator(rpc, log).commit(
            7, participants, read_only_votes=True
        )
        assert outcome.committed
        assert log.outcome(7) == "commit"
        assert services["p0"].committed == []
        assert services["p1"].committed == [7]

    def test_an_abort_skips_them_too(self):
        net, rpc, services, participants = make_cluster([READ_ONLY, False])
        outcome = TwoPhaseCoordinator(rpc, DecisionLog()).commit(
            7, participants, read_only_votes=True
        )
        assert not outcome.committed
        assert services["p0"].aborted == []
        assert services["p1"].aborted == [7]

    def test_without_the_flag_the_protocol_is_the_classic_one(self):
        net, rpc, services, participants = make_cluster([READ_ONLY, True])
        log = DecisionLog()
        outcome = TwoPhaseCoordinator(rpc, log).commit(7, participants)
        assert outcome.committed
        assert log.outcome(7) == "commit"
        for svc in services.values():
            assert (svc.prepared, svc.committed) == ([7], [7])

    @pytest.mark.parametrize("parallel", [False, True])
    def test_a_lost_read_only_reply_re_asked_commits(self, parallel):
        """Re-asking keeps a read-only vote: the voter still wrote
        nothing, so it answers read-only again and sits out phase two."""
        from repro.net.failures import LossEvent, ScriptedLoss

        net, rpc, services, participants = make_cluster([READ_ONLY, True])
        loss = ScriptedLoss([LossEvent("reply", "node-0", "svc.prepare", 0)])
        net.install_faults(loss)
        log = DecisionLog()
        coordinator = TwoPhaseCoordinator(
            rpc, log, completion_retries=2, parallel=parallel
        )
        outcome = coordinator.commit(7, participants, read_only_votes=True)
        assert loss.exhausted
        assert outcome.committed
        assert outcome.votes == {"p0": True, "p1": True}
        assert log.outcome(7) == "commit"
        assert services["p0"].prepared == [7, 7]
        assert (services["p0"].committed, services["p0"].aborted) == ([], [])
        assert (services["p1"].committed, services["p1"].aborted) == ([7], [])


class TestVotesInHand:
    """Participants whose vote rode on their last write are asked
    nothing in phase one and reached in phase two like any yes voter."""

    def test_voted_participants_get_no_prepare(self):
        net, rpc, services, participants = make_cluster([True, True, READ_ONLY])
        log = DecisionLog()
        before = net.stats.rpc_rounds
        outcome = TwoPhaseCoordinator(rpc, log).commit(
            7, participants, read_only_votes=True, voted={"p0", "p1"}
        )
        assert outcome.committed
        assert outcome.votes == {"p0": True, "p1": True, "p2": True}
        # One prepare (p2's, read-only), two commits.
        assert net.stats.rpc_rounds - before == 3
        assert log.outcome(7) == "commit"
        assert [svc.prepared for svc in services.values()] == [[], [], [7]]
        assert [svc.committed for svc in services.values()] == [[7], [7], []]

    def test_every_participant_voted_sends_the_decision_only(self):
        net, rpc, services, participants = make_cluster([True, True])
        log = DecisionLog()
        before = net.stats.rpc_rounds
        outcome = TwoPhaseCoordinator(rpc, log).commit(
            7, participants, read_only_votes=True, voted={"p0", "p1"}
        )
        assert outcome.committed
        assert net.stats.rpc_rounds - before == 2
        assert log.outcome(7) == "commit"
        for svc in services.values():
            assert (svc.prepared, svc.committed) == ([], [7])

    def test_a_no_vote_aborts_the_voted_too(self):
        net, rpc, services, participants = make_cluster([True, False])
        outcome = TwoPhaseCoordinator(rpc, DecisionLog()).commit(
            7, participants, read_only_votes=True, voted={"p0"}
        )
        assert not outcome.committed
        assert services["p0"].aborted == [7]
        assert services["p1"].aborted == [7]

    def test_no_participant_commits_with_nothing_sent(self):
        """A released read enlists no one: nothing to decide."""
        net, rpc, services, participants = make_cluster([])
        log = DecisionLog()
        outcome = TwoPhaseCoordinator(rpc, log).commit(
            7, {}, read_only_votes=True
        )
        assert outcome.committed
        assert net.stats.rpc_rounds == 0
        assert log.decisions == {}

    def test_no_participant_aborts_with_nothing_logged_or_sent(self):
        """Nobody can be in doubt about an abort that enlisted no one, so
        the acknowledged commit before it is still the one the log keeps
        (the one ``ResilientSuite`` probes)."""
        net, rpc, services, participants = make_cluster([True, True])
        log = DecisionLog()
        coordinator = TwoPhaseCoordinator(rpc, log)
        assert coordinator.commit(6, participants).committed
        before = net.stats.rpc_rounds
        assert coordinator.abort(7, {}) == ()
        assert net.stats.rpc_rounds == before
        assert log.decisions == {6: "commit"}
        assert coordinator._acknowledged == 6


class TestBoundedDecisionLog:
    """The log keeps the latest fully acknowledged decision and every
    decision whose delivery is still pending — nothing else."""

    def test_an_acknowledged_decision_replaces_the_previous_one(self):
        net, rpc, services, participants = make_cluster([True, True])
        log = DecisionLog()
        coordinator = TwoPhaseCoordinator(rpc, log)
        for txn_id in (1, 2, 3):
            coordinator.commit(txn_id, participants)
        coordinator.abort(4, participants)
        assert log.decisions == {4: "abort"}
        coordinator.commit(5, participants)
        assert log.decisions == {5: "commit"}

    def test_a_decision_not_delivered_everywhere_stays(self):
        net, rpc, services, participants = make_cluster([True, True])
        log = DecisionLog()
        coordinator = TwoPhaseCoordinator(rpc, log)
        coordinator.commit(1, participants)
        original = services["p1"].prepare

        def prepare_then_crash(txn_id):
            net.node("node-1").crash()
            return original(txn_id)

        services["p1"].prepare = prepare_then_crash
        outcome = coordinator.commit(2, participants)
        assert outcome.unreachable_at_completion == ("p1",)
        services["p1"].prepare = original
        net.node("node-1").recover()
        # Later transactions enlist p1 at its new incarnation, as the
        # suite's rounds would.
        participants["p1"] = Participant("node-1", "svc", 1)
        for txn_id in (3, 4):
            coordinator.commit(txn_id, participants)
        # 1 went when 3 was acknowledged, 3 when 4 was; 2 is in doubt at p1.
        assert log.decisions == {2: "commit", 4: "commit"}
        assert log.committed_ids() == frozenset({2, 4})


class TestTransactionManager:
    def _manager(self, votes):
        net, rpc, services, participants = make_cluster(votes)
        manager = TransactionManager(rpc)
        return net, manager, services, participants

    def test_begin_assigns_unique_ids(self):
        _net, manager, _svcs, _parts = self._manager([True])
        t1, t2 = manager.begin(), manager.begin()
        assert t1.txn_id != t2.txn_id

    def test_commit_success_path(self):
        _net, manager, services, participants = self._manager([True, True])
        txn = manager.begin()
        for name, part in participants.items():
            txn.enlist(name, part.node_id, part.service_name)
        manager.commit(txn)
        assert txn.state is TxnState.COMMITTED
        assert manager.commits == 1

    def test_commit_failure_raises_and_aborts(self):
        _net, manager, services, participants = self._manager([True, False])
        txn = manager.begin()
        for name, part in participants.items():
            txn.enlist(name, part.node_id, part.service_name)
        with pytest.raises(TwoPhaseCommitError):
            manager.commit(txn)
        assert txn.state is TxnState.ABORTED
        assert manager.aborts == 1

    def test_abort_idempotent(self):
        _net, manager, _svcs, _parts = self._manager([True])
        txn = manager.begin()
        manager.abort(txn)
        manager.abort(txn)  # second abort is a no-op
        assert manager.aborts == 1

    def test_abort_committed_rejected(self):
        _net, manager, _svcs, participants = self._manager([True])
        txn = manager.begin()
        txn.enlist("p0", participants["p0"].node_id, "svc")
        manager.commit(txn)
        with pytest.raises(InvalidTransactionStateError):
            manager.abort(txn)

    def test_deadlock_detection_wiring(self):
        from repro.core.keys import KeyRange
        from repro.txn.deadlock import detect_deadlock
        from repro.txn.locks import LockMode, LockTable

        t1, t2 = LockTable(), LockTable()
        t1.acquire(1, LockMode.REP_MODIFY, KeyRange.of(1, 2))
        t2.acquire(2, LockMode.REP_MODIFY, KeyRange.of(5, 6))
        t1.acquire(2, LockMode.REP_MODIFY, KeyRange.of(1, 2))
        t2.acquire(1, LockMode.REP_MODIFY, KeyRange.of(5, 6))
        found = detect_deadlock([t.waits_for_edges() for t in (t1, t2)])
        assert found is not None
        _cycle, victim = found
        assert victim == 2


class TestPhaseUnderLoss:
    """Serial and parallel are two ways to issue the same round: for the
    same dropped messages they must report the same replies."""

    #: A prepare whose reply is lost (re-asked, the vote stands), a
    #: prepare request lost twice, and a commit request lost once.
    _DROPS = [
        ("reply", "node-0", "svc.prepare", 0),
        ("request", "node-1", "svc.prepare", 0),
        ("request", "node-1", "svc.prepare", 1),
        ("request", "node-2", "svc.commit", 0),
    ]

    def _run(self, parallel, retries):
        from repro.net.failures import LossEvent, ScriptedLoss

        net, rpc, services, participants = make_cluster([True, True, True])
        loss = ScriptedLoss([LossEvent(*drop) for drop in self._DROPS])
        net.install_faults(loss)
        coordinator = TwoPhaseCoordinator(
            rpc, DecisionLog(), completion_retries=retries, parallel=parallel
        )
        prepared = coordinator._phase("prepare", 7, participants)
        outcome = coordinator.commit(8, participants)
        return prepared, outcome, services, loss

    @pytest.mark.parametrize("retries", [0, 1, 8])
    def test_serial_and_parallel_agree(self, retries):
        from repro.core.errors import NetworkError

        def verdicts(prepared):
            return {
                name: type(reply) if isinstance(reply, NetworkError) else reply
                for name, reply in prepared.items()
            }

        s_prepared, s_outcome, s_services, s_loss = self._run(False, retries)
        p_prepared, p_outcome, p_services, p_loss = self._run(True, retries)
        assert list(s_prepared) == list(p_prepared) == ["p0", "p1", "p2"]
        assert verdicts(s_prepared) == verdicts(p_prepared)
        assert s_outcome == p_outcome
        assert s_loss.fired == p_loss.fired
        for name in s_services:
            assert s_services[name].prepared == p_services[name].prepared
            assert s_services[name].committed == p_services[name].committed
            assert s_services[name].aborted == p_services[name].aborted

    def test_what_the_drops_do(self):
        from repro.core.errors import RpcTimeoutError

        # No retries: the lost reply and the lost request both stand as
        # timeouts, so phase one says no and the decision is abort.
        prepared, outcome, services, _ = self._run(False, 0)
        assert isinstance(prepared["p0"], RpcTimeoutError)
        assert isinstance(prepared["p1"], RpcTimeoutError)
        assert prepared["p2"] is True
        assert services["p0"].prepared == [7, 8]  # the effect was applied
        # Enough retries: every vote arrives, the commit's lost request is
        # re-sent, and nobody is unreachable at completion.
        prepared, outcome, services, loss = self._run(True, 8)
        assert prepared == {"p0": True, "p1": True, "p2": True}
        assert outcome.committed and outcome.unreachable_at_completion == ()
        assert loss.exhausted
        assert services["p2"].committed == [8]
