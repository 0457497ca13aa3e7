"""Unit tests for transactions, the manager, and two-phase commit."""

import pytest

from repro.core.errors import (
    InvalidTransactionStateError,
    NodeDownError,
    TransactionAbortedError,
    TwoPhaseCommitError,
)
from repro.net.network import Network
from repro.net.rpc import RpcEndpoint
from repro.txn.ids import TxnIdGenerator
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TxnState
from repro.txn.twopc import DecisionLog, TwoPhaseCoordinator
from repro.txn.transaction import Participant


class _Participant:
    """A scriptable 2PC participant service."""

    def __init__(self, vote=True):
        self.vote = vote
        self.prepared = []
        self.committed = []
        self.aborted = []

    def prepare(self, txn_id):
        self.prepared.append(txn_id)
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

    def test_abort_returns_unreachable(self):
        net, rpc, services, participants = make_cluster([True, True])
        net.node("node-0").crash()
        coordinator = TwoPhaseCoordinator(rpc, DecisionLog())
        unreachable = coordinator.abort(7, participants)
        assert unreachable == ("p0",)
        assert services["p1"].aborted == [7]


class TestTransactionManager:
    def _manager(self, votes):
        net, rpc, services, participants = make_cluster(votes)
        manager = TransactionManager(rpc)
        return net, manager, services, participants

    def test_begin_assigns_unique_ids(self):
        _net, manager, _svcs, _parts = self._manager([True])
        t1, t2 = manager.begin(), manager.begin()
        assert t1.txn_id != t2.txn_id
        assert len(manager.live_transactions()) == 2

    def test_commit_success_path(self):
        _net, manager, services, participants = self._manager([True, True])
        txn = manager.begin()
        for name, part in participants.items():
            txn.enlist(name, part.node_id, part.service_name)
        manager.commit(txn)
        assert txn.state is TxnState.COMMITTED
        assert manager.commits == 1
        assert manager.live_transactions() == []

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

    def test_abort_and_raise(self):
        _net, manager, _svcs, _parts = self._manager([True])
        txn = manager.begin()
        with pytest.raises(TransactionAbortedError):
            manager.abort_and_raise(txn, "test reason")

    def test_deadlock_detection_wiring(self):
        from repro.core.keys import KeyRange
        from repro.txn.locks import LockMode, LockTable

        _net, manager, _svcs, _parts = self._manager([True])
        t1, t2 = LockTable(), LockTable()
        t1.acquire(1, LockMode.REP_MODIFY, KeyRange.of(1, 2))
        t2.acquire(2, LockMode.REP_MODIFY, KeyRange.of(5, 6))
        t1.acquire(2, LockMode.REP_MODIFY, KeyRange.of(1, 2))
        t2.acquire(1, LockMode.REP_MODIFY, KeyRange.of(5, 6))
        found = manager.run_deadlock_detection([t1, t2])
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
