"""The client-side transaction manager.

One manager serves one suite front-end: it allocates transaction ids,
commits transactions with two-phase commit, aborts them (rolling back
every enlisted representative), and re-delivers decisions that did not
reach every participant.

The paper delegates all of this to "a flexible underlying transaction
mechanism"; this module plus :mod:`repro.txn.locks`,
:mod:`repro.txn.undo`, and :mod:`repro.txn.twopc` is that mechanism.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.errors import InvalidTransactionStateError, TwoPhaseCommitError
from repro.net.rpc import RpcEndpoint
from repro.txn.ids import TxnId, TxnIdGenerator
from repro.txn.transaction import Participant, Transaction, TxnState
from repro.txn.twopc import DecisionLog, TwoPhaseCoordinator

#: try_call's ``default`` must be distinguishable from a successful
#: completion call, which returns None.
_MISSING = object()


class TransactionManager:
    """Begin / commit / abort for suite-level transactions."""

    def __init__(self, rpc: RpcEndpoint) -> None:
        self.rpc = rpc
        self._ids = TxnIdGenerator()
        self.decision_log = DecisionLog()
        #: Runs the commit protocol; the suite that owns this manager
        #: sets its ``parallel`` to match its own ``fanout``.
        self.coordinator = TwoPhaseCoordinator(rpc, self.decision_log)
        self.commits = 0
        self.aborts = 0
        #: Decided transactions whose decision could not be delivered to
        #: every participant (crash/partition outlasted the completion
        #: retries).  Maps txn id to (decision, undelivered participants);
        #: :meth:`resolve_pending` re-attempts delivery.
        self.pending_completions: dict[
            TxnId, tuple[str, dict[str, Participant]]
        ] = {}

    # -- life cycle -----------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a new transaction."""
        return Transaction(self._ids.next_id())

    def commit(self, txn: Transaction, read_only_votes: bool = False) -> None:
        """Two-phase commit; raises TwoPhaseCommitError if forced to abort.

        ``read_only_votes`` is the coordinator's (a served wave passes
        it): participants that wrote nothing drop out at prepare.  The
        members in ``txn.voted`` voted with their last write and are not
        asked again.
        """
        txn.require_active()
        txn.state = TxnState.PREPARING
        outcome = self.coordinator.commit(
            txn.txn_id, txn.participants, read_only_votes, txn.voted
        )
        if outcome.unreachable_at_completion:
            self._note_pending(
                txn, "commit" if outcome.committed else "abort",
                outcome.unreachable_at_completion,
            )
        if outcome.committed:
            txn.state = TxnState.COMMITTED
            self.commits += 1
            return
        txn.state = TxnState.ABORTED
        self.aborts += 1
        no_votes = sorted(n for n, v in outcome.votes.items() if not v)
        raise TwoPhaseCommitError(
            f"transaction {txn.txn_id} aborted in prepare phase; "
            f"no-votes/unreachable: {no_votes}"
        )

    def abort(self, txn: Transaction) -> None:
        """Roll back everywhere reachable and mark the transaction aborted."""
        if txn.is_finished:
            if txn.state is TxnState.ABORTED:
                return
            raise InvalidTransactionStateError(
                f"cannot abort committed transaction {txn.txn_id}"
            )
        unreachable = self.coordinator.abort(txn.txn_id, txn.participants)
        if unreachable:
            self._note_pending(txn, "abort", unreachable)
        txn.state = TxnState.ABORTED
        self.aborts += 1

    # -- decision re-delivery ---------------------------------------------------

    def _note_pending(
        self,
        txn: Transaction,
        decision: str,
        undelivered: Iterable[str],
    ) -> None:
        participants = {
            name: txn.participants[name]
            for name in undelivered
            if name in txn.participants
        }
        if participants:
            self.pending_completions[txn.txn_id] = (decision, participants)

    def resolve_pending(self) -> int:
        """Re-deliver decisions to participants missed at completion time.

        Best effort: each undelivered (txn, participant) pair gets one
        ``try_call``; pairs that go through are dropped from the backlog,
        the rest stay for the next attempt.  Returns the number of
        deliveries that succeeded.  Callers invoke this after a recovery
        or heal event (e.g. the simulation driver between workload steps)
        so participants stuck holding locks and in-doubt effects are
        released without waiting for their own recovery scan.
        """
        delivered = 0
        for txn_id in list(self.pending_completions):
            decision, participants = self.pending_completions[txn_id]
            remaining: dict[str, Participant] = {}
            for name, part in participants.items():
                result = self.rpc.try_call(
                    part.node_id,
                    part.service_name,
                    decision,
                    txn_id,
                    default=_MISSING,
                )
                if result is _MISSING:
                    remaining[name] = part
                else:
                    delivered += 1
            if remaining:
                self.pending_completions[txn_id] = (decision, remaining)
            else:
                del self.pending_completions[txn_id]
        return delivered
