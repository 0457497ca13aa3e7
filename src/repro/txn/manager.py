"""The client-side transaction manager.

One manager serves one suite front-end: it allocates transaction ids,
tracks live transactions, commits them with two-phase commit, aborts them
(rolling back every enlisted representative), and runs deadlock detection
over the lock tables of a cluster when asked.

The paper delegates all of this to "a flexible underlying transaction
mechanism"; this module plus :mod:`repro.txn.locks`,
:mod:`repro.txn.undo`, and :mod:`repro.txn.twopc` is that mechanism.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.errors import (
    InvalidTransactionStateError,
    TransactionAbortedError,
    TwoPhaseCommitError,
)
from repro.net.rpc import RpcEndpoint
from repro.txn.deadlock import detect_deadlock
from repro.txn.ids import TxnId, TxnIdGenerator
from repro.txn.locks import LockTable
from repro.txn.transaction import Participant, Transaction, TxnState
from repro.txn.twopc import DecisionLog, TwoPhaseCoordinator

#: try_call's ``default`` must be distinguishable from a successful
#: completion call, which returns None.
_MISSING = object()


class TransactionManager:
    """Begin / commit / abort for suite-level transactions."""

    def __init__(
        self,
        rpc: RpcEndpoint,
        clock_now: Callable[[], float] | None = None,
    ) -> None:
        self.rpc = rpc
        self._ids = TxnIdGenerator()
        self._live: dict[TxnId, Transaction] = {}
        self.decision_log = DecisionLog()
        #: Runs the commit protocol; the suite that owns this manager
        #: sets its ``parallel`` to match its own ``fanout``.
        self.coordinator = TwoPhaseCoordinator(rpc, self.decision_log)
        self._now = clock_now or (lambda: 0.0)
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
        txn = Transaction(self._ids.next_id(), started_at=self._now())
        self._live[txn.txn_id] = txn
        return txn

    def commit(self, txn: Transaction) -> None:
        """Two-phase commit; raises TwoPhaseCommitError if forced to abort."""
        txn.require_active()
        txn.state = TxnState.PREPARING
        outcome = self.coordinator.commit(txn.txn_id, txn.participants)
        if outcome.unreachable_at_completion:
            self._note_pending(
                txn, "commit" if outcome.committed else "abort",
                outcome.unreachable_at_completion,
            )
        if outcome.committed:
            txn.state = TxnState.COMMITTED
            self.commits += 1
            self._live.pop(txn.txn_id, None)
            return
        txn.state = TxnState.ABORTED
        self.aborts += 1
        self._live.pop(txn.txn_id, None)
        no_votes = sorted(n for n, v in outcome.votes.items() if not v)
        raise TwoPhaseCommitError(
            f"transaction {txn.txn_id} aborted in prepare phase; "
            f"no-votes/unreachable: {no_votes}"
        )

    def abort(self, txn: Transaction, reason: str = "") -> None:
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
        self._live.pop(txn.txn_id, None)

    def abort_and_raise(self, txn: Transaction, reason: str = "") -> None:
        """Abort, then surface the failure to the caller."""
        self.abort(txn, reason)
        raise TransactionAbortedError(txn.txn_id, reason)

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

    # -- introspection -----------------------------------------------------------

    def live_transactions(self) -> list[Transaction]:
        """Transactions begun but not yet finished."""
        return list(self._live.values())

    def run_deadlock_detection(
        self, lock_tables: Iterable[LockTable]
    ) -> tuple[tuple[TxnId, ...], TxnId] | None:
        """Global deadlock check over a cluster's lock tables.

        Returns ``(cycle, victim)`` if a deadlock exists (the caller aborts
        the victim), else None.
        """
        return detect_deadlock([t.waits_for_edges() for t in lock_tables])
