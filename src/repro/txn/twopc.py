"""Two-phase commit across the representatives of a write quorum.

Directory-suite modifications touch several representatives and must be
all-or-nothing: a DirSuiteInsert that reached only part of its write quorum
would break the quorum-intersection invariant.  The coordinator:

1. **Prepare** — asks every participant to vote.  A participant that is
   reachable and still holds the transaction's state votes yes and force-
   writes a prepare record to its log.
2. **Decide** — all-yes ⇒ commit, otherwise abort.  The decision is made
   durable in the coordinator's decision log *before* phase two, so a
   participant that crashes between prepare and commit can resolve its
   in-doubt transaction against the coordinator at recovery.
3. **Complete** — sends the decision to every reachable participant;
   unreachable prepared participants resolve later via the decision log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import NetworkError, NodeDownError, RpcTimeoutError
from repro.net.rpc import RpcCall, RpcEndpoint
from repro.txn.ids import TxnId
from repro.txn.transaction import Participant


@dataclass
class DecisionLog:
    """The coordinator's durable record of commit/abort outcomes.

    Shared with representatives so their recovery can resolve in-doubt
    (prepared) transactions; in a real system this would be a query RPC to
    the coordinator, which the simulation collapses to a dict lookup.
    """

    decisions: dict[TxnId, str] = field(default_factory=dict)

    def decide(self, txn_id: TxnId, decision: str) -> None:
        if decision not in ("commit", "abort"):
            raise ValueError(f"bad decision {decision!r}")
        existing = self.decisions.get(txn_id)
        if existing is not None and existing != decision:
            raise ValueError(
                f"conflicting decision for txn {txn_id}: "
                f"{existing} then {decision}"
            )
        self.decisions[txn_id] = decision

    def outcome(self, txn_id: TxnId) -> str | None:
        """"commit", "abort", or None if never decided."""
        return self.decisions.get(txn_id)

    def committed_ids(self) -> frozenset[TxnId]:
        """All transactions decided commit."""
        return frozenset(
            t for t, d in self.decisions.items() if d == "commit"
        )


@dataclass(frozen=True, slots=True)
class CommitOutcome:
    """Result of one two-phase commit run."""

    committed: bool
    votes: dict[str, bool]
    unreachable_at_completion: tuple[str, ...] = ()


class TwoPhaseCoordinator:
    """Runs the commit protocol for one transaction at a time.

    ``completion_retries`` bounds how many times a phase-two decision
    message is re-sent to a participant whose acknowledgement timed out
    on a lossy link.  Completion is idempotent, so re-delivery is always
    safe, and delivering decisions eagerly matters: a participant that
    never learns an abort keeps the transaction's (rolled-back-nowhere)
    effects and locks until recovery.

    ``parallel`` fans each phase out across all participants at once
    (the batch costs the max arrival over the round instead of the sum;
    see :meth:`~repro.net.rpc.RpcEndpoint.scatter`), with the same
    per-participant retry and vote semantics as the serial loop — both
    are :meth:`_phase`.
    """

    def __init__(
        self,
        rpc: RpcEndpoint,
        decision_log: DecisionLog,
        completion_retries: int = 8,
        parallel: bool = False,
    ) -> None:
        self.rpc = rpc
        self.decision_log = decision_log
        self.completion_retries = completion_retries
        self.parallel = parallel

    def commit(
        self, txn_id: TxnId, participants: dict[str, Participant]
    ) -> CommitOutcome:
        """Run 2PC; returns the outcome (never raises for participant loss).

        An unreachable, timed-out, or no-voting participant in phase one
        forces abort.  (A timed-out prepare is ambiguous — the vote may
        have been cast and its reply lost — but aborting is always safe:
        the participant learns the abort in phase two, or resolves it
        against the decision log at recovery.)  Participant loss in
        phase two is tolerated the same way.
        """
        replies = self._phase("prepare", txn_id, participants)
        votes = {
            name: not isinstance(reply, NetworkError) and bool(reply)
            for name, reply in replies.items()
        }
        all_yes = bool(votes) and all(votes.values())
        decision = "commit" if all_yes else "abort"
        self.decision_log.decide(txn_id, decision)
        unreachable = self._complete(decision, txn_id, participants)
        return CommitOutcome(
            committed=decision == "commit",
            votes=votes,
            unreachable_at_completion=unreachable,
        )

    def abort(
        self, txn_id: TxnId, participants: dict[str, Participant]
    ) -> tuple[str, ...]:
        """Abort everywhere reachable; returns unreachable participant names."""
        self.decision_log.decide(txn_id, "abort")
        return self._complete("abort", txn_id, participants)

    def _complete(
        self, decision: str, txn_id: TxnId, participants: dict[str, Participant]
    ) -> tuple[str, ...]:
        """Phase two: deliver the decision; returns who it did not reach.

        A crashed or partitioned participant is left for later — its
        in-doubt transaction resolves against the decision log at
        recovery, or via
        :meth:`~repro.txn.manager.TransactionManager.resolve_pending`.
        """
        replies = self._phase(decision, txn_id, participants)
        return tuple(
            [n for n, reply in replies.items() if isinstance(reply, NetworkError)]
        )

    def _phase(
        self, method: str, txn_id: TxnId, participants: dict[str, Participant]
    ) -> dict:
        """One 2PC round: ``method(txn_id)`` to every participant.

        Returns, per participant name and in ``participants`` order, what
        the call returned or the :class:`NetworkError` that stood once
        its retries ran out.  Timeouts are re-asked up to
        ``completion_retries`` times (the participant is up; only
        messages are being dropped), and that is safe in both phases:
        prepare re-logs its record and returns the same vote, completion
        is idempotent.  A crashed participant fails at once.

        This is the only place ``parallel`` is read: serial asks one
        participant at a time, parallel sends the round as one scatter
        whose members carry the same retry budget.
        """
        if self.parallel:
            batch = self.rpc.scatter(
                [
                    RpcCall(
                        node_id=part.node_id,
                        service_name=part.service_name,
                        method=method,
                        args=(txn_id,),
                        retries=self.completion_retries,
                        key=name,
                    )
                    for name, part in participants.items()
                ],
                label=method,
            )
            replies = {}
            for reply in batch.complete_all():
                error = reply.error
                if error is None:
                    replies[reply.call.key] = reply.value
                elif isinstance(error, NetworkError):
                    replies[reply.call.key] = error
                else:  # pragma: no cover - 2PC methods raise no app errors
                    raise error
            return replies
        replies = {}
        for name, part in participants.items():
            for _ in range(1 + self.completion_retries):
                try:
                    replies[name] = self.rpc.call(
                        part.node_id, part.service_name, method, txn_id
                    )
                    break
                except RpcTimeoutError as exc:
                    replies[name] = exc  # stands unless a re-ask gets through
                except NodeDownError as exc:
                    replies[name] = exc
                    break
        return replies
