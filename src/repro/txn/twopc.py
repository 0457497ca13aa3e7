"""Two-phase commit across the representatives of a write quorum.

Directory-suite modifications touch several representatives and must be
all-or-nothing: a DirSuiteInsert that reached only part of its write quorum
would break the quorum-intersection invariant.  The coordinator:

1. **Prepare** — asks every participant that has not voted yet to vote
   (a served wave's last write to a member carries that member's vote,
   :meth:`~repro.core.representative.DirectoryRepresentative.rep_write_many`;
   such a *voted* member is counted yes and asked nothing).  ``prepare``
   has three outcomes:

   * *yes* — the participant is reachable and force-writes a prepare
     record to its log;
   * *no* — it is unreachable, timed out, or answers from a later
     incarnation than the one it joined the transaction from (a restart
     took its locks and effects: the coordinator notices it here, as
     :meth:`~repro.core.suite.DirectorySuite._round` does in the suite's
     rounds), which forces abort;
   * :data:`READ_ONLY` — offered only when the coordinator asks for it
     (a served wave's transaction, :mod:`repro.core.batch`): the
     participant wrote nothing, so it released its RepLookup locks and
     logged nothing.  It counts as yes and drops out of phase two — the
     textbook read-only vote.
2. **Decide** — all-yes ⇒ commit, otherwise abort.  The decision is made
   durable in the coordinator's decision log *before* phase two, so a
   participant that crashes between prepare and commit can resolve its
   in-doubt transaction against the coordinator at recovery.  When every
   voter was read-only, or there was no participant at all (a wave's
   released read left none), there is nothing to decide: no decision is
   logged and no phase two is sent.
3. **Complete** — sends the decision to every reachable participant that
   did not vote read-only; unreachable prepared participants resolve
   later via the decision log.

The log keeps what someone may still ask it: a coordinator forgets its
previous fully acknowledged decision once a newer one is acknowledged by
every participant, so the log holds the latest decision (which
:class:`~repro.core.resilient.ResilientSuite` probes after an ambiguous
failure) plus those whose delivery is still pending (the only ones a
recovering participant can be in doubt about).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import NetworkError
from repro.net.rpc import RpcCall, RpcEndpoint
from repro.txn.ids import TxnId
from repro.txn.transaction import Participant

#: The third answer to ``prepare``: the participant holds no undo state
#: for the transaction, has released its locks, and takes no part in
#: phase two.
READ_ONLY = "read-only"


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

    def forget(self, txn_id: TxnId) -> None:
        """Drop a decision no participant can still be in doubt about."""
        self.decisions.pop(txn_id, None)

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
    see :meth:`~repro.net.rpc.RpcEndpoint.scatter`); serial sends the
    same members one scatter at a time, with the same per-member retry
    budget and vote semantics — both are :meth:`_phase`.
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
        #: The latest decision every participant acknowledged: the one
        #: the log keeps until a newer one is acknowledged too.
        self._acknowledged: TxnId | None = None

    def commit(
        self,
        txn_id: TxnId,
        participants: dict[str, Participant],
        read_only_votes: bool = False,
        voted: "frozenset[str] | set[str]" = frozenset(),
    ) -> CommitOutcome:
        """Run 2PC; returns the outcome (never raises for participant loss).

        An unreachable, timed-out, or no-voting participant in phase one
        forces abort.  (A timed-out prepare is ambiguous — the vote may
        have been cast and its reply lost — but aborting is always safe:
        the participant learns the abort in phase two, or resolves it
        against the decision log at recovery.)  Participant loss in
        phase two is tolerated the same way.

        ``read_only_votes`` lets a participant that wrote nothing answer
        :data:`READ_ONLY`; such voters get no phase two, and a
        transaction whose voters all did so commits with no decision
        logged and nothing more sent.  Without it every participant is
        run through both phases, bit for bit the classic protocol.

        ``voted`` names participants whose yes vote is already in hand
        (it rode on their last write): they are sent no ``prepare``, and
        phase two reaches them as it reaches every other yes voter.
        """
        replies = self._phase(
            "prepare",
            txn_id,
            {n: p for n, p in participants.items() if n not in voted},
            read_only_votes,
        )
        votes = {
            name: name in voted
            or not isinstance(replies[name], NetworkError)
            and bool(replies[name])
            for name in participants
        }
        if read_only_votes:
            participants = {
                n: part
                for n, part in participants.items()
                if replies.get(n) != READ_ONLY
            }
            if not participants:
                return CommitOutcome(True, votes)
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
        """Abort everywhere reachable; returns unreachable participant names.

        A transaction that enlisted no one (a released read whose reply
        was lost) has nothing to roll back and no one who could be in
        doubt: nothing is logged or sent, and the acknowledged decision
        the log keeps stays where it was.
        """
        if not participants:
            return ()
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
        unreachable = tuple(
            [n for n, reply in replies.items() if isinstance(reply, NetworkError)]
        )
        if not unreachable:
            # Acknowledged everywhere: nobody can be in doubt about the
            # previous such decision any more, and only the latest is
            # ever probed (ResilientSuite._attempt_committed).
            if self._acknowledged is not None:
                self.decision_log.forget(self._acknowledged)
            self._acknowledged = txn_id
        return unreachable

    def _phase(
        self,
        method: str,
        txn_id: TxnId,
        participants: dict[str, Participant],
        read_only_votes: bool = False,
    ) -> dict:
        """One 2PC round: ``method(txn_id)`` to every participant
        (``prepare(txn_id, True)`` when ``read_only_votes``).

        Returns, per participant name and in ``participants`` order, what
        the call returned or the :class:`NetworkError` that stood once
        its retries ran out; a reply from a later incarnation than the
        participant joined from reads ``False``, a no vote (phase two
        reads only the errors).  Each member re-asks a timeout up to
        ``completion_retries`` times (the participant is up; only
        messages are being dropped), and that is safe in both phases:
        prepare re-logs its record and returns the same vote — a
        read-only voter, holding no undo record, answers read-only again
        — and completion is idempotent.  A crashed participant fails at
        once.

        This is the only place ``parallel`` is read: parallel sends the
        round as one scatter, serial as one scatter per participant, each
        gathered before the next is issued.  With no participant to ask
        (every voter's vote rode its last write, or a released read
        enlisted no one) nothing is sent at all.
        """
        if not participants:
            return {}
        calls = [
            RpcCall(
                node_id=part.node_id,
                service_name=part.service_name,
                method=method,
                args=(txn_id, True) if read_only_votes else (txn_id,),
                retries=self.completion_retries,
                key=name,
            )
            for name, part in participants.items()
        ]
        replies = {}
        for members in [calls] if self.parallel else [[call] for call in calls]:
            for reply in self.rpc.scatter(members, label=method).complete_all():
                error = reply.error
                key = reply.call.key
                if error is None:
                    replies[key] = (
                        reply.value
                        if reply.incarnation == participants[key].incarnation
                        else False
                    )
                elif isinstance(error, NetworkError):
                    replies[key] = error
                else:  # pragma: no cover - 2PC methods raise no app errors
                    raise error
        return replies
