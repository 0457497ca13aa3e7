"""Client-side transaction objects.

A :class:`Transaction` tracks the participants (representatives) a
directory-suite operation has touched, so that commit and abort know whom
to contact.  The actual synchronization (locks) and rollback state (undo
records) live *at* the representatives, matching the paper's model in
which "directory representatives must synchronize concurrent operations
performed by different transactions and store critical information in a
fashion that recovers from failures."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.errors import InvalidTransactionStateError
from repro.txn.ids import TxnId


class TxnState(enum.Enum):
    """Life cycle of a transaction."""

    ACTIVE = "active"
    PREPARING = "preparing"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True, slots=True)
class Participant:
    """Where to find an enlisted representative, and which incarnation
    of its node (``Node.recoveries``) answered the transaction first."""

    node_id: str
    service_name: str
    incarnation: int = 0


@dataclass
class Transaction:
    """One client-side transaction."""

    txn_id: TxnId
    state: TxnState = TxnState.ACTIVE
    participants: dict[str, Participant] = field(default_factory=dict)
    #: Participants whose yes vote came back with their last write, so
    #: the commit sends them no ``prepare``.
    voted: set[str] = field(default_factory=set)

    def enlist(
        self, key: str, node_id: str, service_name: str, incarnation: int = 0
    ) -> None:
        """Record that the representative at ``key`` joined the transaction
        from its node's ``incarnation``; a second call changes nothing."""
        if self.state is not TxnState.ACTIVE:
            self.require_active()
        if key not in self.participants:
            self.participants[key] = Participant(
                node_id, service_name, incarnation
            )

    def require_active(self) -> None:
        """Raise unless the transaction can still do work."""
        if self.state is not TxnState.ACTIVE:
            raise InvalidTransactionStateError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )

    @property
    def is_finished(self) -> bool:
        """True once committed or aborted."""
        return self.state in (TxnState.COMMITTED, TxnState.ABORTED)
