"""Exception hierarchy for the replicated directory library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch the whole family with one clause.  The hierarchy mirrors
the system layering: storage errors, transaction errors, network errors, and
directory-suite errors each have their own branch.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Configuration errors
# ---------------------------------------------------------------------------


class ConfigurationError(ReproError, ValueError):
    """A suite, run or load was configured inconsistently or out of range.

    Raised, for example, when the read and write quorum sizes do not satisfy
    the weighted-voting intersection constraint R + W > total votes, or a
    count is negative.  The CLI turns it into a one-line refusal.
    """


# ---------------------------------------------------------------------------
# Directory errors (visible through the public suite API)
# ---------------------------------------------------------------------------


class DirectoryError(ReproError):
    """Base class for errors raised by directory operations."""


class KeyAlreadyPresentError(DirectoryError):
    """Insert was called for a key that already has an entry in the suite."""

    def __init__(self, key: object) -> None:
        super().__init__(f"key already present in directory suite: {key!r}")
        self.key = key


class KeyNotPresentError(DirectoryError):
    """Update or Delete was called for a key with no entry in the suite."""

    def __init__(self, key: object) -> None:
        super().__init__(f"key not present in directory suite: {key!r}")
        self.key = key


class SentinelKeyError(DirectoryError):
    """An operation was attempted on the reserved LOW or HIGH sentinel."""

    def __init__(self, key: object) -> None:
        super().__init__(f"operation not permitted on sentinel key: {key!r}")
        self.key = key


class AmbiguousLookupError(DirectoryError):
    """A read quorum could not determine whether a key is present.

    This error is only raised by the *naive* per-entry-version baseline
    (section 2 of the paper): when one representative answers "present with
    version v" and another answers "not present" (with no version), the
    responses from the quorum are insufficient to decide presence.  The
    paper's algorithm never raises it.
    """

    def __init__(self, key: object, detail: str = "") -> None:
        message = f"read quorum is ambiguous for key {key!r}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.key = key


# ---------------------------------------------------------------------------
# Storage errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for representative-store failures."""


class CoalesceBoundsError(StorageError):
    """DirRepCoalesce named bounds that are not entries in the store.

    Figure 6 of the paper: "An error is indicated if entries do not exist
    for keys l and h."
    """

    def __init__(self, bound: object) -> None:
        super().__init__(f"coalesce bound is not an entry: {bound!r}")
        self.bound = bound


class StoreCorruptionError(StorageError):
    """An internal invariant of a representative store was violated."""


class RecoveryError(StorageError):
    """A write-ahead log could not be replayed into a consistent store."""


class SnapshotUnavailableError(StorageError):
    """A consistent snapshot cannot be exported right now.

    Raised by a representative asked to export its state while
    transactions are in flight on it (uncommitted effects would leak
    into the copy).  Transient: the caller retries after the
    representative quiesces.
    """

    def __init__(self, rep_name: str, in_flight: int) -> None:
        self.rep_name = rep_name
        self.in_flight = in_flight
        super().__init__(
            f"representative {rep_name} has {in_flight} transaction(s) "
            "in flight; snapshot export would leak uncommitted effects"
        )


# ---------------------------------------------------------------------------
# Transaction errors
# ---------------------------------------------------------------------------


class TransactionError(ReproError):
    """Base class for transaction-system failures."""


class TransactionAbortedError(TransactionError):
    """The transaction was aborted and its effects rolled back."""

    def __init__(self, txn_id: object, reason: str = "") -> None:
        message = f"transaction {txn_id} aborted"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)
        self.txn_id = txn_id
        self.reason = reason


class DeadlockError(TransactionAbortedError):
    """The transaction was chosen as a deadlock victim."""

    def __init__(self, txn_id: object, cycle: tuple = ()) -> None:
        super().__init__(txn_id, reason=f"deadlock victim (cycle {cycle})")
        self.cycle = cycle


class WouldBlockError(TransactionError):
    """A lock request conflicts with locks held by other transactions.

    Raised on the synchronous fast path instead of blocking a thread; the
    caller (a scheduler or the concurrency simulator) decides whether to
    wait, retry, or abort.  ``blockers`` names the transactions holding or
    queued ahead with conflicting locks.
    """

    def __init__(self, txn_id: object, blockers: tuple = ()) -> None:
        super().__init__(
            f"transaction {txn_id} would block on lock conflict "
            f"with {sorted(map(str, blockers))}"
        )
        self.txn_id = txn_id
        self.blockers = tuple(blockers)


class InvalidTransactionStateError(TransactionError):
    """An operation was attempted on a finished or unknown transaction."""


class TwoPhaseCommitError(TransactionError):
    """A distributed commit could not reach a decision on all participants."""


# ---------------------------------------------------------------------------
# Network / availability errors
# ---------------------------------------------------------------------------


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class NodeDownError(NetworkError):
    """An RPC was directed at a node that is crashed or unreachable."""

    def __init__(self, node_id: object) -> None:
        super().__init__(f"node is down or unreachable: {node_id}")
        self.node_id = node_id


class OriginDownError(NodeDownError):
    """An RPC was *issued from* a node that is currently crashed.

    Subclasses :class:`NodeDownError` so generic availability handling
    (quorum fallback, ``try_call``) treats it as a network failure, while
    fault-injection tests can still catch it precisely.
    """

    def __init__(self, node_id: object) -> None:
        Exception.__init__(
            self, f"origin node {node_id} is down; cannot issue RPCs"
        )
        self.node_id = node_id


class RpcTimeoutError(NetworkError):
    """An RPC did not complete within its timeout.

    Raised by the lossy-network fault injection (see
    :mod:`repro.net.failures`): a *request-lost* timeout means the call
    had no effect at the target, while a *reply-lost* timeout means the
    effect was applied and only the answer was dropped — the caller
    cannot tell the two apart, which is exactly the ambiguity the
    retrying front-end (:class:`~repro.core.resilient.ResilientSuite`)
    must resolve before re-executing a write.
    """

    def __init__(
        self, node_id: object, method: str = "", lost: str = "request"
    ) -> None:
        detail = f" ({method})" if method else ""
        super().__init__(f"rpc to {node_id}{detail} timed out")
        self.node_id = node_id
        self.method = method
        #: Which message was dropped: ``"request"`` or ``"reply"``.  Only
        #: the fault injector knows; real callers must not branch on it.
        self.lost = lost


class QuorumUnavailableError(NetworkError):
    """Not enough votes are reachable to form the requested quorum."""

    def __init__(self, needed: int, available: int, kind: str = "quorum") -> None:
        super().__init__(
            f"cannot collect {kind}: need {needed} votes, "
            f"only {available} available"
        )
        self.needed = needed
        self.available = available
        self.kind = kind


# ---------------------------------------------------------------------------
# Sharding / routing errors
# ---------------------------------------------------------------------------


class StaleEpochError(ReproError):
    """An operation named a shard-map epoch that no longer owns its key.

    Raised by epoch-aware routing surfaces
    (:meth:`~repro.shard.sharded.ShardedDirectory.require_epoch`) when a
    client's cached map is outdated for the key being operated on — a
    live reshard moved the range since the client fetched its map.
    ``epoch`` carries the *current* epoch so the client can refresh and
    retry; the service front door translates this exception into a
    ``-MOVED <epoch>`` redirect.
    """

    def __init__(self, epoch: int, key: object = None) -> None:
        detail = f" for key {key!r}" if key is not None else ""
        super().__init__(
            f"shard map epoch is stale{detail}; current epoch is {epoch}"
        )
        self.epoch = epoch
        self.key = key
