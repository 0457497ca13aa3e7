"""Write-ahead (redo) logging for directory representatives.

The paper assumes each representative is held by a "transactional storage
system" that "stores critical information in a fashion that recovers from
failures."  This module is that storage system's durability half: every
state-changing representative operation appends a redo record *before* the
transaction commits; a commit record seals the transaction.  When a node
crashes it loses all volatile state; recovery rebuilds the store by
replaying, in log order, the records of transactions that have a commit
record (presumed abort — prepared-but-undecided transactions are rolled
back by simply not replaying them).

The log object models a durable device that survives node crashes: the
simulated crash wipes the store but not the log.  ``to_bytes`` /
``from_bytes`` round-trip the log through ``pickle`` so tests can also
exercise true process-restart persistence.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.errors import RecoveryError
from repro.core.keys import BoundedKey
from repro.core.versions import Version
from repro.obs.metrics import MetricsRegistry
from repro.storage.interface import RepresentativeStore, StoreSnapshot

# Record kinds.
OP_INSERT = "insert"
OP_COALESCE = "coalesce"
OP_PREPARE = "prepare"
OP_COMMIT = "commit"
OP_ABORT = "abort"
OP_CHECKPOINT = "checkpoint"


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One log record.

    ``payload`` depends on ``kind``:

    * ``insert``     — ``(key, version, value)``
    * ``coalesce``   — ``(low, high, version)``
    * ``checkpoint`` — a :class:`StoreSnapshot`
    * ``prepare`` / ``commit`` / ``abort`` — ``None``
    """

    lsn: int
    txn_id: int
    kind: str
    payload: Any = None


@dataclass
class WriteAheadLog:
    """An append-only redo log for one representative.

    When constructed with a :class:`~repro.obs.metrics.MetricsRegistry`,
    the log publishes its per-kind append counts as the
    ``<metrics_prefix>.appends`` provider — monotonic even across
    checkpoint truncation, unlike ``len(log)``.  The counts themselves
    are plain ints bumped on the append path without locking: one thread
    at a time is ever inside the owning representative.
    """

    records: list[WalRecord] = field(default_factory=list)
    _next_lsn: int = 1
    metrics: MetricsRegistry | None = None
    metrics_prefix: str = "wal"
    append_counts: dict[str, int] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        self.append_counts = {
            kind: 0
            for kind in (
                OP_INSERT,
                OP_COALESCE,
                OP_PREPARE,
                OP_COMMIT,
                OP_ABORT,
                OP_CHECKPOINT,
            )
        }
        if self.metrics is not None:
            self.metrics.provider(
                f"{self.metrics_prefix}.appends",
                lambda: self.append_counts,
            )

    # -- appends -------------------------------------------------------------

    def _append(self, txn_id: int, kind: str, payload: Any = None) -> WalRecord:
        record = WalRecord(self._next_lsn, txn_id, kind, payload)
        self.records.append(record)
        self._next_lsn += 1
        self.append_counts[kind] += 1
        return record

    def log_insert(
        self, txn_id: int, key: BoundedKey, version: Version, value: Any
    ) -> WalRecord:
        """Redo record for DirRepInsert."""
        return self._append(txn_id, OP_INSERT, (key, version, value))

    def log_coalesce(
        self, txn_id: int, low: BoundedKey, high: BoundedKey, version: Version
    ) -> WalRecord:
        """Redo record for DirRepCoalesce."""
        return self._append(txn_id, OP_COALESCE, (low, high, version))

    def log_prepare(self, txn_id: int) -> WalRecord:
        """The representative votes yes in two-phase commit."""
        return self._append(txn_id, OP_PREPARE)

    def log_commit(self, txn_id: int) -> WalRecord:
        """Seal a transaction; its redo records become replayable."""
        return self._append(txn_id, OP_COMMIT)

    def log_abort(self, txn_id: int) -> WalRecord:
        """Record an abort (informational; aborted work is never replayed)."""
        return self._append(txn_id, OP_ABORT)

    def log_checkpoint(self, snapshot: StoreSnapshot) -> WalRecord:
        """Record a quiescent checkpoint and drop older records.

        Checkpoints must be taken with no transaction in flight on this
        representative; the caller (the representative) enforces that.
        """
        record = self._append(0, OP_CHECKPOINT, snapshot)
        # Everything before the checkpoint is no longer needed for replay.
        self.records = [record]
        return record

    # -- recovery ------------------------------------------------------------

    def committed_txns(self) -> set[int]:
        """Transaction ids with a commit record in the log."""
        return {r.txn_id for r in self.records if r.kind == OP_COMMIT}

    def in_doubt_txns(self) -> set[int]:
        """Prepared transactions with no local commit/abort record.

        These voted yes in two-phase commit and must be resolved against
        the coordinator's decision log at recovery.
        """
        prepared = {r.txn_id for r in self.records if r.kind == OP_PREPARE}
        decided = {
            r.txn_id
            for r in self.records
            if r.kind in (OP_COMMIT, OP_ABORT)
        }
        return prepared - decided

    @property
    def next_lsn(self) -> int:
        """The LSN the next appended record will receive."""
        return self._next_lsn

    def replay_into(
        self,
        store: RepresentativeStore,
        extra_committed: frozenset[int] | set[int] = frozenset(),
    ) -> int:
        """Rebuild ``store`` from the log; returns records applied.

        The store must be freshly initialized.  Replay starts from the
        last checkpoint (if any) and applies, in LSN order, the redo
        records of committed transactions only.  ``extra_committed`` names
        in-doubt transactions the coordinator's decision log resolved to
        commit.
        """
        start = 0
        for i in range(len(self.records) - 1, -1, -1):
            if self.records[i].kind == OP_CHECKPOINT:
                start = i
                break
        committed = self.committed_txns() | set(extra_committed)
        applied = 0
        for record in self.records[start:]:
            if record.kind == OP_CHECKPOINT:
                store.restore(record.payload)
                applied += 1
            elif record.kind == OP_INSERT and record.txn_id in committed:
                key, version, value = record.payload
                store.insert(key, version, value)
                applied += 1
            elif record.kind == OP_COALESCE and record.txn_id in committed:
                low, high, version = record.payload
                try:
                    store.coalesce(low, high, version)
                except Exception as exc:  # pragma: no cover - corrupt log
                    raise RecoveryError(
                        f"replaying {record} failed: {exc}"
                    ) from exc
                applied += 1
        return applied

    # -- persistence -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the log (pickle) for process-restart persistence."""
        return pickle.dumps((self.records, self._next_lsn))

    @classmethod
    def from_bytes(cls, data: bytes) -> "WriteAheadLog":
        """Deserialize a log previously produced by :meth:`to_bytes`."""
        records, next_lsn = pickle.loads(data)
        log = cls()
        log.records = list(records)
        log._next_lsn = next_lsn
        return log

    # -- introspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[WalRecord]:
        return iter(self.records)
