"""The transaction substrate the paper assumes.

* :mod:`repro.txn.locks` — the Figure 7 type-specific range locks with
  FIFO-fair grant order;
* :mod:`repro.txn.manager` — begin/commit/abort with strict two-phase
  locking discipline;
* :mod:`repro.txn.twopc` — two-phase commit across a write quorum with a
  bounded durable decision log, and read-only votes for a wave's
  transaction;
* :mod:`repro.txn.deadlock` — waits-for-graph cycle detection,
  youngest-victim selection;
* :mod:`repro.txn.undo` — the inverse actions applied on abort.
"""

from repro.txn.locks import AcquireStatus, Lock, LockMode, LockTable, conflicts
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TxnState

__all__ = [
    "LockMode",
    "LockTable",
    "Lock",
    "AcquireStatus",
    "conflicts",
    "TransactionManager",
    "Transaction",
    "TxnState",
]
