"""Multi-threaded clients against a real cluster.

The serial driver (:mod:`repro.sim.driver`) reproduces the paper's
simulations; this harness exercises what those simulations take on faith —
that the Figure 7 range locks actually synchronize *concurrent*
transactions.  Several client threads run genuine suite operations
against one cluster simultaneously:

* each representative's physical latch keeps its data structures sane
  under preemption (latches protect structures, range locks protect
  logical state — the classic separation);
* a conflicting range lock surfaces as
  :class:`~repro.core.errors.WouldBlockError`, which aborts the
  transaction (the suite rolls it back via 2PC-abort); the client retries
  the whole operation after a randomized backoff — optimistic
  abort-and-retry, which also makes deadlock impossible (no transaction
  ever waits while holding locks);
* strict two-phase locking means conflicting transactions cannot
  overlap, so the committed operations have a serial order and the final
  directory state must equal replaying them serially — the property the
  integration tests assert.

The harness assigns each client its own key range by default.  Note that
*logical* ownership does not prevent *lock* conflicts: a delete's
real-predecessor search read-locks across gap boundaries into other
clients' territory, which is exactly the cross-transaction traffic worth
exercising.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cluster import DirectoryCluster
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    TransactionError,
    WouldBlockError,
)


@dataclass
class ClientReport:
    """One client thread's outcome."""

    client_id: int
    committed: int = 0
    lock_conflicts: int = 0  # WouldBlock aborts that were retried
    semantic_rejections: int = 0  # duplicate insert / missing key errors
    model: dict[Any, Any] = field(default_factory=dict)
    error: BaseException | None = None
    last_op_committed: bool = False


@dataclass
class ThreadedRunResult:
    """Aggregate outcome of one multi-threaded run."""

    reports: list[ClientReport]

    @property
    def committed(self) -> int:
        return sum(r.committed for r in self.reports)

    @property
    def lock_conflicts(self) -> int:
        return sum(r.lock_conflicts for r in self.reports)

    def merged_model(self) -> dict[Any, Any]:
        """Union of per-client models (valid for disjoint key ownership)."""
        merged: dict[Any, Any] = {}
        for report in self.reports:
            merged.update(report.model)
        return merged

    def raise_errors(self) -> None:
        """Re-raise the first client-thread exception, if any."""
        for report in self.reports:
            if report.error is not None:
                raise report.error


class ThreadedClients:
    """Run concurrent client threads against one cluster.

    Parameters
    ----------
    cluster:
        The target cluster.  Every representative takes Figure 7 range
        locks, so concurrent transactions conflict rather than corrupt
        logical state.
    n_clients / ops_per_client:
        Population and per-thread workload length.
    key_partitions:
        When True (default), client *i* draws keys from the interval
        ``[i, i+1)``, making per-client models exact; when False, all
        clients share ``[0, 1)`` and semantic rejections are expected.
    max_retries:
        Bound on retries per operation (a generous bound; randomized
        backoff makes livelock vanishingly unlikely).
    """

    def __init__(
        self,
        cluster: DirectoryCluster,
        n_clients: int = 4,
        ops_per_client: int = 50,
        key_partitions: bool = True,
        seed: int = 0,
        max_retries: int = 500,
    ) -> None:
        self.cluster = cluster
        self.n_clients = n_clients
        self.ops_per_client = ops_per_client
        self.key_partitions = key_partitions
        self.seed = seed
        self.max_retries = max_retries

    # -- per-thread behaviour ----------------------------------------------------

    def _client_body(self, report: ClientReport) -> None:
        suite = self.cluster.suite
        rng = random.Random(self.seed * 1000 + report.client_id)
        base = float(report.client_id) if self.key_partitions else 0.0
        members: list[float] = []
        for i in range(self.ops_per_client):
            roll = rng.random()
            if roll < 0.45 or not members:
                key = base + rng.random()
                op = ("insert", key, i)
            elif roll < 0.75:
                op = ("delete", rng.choice(members), None)
            else:
                op = ("update", rng.choice(members), i)
            self._run_with_retry(suite, op, report, rng)
            kind, key, value = op
            if report.last_op_committed:
                if kind == "insert":
                    members.append(key)
                    report.model[key] = value
                elif kind == "delete":
                    members.remove(key)
                    report.model.pop(key, None)
                else:
                    report.model[key] = value

    def _run_with_retry(self, suite, op, report: ClientReport, rng) -> None:
        kind, key, value = op
        report.last_op_committed = False
        for _attempt in range(self.max_retries):
            try:
                if kind == "insert":
                    suite.insert(key, value)
                elif kind == "delete":
                    suite.delete(key)
                else:
                    suite.update(key, value)
                report.committed += 1
                report.last_op_committed = True
                return
            except WouldBlockError:
                report.lock_conflicts += 1
                time.sleep(rng.uniform(0.0, 0.002))
            except (KeyAlreadyPresentError, KeyNotPresentError):
                # A legitimate answer under contention (another client
                # raced us to the key); never possible with partitions.
                report.semantic_rejections += 1
                return
            except TransactionError:
                # e.g. a commit-time conflict; retry like a lock conflict.
                report.lock_conflicts += 1
                time.sleep(rng.uniform(0.0, 0.002))
        raise RuntimeError(
            f"operation {op} exceeded {self.max_retries} retries"
        )

    # -- orchestration ------------------------------------------------------------

    def run(self) -> ThreadedRunResult:
        """Run all clients to completion and return their reports."""
        reports = [ClientReport(i) for i in range(self.n_clients)]
        threads = []
        for report in reports:
            def body(r=report):
                try:
                    self._client_body(r)
                except BaseException as exc:  # noqa: BLE001 - reported
                    r.error = exc

            thread = threading.Thread(target=body, name=f"client-{report.client_id}")
            threads.append(thread)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return ThreadedRunResult(reports)
