"""Concurrent client threads against a real cluster, one at a time.

The serial driver (:mod:`repro.sim.driver`) reproduces the paper's
simulations; this harness exercises what those simulations take on faith —
that the Figure 7 range locks actually synchronize *concurrent*
transactions.  Several client threads run genuine suite operations
against one cluster, cut between any two of their messages:

* a :class:`BatonScheduler` runs one client thread at a time and hands
  a baton over at every message (seeded, or scripted to walk every order
  of a small scope), so nothing inside a representative, a registry or
  a tracer is ever entered by two threads at once and none takes a lock;
* a conflicting range lock surfaces as
  :class:`~repro.core.errors.WouldBlockError`, which aborts the
  transaction (the suite rolls it back via 2PC-abort); the client backs
  off — hands the baton to another client — and retries the whole
  operation: optimistic abort-and-retry, which also makes deadlock
  impossible (no transaction ever waits while holding locks);
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
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.cluster import DirectoryCluster
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    TransactionError,
)


class BatonScheduler:
    """Runs bodies on their own threads, one thread at a time.

    While :meth:`run` runs, ``network.service_for`` — the lookup every
    message makes before it is sent — first passes the baton to the
    client ``choose(runnable, current)`` picks from the unfinished ones
    (``current``, the caller, included) and waits for it to come back.
    ``current`` is None when the holder finished, or backs off.
    """

    def __init__(self, network: Any, choose: Callable[..., int]) -> None:
        self.network = network
        self.choose = choose
        self._turn = threading.Condition()
        self._holder: "int | None" = None
        self._runnable: "list[int]" = []
        self._clients: "dict[int, int]" = {}  # thread ident -> index

    def run(self, bodies: Sequence[Callable[[], None]]) -> list:
        """Run every body to completion; returns each one's exception
        (None for a body that returned)."""
        errors: "list[BaseException | None]" = [None] * len(bodies)
        resolve = self.network.service_for
        self._runnable = list(range(len(bodies)))

        def send(*where: str) -> object:
            me = self._clients.get(threading.get_ident())
            if me is not None:  # not a client of this run: no baton
                self._pass(self._runnable, me, me)
            return resolve(*where)

        def client(index: int, body: Callable[[], None]) -> None:
            self._clients[threading.get_ident()] = index
            with self._turn:
                self._turn.wait_for(lambda: self._holder == index)
            try:
                body()
            except BaseException as exc:  # noqa: BLE001 - reported
                errors[index] = exc
            finally:
                self._runnable.remove(index)
                self._pass(self._runnable, None, None)

        threads = [
            threading.Thread(target=client, args=(i, body), name=f"client-{i}")
            for i, body in enumerate(bodies)
        ]
        self.network.service_for = send
        try:
            for thread in threads:
                thread.start()
            self._pass(self._runnable, None, None)
            for thread in threads:
                thread.join()
        finally:
            del self.network.service_for
        return errors

    def back_off(self) -> None:
        """Pass the baton to another client before the caller retries an
        aborted transaction: a schedule that never preempted it would
        otherwise retry forever against the holder of the lock."""
        me = self._clients[threading.get_ident()]
        others = [i for i in self._runnable if i != me]
        if others:
            self._pass(others, None, me)

    def _pass(self, among: list, current: "int | None", me: "int | None") -> None:
        """Give the baton to ``choose(among, current)``; then, as client
        ``me``, wait until it comes back."""
        with self._turn:
            self._holder = self.choose(among, current) if among else None
            self._turn.notify_all()
            if me is not None:
                self._turn.wait_for(lambda: self._holder == me)


@dataclass
class ClientReport:
    """One client thread's outcome."""

    client_id: int
    lock_conflicts: int = 0  # WouldBlock aborts that were retried
    semantic_rejections: int = 0  # duplicate insert / missing key errors
    model: dict[Any, Any] = field(default_factory=dict)
    #: ``(kind, key, value)`` of each committed op, in this client's order.
    committed_ops: list[tuple[str, Any, Any]] = field(default_factory=list)
    error: BaseException | None = None


@dataclass
class ThreadedRunResult:
    """Aggregate outcome of one multi-threaded run."""

    reports: list[ClientReport]

    @property
    def committed(self) -> int:
        return sum(len(r.committed_ops) for r in self.reports)

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


@dataclass
class ThreadedClients:
    """Run client threads against one cluster under a seeded baton.

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
    seed:
        Seeds each client's ops and the order the baton takes.
    max_retries:
        Bound on retries per operation (a generous bound; the seeded
        baton makes livelock vanishingly unlikely).
    """

    cluster: DirectoryCluster
    n_clients: int = 4
    ops_per_client: int = 50
    key_partitions: bool = True
    seed: int = 0
    max_retries: int = 500

    # -- per-thread behaviour ----------------------------------------------------

    def _client_body(self, report: ClientReport) -> None:
        suite = self.cluster.suite
        rng = random.Random(self.seed * 1000 + report.client_id)
        base = float(report.client_id) if self.key_partitions else 0.0
        for i in range(self.ops_per_client):
            roll = rng.random()
            members = list(report.model)  # the keys this client holds
            if roll < 0.45 or not members:
                op = ("insert", base + rng.random(), i)
            elif roll < 0.75:
                op = ("delete", rng.choice(members), None)
            else:
                op = ("update", rng.choice(members), i)
            if self._run_with_retry(suite, op, report):
                report.committed_ops.append(op)
                kind, key, value = op
                if kind == "delete":
                    del report.model[key]
                else:
                    report.model[key] = value

    def _run_with_retry(self, suite, op, report: ClientReport) -> bool:
        """Run ``op`` to its answer; True if it committed."""
        kind, key, value = op
        for _attempt in range(self.max_retries):
            try:
                if kind == "insert":
                    suite.insert(key, value)
                elif kind == "delete":
                    suite.delete(key)
                else:
                    suite.update(key, value)
                return True
            except (KeyAlreadyPresentError, KeyNotPresentError):
                # A legitimate answer under contention (another client
                # raced us to the key); never possible with partitions.
                report.semantic_rejections += 1
                return False
            except TransactionError:
                # A lock conflict (WouldBlockError), or a commit-time
                # one: back off, then retry.
                report.lock_conflicts += 1
                self._scheduler.back_off()
        raise RuntimeError(
            f"operation {op} exceeded {self.max_retries} retries"
        )

    # -- orchestration ------------------------------------------------------------

    def run(self) -> ThreadedRunResult:
        """Run all clients to completion and return their reports."""
        reports = [ClientReport(i) for i in range(self.n_clients)]
        rng = random.Random(self.seed)
        self._scheduler = scheduler = BatonScheduler(
            self.cluster.network, lambda runnable, current: rng.choice(runnable)
        )
        errors = scheduler.run(
            [lambda r=report: self._client_body(r) for report in reports]
        )
        for report, error in zip(reports, errors):
            report.error = error
        return ThreadedRunResult(reports)
