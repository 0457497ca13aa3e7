"""The history checker (:mod:`repro.obs.history`).

First on hand-made histories, one clause of the contract at a time; then
on histories of a real 3-2-2 cluster, where each of three defects
planted here — never in ``src/`` — must fail :meth:`History.check`,
and the same script without the defect must pass it:

* a released read that ignores a RepModify lock another transaction
  holds (it reads a write whose transaction then aborts);
* a lookup answered from R − 1 members of its read quorum;
* a delete that skips the gap version's bump (Figure 13's
  ``successor``).
"""

from __future__ import annotations

import pytest

import repro.core.batch as batch
from repro.core.batch import BatchOp, BatchOutcome
from repro.core.errors import (
    KeyAlreadyPresentError,
    KeyNotPresentError,
    TransactionAbortedError,
)
from repro.core.representative import DirectoryRepresentative
from repro.obs.history import History, HistoryViolation
from tests.scope import build, held


def _op(history, client, op, version, value=None, error=None):
    """One op of its own wave, invoked and returned at once."""
    calls = history.invoke(client, [op])
    history.complete(calls, [BatchOutcome(BatchOp(*op), value, error, version)])


def _rejects(history, words):
    with pytest.raises(HistoryViolation) as caught:
        history.check()
    assert any(words in fault for fault in caught.value.faults), caught.value.faults


class TestClauses:
    def test_a_sequential_history_passes(self):
        h = History({"a": (1, True, "p")})
        _op(h, "x", ("lookup", "a"), 1, (True, "p"))
        _op(h, "x", ("update", "a", "q"), 2)
        _op(h, "y", ("insert", "a", "r"), 2, error=KeyAlreadyPresentError("a"))
        _op(h, "y", ("delete", "a"), 3)
        _op(h, "x", ("lookup", "a"), 3, (False, None))
        _op(h, "x", ("discard", "a"), 3, 0)
        _op(h, "y", ("update", "a", "s"), 3, error=KeyNotPresentError("a"))
        _op(h, "y", ("insert", "b", "t"), 1)
        h.check()

    def test_a_read_below_an_acknowledged_write_fails(self):
        h = History({"a": (1, True, "p")})
        _op(h, "x", ("update", "a", "q"), 2)
        _op(h, "y", ("lookup", "a"), 1, (True, "p"))
        _rejects(h, "read below 2")

    def test_a_read_below_an_acknowledged_read_fails(self):
        """Two reads, both concurrent with a write: once one has
        returned the write's version, a later one may not miss it."""
        h = History({"a": (1, True, "p")})
        write = h.invoke("w", [("update", "a", "q")])
        _op(h, "x", ("lookup", "a"), 2, (True, "q"))
        _op(h, "y", ("lookup", "a"), 1, (True, "p"))
        h.complete(write, [BatchOutcome(BatchOp("update", "a", "q"), version=2)])
        _rejects(h, "read below 2")

    def test_a_concurrent_write_may_be_read_or_not(self):
        for seen in ((1, "p"), (2, "q")):
            h = History({"a": (1, True, "p")})
            write = h.invoke("w", [("update", "a", "q")])
            _op(h, "x", ("lookup", "a"), seen[0], (True, seen[1]))
            h.complete(write, [BatchOutcome(BatchOp("update", "a", "q"), version=2)])
            h.check()

    def test_a_write_read_before_it_was_invoked_fails(self):
        h = History({"a": (1, True, "p")})
        _op(h, "x", ("lookup", "a"), 2, (True, "q"))
        _op(h, "w", ("update", "a", "q"), 2)
        _rejects(h, "invoked after it returned")

    def test_a_version_nothing_installed_fails(self):
        h = History({"a": (1, True, "p")})
        _op(h, "x", ("lookup", "a"), 7, (True, "p"))
        _rejects(h, "nothing installed")

    def test_an_aborted_write_installs_nothing(self):
        h = History({"a": (1, True, "p")})
        _op(h, "w", ("update", "a", "q"), None,
            error=TransactionAbortedError(1))
        _op(h, "x", ("lookup", "a"), 2, (True, "q"))
        _rejects(h, "nothing installed")

    def test_two_writes_of_one_version_fail(self):
        h = History({"a": (1, True, "p")})
        _op(h, "x", ("update", "a", "q"), 2)
        write = h.invoke("y", [("update", "a", "r")])
        h.complete(write, [BatchOutcome(BatchOp("update", "a", "r"), version=2)])
        _rejects(h, "installed one version")

    def test_two_answers_for_one_version_fail(self):
        h = History({"a": (1, True, "p")})
        _op(h, "x", ("lookup", "a"), 1, (True, "other"))
        _rejects(h, "disagrees")

    def test_a_client_that_goes_back_fails(self):
        """Two lookups in one wave see the key in the fold's order."""
        h = History({"a": (1, True, "p")})
        write = h.invoke("w", [("update", "a", "q")])
        calls = h.invoke("x", [("lookup", "a"), ("lookup", "a")])
        h.complete(calls, [
            BatchOutcome(BatchOp("lookup", "a"), (True, "q"), None, 2),
            BatchOutcome(BatchOp("lookup", "a"), (True, "p"), None, 1),
        ])
        h.complete(write, [BatchOutcome(BatchOp("update", "a", "q"), version=2)])
        _rejects(h, "went back from 2")

    def test_a_delete_must_dominate_its_key(self):
        h = History({"a": (4, True, "p")})
        _op(h, "x", ("delete", "a"), 4)
        _rejects(h, "installed no more than 4")

    def test_a_coalesce_reads_as_absent_at_the_gap_version(self):
        """Deleting b coalesces over absent a: a read of a may find b's
        gap version, which must dominate what a held."""
        h = History({"a": (2, False, None), "b": (3, True, "p")})
        _op(h, "x", ("delete", "b"), 4)
        _op(h, "y", ("lookup", "a"), 4, (False, None))
        h.check()
        # a is written at 5 while the read is under way, then b's
        # delete claims to have coalesced a at 4.
        h = History({"a": (2, False, None), "b": (3, True, "p")})
        read = h.invoke("y", [("lookup", "a")])
        _op(h, "w", ("insert", "a", "q"), 5)
        _op(h, "z", ("delete", "a"), 6)
        _op(h, "x", ("delete", "b"), 4)
        h.complete(read, [BatchOutcome(BatchOp("lookup", "a"), (False, None), None, 4)])
        _rejects(h, "coalesced 'a' over a later version")

    def test_a_wave_that_writes_hides_its_intermediate_versions(self):
        h = History({"a": (1, True, "p")})
        write = h.invoke("w", [("update", "a", "q"), ("update", "a", "r")])
        _op(h, "x", ("lookup", "a"), 2, (True, "q"))
        h.complete(write, [
            BatchOutcome(BatchOp("update", "a", "q"), version=2),
            BatchOutcome(BatchOp("update", "a", "r"), version=3),
        ])
        _rejects(h, "overwritten inside wave 0")

    def _two_waves(self, order):
        """Two waves, each writing a and b; ``order`` says which wrote
        each key last."""
        h = History({"a": (1, True, "p"), "b": (1, True, "p")})
        first = h.invoke("x", [("update", "a", "x"), ("update", "b", "x")])
        second = h.invoke("y", [("update", "a", "y"), ("update", "b", "y")])
        versions = {"x": {}, "y": {}}
        for key, last in zip("ab", order):
            versions[last][key], versions["xy".replace(last, "")][key] = 3, 2
        for calls, client in ((first, "x"), (second, "y")):
            h.complete(calls, [
                BatchOutcome(BatchOp("update", key, client), version=versions[client][key])
                for key in "ab"
            ])
        return h

    def test_writing_waves_keep_one_order_on_every_key(self):
        self._two_waves("yy").check()
        _rejects(self._two_waves("yx"), "ordered differently")

    def test_a_read_only_wave_may_straddle_two_writers(self):
        """One wave reads a after W and b before W', and W' came before
        W: per-key linearizable, so accepted."""
        h = History({"a": (1, True, "p"), "b": (1, True, "p")})
        reads = h.invoke("r", [("lookup", "a"), ("lookup", "b")])
        _op(h, "w", ("update", "b", "q"), 2)
        _op(h, "w", ("update", "a", "q"), 2)
        h.complete(reads, [
            BatchOutcome(BatchOp("lookup", "a"), (True, "q"), None, 2),
            BatchOutcome(BatchOp("lookup", "b"), (True, "p"), None, 1),
        ])
        h.check()


# -- planted defects ----------------------------------------------------------


def _read_beside_an_undecided_write():
    """A writer installs ``a`` on {A, B}; before its decision a wave
    reads ``a``, the writer aborts, and a second wave reads ``a``."""
    with build() as cluster:
        suite = cluster.suite
        suite.insert("a", 0)
        history = History(held(cluster, ["a"]))
        write = history.invoke("writer", [("update", "a", 1)])
        with pytest.raises(TransactionAbortedError):
            with suite._transaction() as txn:
                suite._suite_insert(txn, suite._user_key("a"), 1, True)
                history.run("reader", suite.execute_batch, [("lookup", "a")])
                raise TransactionAbortedError(txn.txn_id, "abandoned")
        history.complete(write, [BatchOutcome(
            BatchOp("update", "a", 1), error=TransactionAbortedError(0)
        )])
        history.run("reader", suite.execute_batch, [("lookup", "a")])
        return history


def _read_after_a_write_elsewhere():
    """``a`` updated on {B, C}, then read on {A, B}."""
    with build(order="BCA") as cluster:
        cluster.suite.insert("a", 0)
        history = History(held(cluster, ["a", "b"]))
        history.run("writer", cluster.suite.execute_batch, [("update", "a", 1)])
        cluster.suite.quorum_policy.preference = list("ABC")
        history.run("reader", cluster.suite.execute_batch,
                    [("lookup", "a"), ("lookup", "b")])
        return history


def _delete_then_read():
    with build() as cluster:
        for key in "abc":
            cluster.suite.insert(key, 0)
        cluster.suite.update("b", 1)
        history = History(held(cluster, "abc"))
        history.run("client", cluster.suite.execute_batch, [("delete", "b")])
        history.run("reader", cluster.suite.execute_batch,
                    [("lookup", key) for key in "abc"])
        return history


class TestPlantedDefects:
    def test_a_released_read_that_ignores_a_held_repmodify(self, monkeypatch):
        _read_beside_an_undecided_write().check()
        released = DirectoryRepresentative.rep_lookup_many

        def ignoring(self, txn_id, keys, searches=(), release=False):
            if release:
                return [self.store.lookup(key) for key in keys]
            return released(self, txn_id, keys, searches, release)

        monkeypatch.setattr(DirectoryRepresentative, "rep_lookup_many", ignoring)
        _rejects(_read_beside_an_undecided_write(), "nothing installed")

    def test_a_lookup_answered_from_r_minus_one_members(self, monkeypatch):
        _read_after_a_write_elsewhere().check()
        rounds = batch._Wave.round

        def short(self, kind, method, args, ends=None):
            if method != "rep_lookup_many":
                return rounds(self, kind, method, args, ends)
            members = self.quorum(kind)
            self._quorums[kind] = members[:-1]
            try:
                return rounds(self, kind, method, args, ends)
            finally:
                self._quorums[kind] = members

        monkeypatch.setattr(batch._Wave, "round", short)
        _rejects(_read_after_a_write_elsewhere(), "read below")

    def test_a_delete_that_skips_the_gap_version_bump(self, monkeypatch):
        _delete_then_read().check()
        walk = batch._walk

        def unbumped(wave, walkers, keep=None):
            return {
                key: (low, high, version - 1, bounds)
                for key, (low, high, version, bounds)
                in walk(wave, walkers, keep).items()
            }

        monkeypatch.setattr(batch, "_walk", unbumped)
        _rejects(_delete_then_read(), "installed no more than 2")
