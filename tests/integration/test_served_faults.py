"""A served op runs the fold, faults included.

Every keyed op the front door serves runs through
:func:`repro.core.batch.execute_batch`, and that stays true when its
wave's transaction aborts (each op then re-runs as a wave of one) and
when a live split heals the target and drains the source (one wave
each).  Here the classic one-op path — :func:`repro.core.batch._single`
and the suite's public ``lookup`` / ``insert`` / ``update`` / ``delete``
/ ``_upsert`` — is made to blow up, and a served directory is driven
through a lost ``prepare`` reply, a partition that leaves one replica of
three, and a ``RESHARD SPLIT`` under pipelined load.  Each must answer,
byte for byte, what a twin directory on the simulated network answers
for the same requests (computed before the classic path is broken), and
leave audits clean.
"""

from __future__ import annotations

import asyncio
import re
import socket
import threading
from pathlib import Path

import pytest

import repro
from repro.cluster import ClusterSpec
from repro.core import batch
from repro.core.suite import DirectorySuite
from repro.net.failures import LossEvent, ScriptedLoss
from repro.service.protocol import encode_command
from repro.service.server import DirectoryService
from repro.shard.maps import ShardMap
from repro.shard.sharded import ShardedDirectory
from tests.scope import assert_clean
from tests.unit.test_batch import _SplitQuorums


def _directory(served, **fields):
    """Two range shards split at "m"; on the asyncio network when
    ``served``, else on the simulated one."""
    spec = ClusterSpec(**{
        "config": "3-2-2",
        "seed": 17,
        "fanout": "parallel",
        **({"transport": "asyncio"} if served else {}),
        **fields,
    })
    return ShardedDirectory.create(
        spec, shards=2, shard_map=ShardMap.range(["m"])
    )


def _answers(svc, frames):
    """All the reply bytes one pipelined write of ``frames`` gets."""
    with socket.create_connection((svc.host, svc.port), timeout=30) as sock:
        sock.sendall(b"".join(encode_command(*frame) for frame in frames))
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as stream:
            return stream.read()


def _twin_answers(svc, bursts):
    """What the front door over a simulated directory answers for each
    burst of ``bursts``, every burst dispatched in one loop turn."""

    async def run():
        replies = []
        for frames in bursts:
            replies.append(
                b"".join(
                    await asyncio.gather(
                        *(svc._dispatch(list(frame)) for frame in frames)
                    )
                )
            )
        return replies

    return asyncio.run(run())


@pytest.fixture()
def break_classic(monkeypatch):
    """Calling it makes any run of the classic one-op path raise, until
    ``monkeypatch.undo()``; returns the monkeypatch."""

    def boom(*args, **kwargs):
        raise AssertionError("the classic one-op path ran on the served stack")

    def install():
        monkeypatch.setattr(batch, "_single", boom)
        for name in ("lookup", "insert", "update", "delete", "_upsert"):
            monkeypatch.setattr(DirectorySuite, name, boom)
        return monkeypatch

    return install


def _assert_audits_clean(directory):
    auditor = directory.make_auditor()
    auditor.run()
    auditor.audit_reshard()
    assert auditor.report.violations == []
    assert_clean(directory)


PRELOAD = [("SET", key, "v0") for key in ("a1", "a2", "z1")]
BURST = [
    ("SET", "a1", "v1"),
    ("GET", "a1"),
    ("INSERT", "a3", "v3"),
    ("INSERT", "a1", "again"),
    ("DEL", "a2"),
    ("DELETE", "a2"),
    ("GET", "a2"),
    ("SET", "z1", "w1"),
    ("UPDATE", "z9", "nope"),
    ("LOOKUP", "a3"),
]


class TestFaultsOnTheServedPath:
    def _run(self, break_classic, fault, **fields):
        """PRELOAD then BURST on the twin, then (classic path broken) on
        a served directory, ``fault(directory)`` applied after the
        preload on both; returns the served directory's answers, the
        twin's, and the served directory's fallbacks."""
        with _directory(False, **fields) as d, DirectoryService(d) as svc:
            _twin_answers(svc, [PRELOAD])
            fault(d)
            (twin,) = _twin_answers(svc, [BURST])
            d.network.heal()
            _assert_audits_clean(d)
        patched = break_classic()
        with _directory(True, **fields) as d, DirectoryService(d).start() as svc:
            _answers(svc, PRELOAD)
            fault(d)
            served = _answers(svc, BURST)
            fallbacks = sum(
                c.suite._batch_fallbacks.value for c in d.clusters
            )
            patched.undo()
            d.network.heal()
            _assert_audits_clean(d)
        return served, twin, fallbacks

    def test_a_lost_read_only_prepare_reply(self, break_classic):
        """A only reads (3-3-2: a wave writes the first two members it
        read), so its ``prepare`` is answered read-only; the reply is
        lost, the re-asked A, still holding no undo record, answers
        read-only again, and the wave commits with no fallback."""
        losses = []

        def lose_a_prepare_reply(d):
            losses.append(ScriptedLoss(
                [LossEvent("reply", "s0:node-A", "dir:A.prepare", 0)]
            ))
            d.network.install_faults(losses[-1])

        served, twin, fallbacks = self._run(
            break_classic,
            lose_a_prepare_reply,
            config="3-3-2",
            quorum_policy=lambda: _SplitQuorums("BCA", "BC"),
        )
        assert [loss.exhausted for loss in losses] == [True, True]
        assert served == twin
        assert fallbacks == 0
        assert b"-ERR" not in served and b"-UNAVAILABLE" not in served

    def test_two_of_three_replicas_partitioned(self, break_classic):
        def partition(d):
            d.network.partition(["client", "s0:node-A", "s1:node-A"])

        served, twin, fallbacks = self._run(break_classic, partition)
        assert served == twin
        assert fallbacks >= 1
        assert served.count(b"-UNAVAILABLE ") == len(BURST)


class TestSplitUnderLoad:
    """``RESHARD SPLIT`` while a pipelining writer rewrites the range:
    the heal and the drain are waves, and the replies are the twin's."""

    BURSTS = 40

    @classmethod
    def _bursts(cls):
        bursts = []
        for b in range(cls.BURSTS):
            keys = [f"key{(b + i) % 16:02d}" for i in range(6)]
            bursts.append(
                [("SET", key, f"b{b}") for key in keys]
                + [("GET", key) for key in keys]
            )
        return bursts

    SEED = [[("SET", f"key{i:02d}", f"v{i}") for i in range(16)]]
    SPLIT = [("RESHARD", "SPLIT", "key08")]

    def test_split_under_pipelined_load(self, break_classic):
        bursts = self._bursts()
        with _directory(False) as d, DirectoryService(d) as svc:
            seed, *writes = _twin_answers(svc, self.SEED + bursts[:3])
            (split,) = _twin_answers(svc, [self.SPLIT])
            writes += _twin_answers(svc, bursts[3:])
            twin = [seed, *writes, split]
        patched = break_classic()
        with _directory(True) as d, DirectoryService(d).start() as svc:
            served = [_answers(svc, self.SEED[0])]
            started = threading.Event()

            def writer():
                for i, burst in enumerate(bursts):
                    served.append(_answers(svc, burst))
                    if i == 2:
                        started.set()

            thread = threading.Thread(target=writer)
            thread.start()
            assert started.wait(timeout=30)
            reply = _answers(svc, self.SPLIT)
            thread.join(timeout=60)
            assert not thread.is_alive()
            served.append(reply)
            patched.undo()
            record = d.reshard_log[-1]
            assert (record.moved, record.violations) == (8, [])
            _assert_audits_clean(d)
        assert served == twin
        assert b"-ERR" not in b"".join(served)


def test_the_front_door_and_the_resharder_never_name_the_classic_path():
    """Nothing in ``repro.service`` or ``repro.shard`` — the front door,
    ``ShardedDirectory.execute_wave``, the resharder — names the classic
    one-op path; under ``src/`` only the simulator driver and trace
    replay run it."""
    root = Path(repro.__file__).parent
    for package in ("service", "shard"):
        for path in sorted((root / package).glob("*.py")):
            assert not re.search(r"\b_single\b", path.read_text()), path
