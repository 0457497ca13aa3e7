"""The counted plane: numbers that repeat while the clock swings.

The same ``ShardedDirectory`` + ``DirectoryService`` that ``repro serve``
builds is hosted *inside the benchmark process* under
``threading.setprofile``: every server thread profiles itself from its
first frame, so interpreter call events (Python and C) can be counted and
bucketed by the file of the code that made them.  A child process drives
it with a *fixed op count*, and the parent reads the counters only while
the server is idle between phases.  Registry deltas taken at the same
instants give the message cost (``service.rpc.calls``) and the batcher,
WAL and lock counts per op.
"""

from __future__ import annotations

import cProfile
import json
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from typing import Any

from benchmarks.perf.driver import Tally
from benchmarks.perf.timed import RUN_PY, child_env, stop_process
from benchmarks.perf.workloads import Workload
from repro.cluster import ClusterSpec
from repro.obs.live import flatten_numeric
from repro.service import server as server_module
from repro.service.server import DirectoryService
from repro.shard.sharded import ShardedDirectory

#: ``calls_per_op.<bucket>`` names, in report order.
BUCKETS = (
    "service.server", "service.protocol", "service.aio", "service.wire",
    "shard", "core.suite", "core.batch", "core.representative", "txn",
    "storage", "obs", "asyncio", "json", "threads", "repro.other",
    "stdlib.other",
)

#: First match wins; paths are matched with forward slashes.
_BUCKET_RULES = (
    ("/benchmarks/perf/", "harness"),
    ("/repro/service/server.py", "service.server"),
    ("/repro/service/protocol.py", "service.protocol"),
    ("/repro/service/aio.py", "service.aio"),
    ("/repro/service/wire.py", "service.wire"),
    ("/repro/shard/", "shard"),
    ("/repro/core/suite.py", "core.suite"),
    ("/repro/core/batch.py", "core.batch"),
    ("/repro/core/representative.py", "core.representative"),
    ("/repro/txn/", "txn"),
    ("/repro/storage/", "storage"),
    ("/repro/obs/", "obs"),
    ("/repro/", "repro.other"),
    ("/asyncio/", "asyncio"),
    ("/selectors.py", "asyncio"),
    ("/json/", "json"),
    ("/threading.py", "threads"),
    ("/concurrent/futures/", "threads"),
    ("/queue.py", "threads"),
)


def bucket_of(filename: str) -> str:
    """The layer a code object's file belongs to."""
    path = filename.replace("\\", "/")
    for fragment, bucket in _BUCKET_RULES:
        if fragment in path:
            return bucket
    return "stdlib.other"


class CallCounter:
    """Per-thread ``cProfile`` profilers started by ``threading.setprofile``.

    The hook runs once per new thread — on its first profile event —
    and hands the thread over to a C-level profiler, which is cheap
    enough not to change how waves form.  C calls are charged to the
    bucket of the Python code that made them.
    """

    def __init__(self) -> None:
        self._profilers: "list[cProfile.Profile]" = []
        self._lock = threading.Lock()

    def install(self) -> None:
        threading.setprofile(self._adopt_thread)

    @staticmethod
    def uninstall() -> None:
        threading.setprofile(None)

    def _adopt_thread(self, frame: Any, event: str, arg: Any) -> None:
        profiler = cProfile.Profile()
        with self._lock:
            self._profilers.append(profiler)
        profiler.enable()  # replaces this hook on the calling thread

    def snapshot(self) -> "Counter[str]":
        """Cumulative call events per bucket, over every adopted thread."""
        counts: "Counter[str]" = Counter()
        builtin_total = builtin_charged = 0
        with self._lock:
            profilers = list(self._profilers)
        for profiler in profilers:
            for entry in profiler.getstats():
                if isinstance(entry.code, str):
                    builtin_total += entry.callcount
                    continue
                bucket = bucket_of(entry.code.co_filename)
                counts[bucket] += entry.callcount
                for sub in entry.calls or ():
                    if isinstance(sub.code, str):
                        counts[bucket] += sub.callcount
                        builtin_charged += sub.callcount
        # C code called from C code (or from a frame older than the
        # profiler) has no Python caller on record.
        counts["stdlib.other"] += builtin_total - builtin_charged
        return counts


class WaveRecorder:
    """Counts the batcher's drain waves and their sizes.

    The registry only counts *grouped* transactions; a wave of one (the
    serial case) never reaches it, so the wave itself is observed here,
    around ``_ShardBatcher._process``.
    """

    def __init__(self) -> None:
        self.waves = 0
        self.ops = 0
        self._original = server_module._ShardBatcher._process

    def install(self) -> None:
        recorder, original = self, self._original

        def _process(batcher: Any, wave: "list[Any]") -> None:
            recorder.waves += 1
            recorder.ops += len(wave)
            original(batcher, wave)

        server_module._ShardBatcher._process = _process

    def uninstall(self) -> None:
        server_module._ShardBatcher._process = self._original


class InProcessServer:
    """What ``repro serve --shards 4 --config 3-2-2 --seed 0`` builds."""

    def __enter__(self) -> "InProcessServer":
        spec = ClusterSpec(
            config="3-2-2", seed=0, store="sorted", transport="asyncio",
            fanout="parallel",
        )
        self.directory = ShardedDirectory.create(spec, shards=4, shard_map="hash")
        try:
            self.service = DirectoryService(self.directory).start()
        except BaseException:
            self.directory.close()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        try:
            self.service.close()
        finally:
            self.directory.close()

    def registry(self) -> "dict[str, int]":
        return flatten_numeric(self.directory.transport.metrics.snapshot())


class ClientChild:
    """The counted plane's client process and its line handshake."""

    def __init__(self, job: "dict[str, Any]", log: Path) -> None:
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(RUN_PY), "--client-job", json.dumps(job)],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )

    def expect(self, event: str) -> "dict[str, Any]":
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"client child died before {event!r}")
        message = json.loads(line)
        if message["event"] != event:
            raise RuntimeError(f"expected {event!r}, got {message!r}")
        return message

    def go(self) -> None:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        stop_process(self.proc)
        self.proc.stdout.close()
        self._log.close()


def _growth(before: "dict[str, int]", after: "dict[str, int]", fragment: str) -> int:
    """Summed growth of every registry leaf whose name holds ``fragment``."""
    return sum(
        value - before.get(name, 0)
        for name, value in after.items()
        if fragment in name
    )


def drive(
    server: InProcessServer, job: "dict[str, Any]", log: Path,
    at_start: Any, at_end: Any,
) -> "tuple[dict[str, Any], Tally]":
    """Run one client child against ``server``.

    ``at_start`` / ``at_end`` are called while the server is idle, just
    before and just after the measured phase.  Returns the child's
    ``measured`` message and what its oracle saw.
    """
    job = dict(job, host=server.service.host, port=server.service.port)
    child = ClientChild(job, log)
    try:
        child.expect("preloaded")
        child.go()
        child.expect("warmed")
        at_start()
        child.go()
        measured = child.expect("measured")
        at_end()
        child.go()
        done = child.expect("done")
    finally:
        child.close()
    del done["event"]
    return measured, Tally(**done)


def count_workload(
    workload: Workload, seed: int, workdir: Path
) -> "tuple[dict[str, float], Tally]":
    """The counted pass: call events and registry deltas per op."""
    counter, waves = CallCounter(), WaveRecorder()
    marks: "dict[str, tuple[Counter[str], dict[str, int]]]" = {}

    def mark(which: str) -> Any:
        def take() -> None:
            registry = server.registry()
            registry.update({"waves.count": waves.waves, "waves.ops": waves.ops})
            marks[which] = (counter.snapshot(), registry)
        return take

    counter.install()
    waves.install()
    try:
        with InProcessServer() as server:
            measured, tally = drive(
                server,
                {
                    "workload": workload.name, "seed": seed, "serial": False,
                    "ops": workload.counted_ops,
                    "warm_ops": max(20, workload.counted_ops // 10),
                },
                workdir / f"{workload.name}.counted-client.err",
                mark("start"), mark("end"),
            )
    finally:
        waves.uninstall()
        counter.uninstall()

    ops = measured["ops"]
    (calls0, before), (calls1, after) = marks["start"], marks["end"]
    calls = calls1 - calls0
    calls.pop("harness", None)

    def grew(fragment: str) -> int:
        return _growth(before, after, fragment)

    metrics = {"server_calls_per_op": sum(calls.values()) / ops}
    for bucket in BUCKETS:
        metrics[f"calls_per_op.{bucket}"] = calls.get(bucket, 0) / ops
    metrics.update(
        {
            "rpc_msgs_per_op": grew("service.rpc.calls") / ops,
            "batch.waves_per_op": grew("waves.count") / ops,
            "batch.ops_per_wave": grew("waves.ops") / max(1, grew("waves.count")),
            "batch.grouped_op_share": grew("suite.batch.ops") / ops,
            "batch.fallbacks": float(grew("suite.batch.fallbacks")),
            "wal.appends_per_op": grew(".wal.appends.") / ops,
            "locks.waits_per_op": grew(".locks.waits") / ops,
            "front.errors_per_op": grew("service.front.errors") / ops,
            "counted_lat_p50_ms": measured["lat_p50_ms"],
        }
    )
    return metrics, tally
