"""The span pass: where one op's time goes, layer by layer.

The workload's op mix is replayed *one op at a time* against the
in-process server, with timing wrappers the benchmark installs around
each layer's public callables (nothing under ``src/`` changes).  With one
op in flight every span recorded between an op's send and its reply is
that op's own, whichever thread ran it, so the tree is rebuilt afterwards
from time containment alone: a span's parent is the innermost span that
was open when it started.  A layer's *self time* is its span minus its
children, and the seven categories tile the client-observed latency.

A child can outlive its parent on the clock — a shard thread that has
handed its result to the loop may wait for the GIL before it reads its
own end time — so children are clipped to their parent and the clipped
share is reported as ``span_tiling_error``.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from benchmarks.perf import counted
from benchmarks.perf.driver import Tally
from benchmarks.perf.spec import SPAN_CATEGORIES
from benchmarks.perf.workloads import Workload
from repro.core.representative import DirectoryRepresentative
from repro.core.suite import DirectorySuite
from repro.service import aio, server, wire
from repro.storage.sorted_store import SortedStore
from repro.storage.wal import WriteAheadLog
from repro.txn.locks import LockTable


@dataclass(slots=True)
class Span:
    name: str
    category: str
    start: float
    end: float
    parent: int = -1
    op: int = -1


class Recorder:
    """Spans in memory; ``list.append`` is the only shared write."""

    def __init__(self) -> None:
        self.records: "list[tuple[str, str, float, float]]" = []
        self._patched: "list[tuple[Any, str, Any]]" = []
        self._wire_depth = threading.local()

    # -- wrappers -----------------------------------------------------------

    def _sync(self, name: str, category: str, fn: Any) -> Any:
        add = self.records.append

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                add((name, category, started, time.perf_counter()))

        return wrapper

    def _async(self, name: str, category: str, fn: Any) -> Any:
        add = self.records.append

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                add((name, category, started, time.perf_counter()))

        return wrapper

    def _outermost(self, name: str, category: str, fn: Any) -> Any:
        """For the wire codec, which recurses through its own module names:
        only the outermost call on a thread is a span."""
        add, depth = self.records.append, self._wire_depth

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if getattr(depth, "n", 0):
                return fn(*args, **kwargs)
            depth.n = 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth.n = 0
                add((name, category, started, time.perf_counter()))

        return wrapper

    def _patch(self, owner: Any, attr: str, category: str, make: Any) -> None:
        original = vars(owner)[attr]
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(label, category, original))

    def _patch_public(self, cls: type, category: str) -> None:
        for attr, member in list(vars(cls).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(member)
                or inspect.isgeneratorfunction(member)
            ):
                continue
            self._patch(cls, attr, category, self._sync)

    def install(self) -> None:
        """Wrap each layer's public callables; :meth:`uninstall` restores."""
        service = server.DirectoryService
        self._patch(service, "_dispatch", "front_door", self._async)
        self._patch(service, "_on_shard", "queue_wait", self._async)
        for attr in ("_run_single", "_run_batch"):
            self._patch(server._ShardBatcher, attr, "front_door", self._sync)
        for attr in ("lookup", "insert", "update", "delete", "execute_batch"):
            self._patch(DirectorySuite, attr, "suite", self._sync)
        for attr in ("call", "scatter"):
            self._patch(aio.AsyncioEndpoint, attr, "rpc", self._sync)
        for attr in ("dump", "load", "encode_value", "decode_value",
                     "encode_error", "decode_error"):
            self._patch(wire, attr, "wire", self._outermost)
        self._patch_public(DirectoryRepresentative, "rep")
        for cls in (SortedStore, WriteAheadLog, LockTable):
            self._patch_public(cls, "store_wal_locks")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- analysis ------------------------------------------------------------------


def build_tree(spans: "list[Span]") -> float:
    """Set ``parent`` (an index into ``spans``) and ``op`` on every span.

    ``spans`` must be sorted by ``(start, -end)``.  A span's parent is
    the innermost span open at its start; a child that ends after its
    parent is clipped to it.  Returns the seconds clipped away.
    """
    clipped = 0.0
    stack: "list[int]" = []
    for i, span in enumerate(spans):
        while stack and spans[stack[-1]].end <= span.start:
            stack.pop()
        if stack:
            parent = spans[stack[-1]]
            span.parent = stack[-1]
            span.op = parent.op
            if span.end > parent.end:
                clipped += span.end - parent.end
                span.end = parent.end
        stack.append(i)
    return clipped


def self_times(spans: "list[Span]") -> "dict[int, float]":
    """Self seconds per span index: duration minus its children's."""
    out = {i: span.end - span.start for i, span in enumerate(spans)}
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.end - span.start
    return out


def tile(
    records: "Iterable[tuple[str, str, float, float]]",
    ops: "list[tuple[float, float]]",
) -> "tuple[list[Span], dict[str, float], float]":
    """Spans of the measured ops, self seconds per category, clipped seconds.

    ``ops`` are the client's ``(sent, done)`` instants; each becomes the
    root ``client_op`` span of its tree, in the ``front_door`` category
    (socket transit and client-side framing have no layer of their own).
    """
    spans = [Span(*record) for record in records]
    roots = [
        Span("client_op", "front_door", sent, done, op=i)
        for i, (sent, done) in enumerate(ops)
    ]
    spans = sorted(spans + roots, key=lambda s: (s.start, -s.end))
    clipped = build_tree(spans)
    keep = [i for i, span in enumerate(spans) if span.op >= 0]
    renumber = {old: new for new, old in enumerate(keep)}
    kept = [spans[i] for i in keep]
    for span in kept:
        span.parent = renumber.get(span.parent, -1)
    by_category = dict.fromkeys(SPAN_CATEGORIES, 0.0)
    for i, seconds in self_times(kept).items():
        by_category[kept[i].category] += seconds
    return kept, by_category, clipped


def _replay(
    workload: Workload, seed: int, workdir: Path, ops: int, recorder: Recorder,
) -> "tuple[dict[str, Any], Tally, list[tuple[str, str, float, float]]]":
    job = {
        "workload": workload.name, "seed": seed, "serial": True, "ops": ops,
        "warm_ops": max(10, ops // 10),
    }
    taken: "list[tuple[str, str, float, float]]" = []
    recorder.install()
    try:
        with counted.InProcessServer() as host:
            measured, tally = counted.drive(
                host, job, workdir / f"{workload.name}.span-client.err",
                recorder.records.clear,
                lambda: taken.extend(recorder.records),
            )
    finally:
        recorder.uninstall()
    return measured, tally, taken


def span_cost_s(samples: int = 20_000) -> float:
    """Seconds one recorded span adds, measured around a no-op."""
    recorder = Recorder()
    wrapped = recorder._sync("noop", "front_door", lambda: None)
    started = time.perf_counter()
    for _ in range(samples):
        wrapped()
    wrapped_s = time.perf_counter() - started
    bare = lambda: None  # noqa: E731 - the same call shape, unwrapped
    started = time.perf_counter()
    for _ in range(samples):
        bare()
    return max(0.0, wrapped_s - (time.perf_counter() - started)) / samples


def span_workload(
    workload: Workload, seed: int, workdir: Path, ops: int
) -> "tuple[dict[str, float], Tally]":
    """Replay the mix serially under the wrappers and tile the result."""
    measured, tally, records = _replay(workload, seed, workdir, ops, Recorder())
    intervals = [(sent, end) for sent, end in measured["ops_intervals"]]
    spans, by_category, clipped = tile(records, intervals)
    latency = sum(end - sent for sent, end in intervals)
    with open(workdir / f"{workload.name}.spans.jsonl", "w") as out:
        for i, span in enumerate(spans):
            out.write(
                json.dumps(
                    {"id": i, "op": span.op, "name": span.name,
                     "category": span.category, "start": span.start,
                     "end": span.end, "parent": span.parent}
                ) + "\n"
            )
    metrics = {
        f"self_ms_per_op.{category}": seconds * 1e3 / len(intervals)
        for category, seconds in by_category.items()
    }
    metrics["span_tiling_error"] = clipped / latency
    # The wrappers' own price, from their count and their cost around a
    # no-op: a bare replay a second apart differs by more than they add.
    added = len(spans) * span_cost_s()
    metrics["span_overhead_ratio"] = latency / max(latency - added, 1e-9)
    return metrics, tally
