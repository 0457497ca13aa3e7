"""Histories of directory operations, and the checker that referees them.

:class:`History` records each op's client, kind and key, its invoke and
return instants (its own event count, exact however clients interleave),
its outcome and its :attr:`~repro.core.batch.BatchOutcome.version`.
:meth:`History.check` asserts the client contract, linearizability per
key, one key at a time (it is local: Herlihy & Wing, TOPLAS 1990).  Per
key: a write or delete installs a version above every one acknowledged
before it was invoked, and no two install the same one; a read returns
the latest acknowledged before it was invoked, or one installed by a
write of the key, or a delete whose coalesce covered it, invoked before
the read returned; every op that saw a version agrees on what it holds;
no client's versions go backwards; a delete's gap version dominates
every version it coalesced.  Waves that write must also be serializable
(nothing outside one sees a version it overwrote; they are ordered alike
on every key they share).  A wave that only reads is released with its
reply, and may straddle two writers (docs/CORRECTNESS.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from typing import Any, Callable

from repro.core.batch import _DELETES, BatchOp, BatchOutcome
from repro.core.errors import KeyAlreadyPresentError, KeyNotPresentError
from repro.core.versions import LOWEST_VERSION

#: What a refused insert saw: its key present, its value unread.
UNREAD = object()


class HistoryViolation(AssertionError):
    """The ops that break the contract, one line each in ``faults``."""

    def __init__(self, faults: "list[str]") -> None:
        super().__init__("\n".join(faults))
        self.faults = faults


@dataclass(slots=True)
class Op:
    """One recorded op: ``version`` stays None unless it returned one (its
    wave of one aborted), and ``present`` and ``seen`` are what it found."""

    client: Any
    wave: int
    kind: str
    key: Any
    value: Any
    invoke: float
    ret: float = float("inf")
    version: Any = None
    present: bool = False
    seen: Any = UNREAD
    writes: bool = False

    def __str__(self) -> str:
        return f"{self.client}:{self.kind} {self.key!r}@{self.version}[{self.ret}]"


class History:
    """The recorder.  ``initial`` maps a key to ``(version, present,
    value)``, what the directory held before the first op; a key it
    omits starts absent at the lowest version."""

    def __init__(self, initial: "dict[Any, tuple] | None" = None) -> None:
        self._clock, self._waves = itertools.count(), itertools.count()
        self.ops: "list[Op]" = []
        self.initial = initial or {}

    def invoke(self, client: Any, ops: Any) -> "list[Op]":
        """The ops of one wave, invoked together."""
        now, wave = next(self._clock), next(self._waves)
        ops = [op if isinstance(op, BatchOp) else BatchOp(*op) for op in ops]
        calls = [Op(client, wave, op.kind, op.key, op.value, now) for op in ops]
        self.ops += calls
        return calls

    def complete(self, calls: "list[Op]", outcomes: "list[BatchOutcome]") -> None:
        """The wave's outcomes, returned together."""
        now = next(self._clock)
        for call, outcome in zip(calls, outcomes):
            call.ret, error = now, outcome.error
            if outcome.version is None or error is not None and not isinstance(
                    error, (KeyAlreadyPresentError, KeyNotPresentError)):
                continue
            call.version = outcome.version
            if call.kind == "lookup":
                call.present, call.seen = outcome.value
            elif call.kind in _DELETES:
                # Absent either way; a delete that found it wrote the gap.
                call.writes, call.seen = error is None and outcome.value != 0, None
            elif error is None:
                call.writes = call.present = True
                call.seen = call.value
            else:
                call.present = isinstance(error, KeyAlreadyPresentError)
                call.seen = UNREAD if call.present else None

    def run(self, client: Any, execute: Callable, ops: Any) -> "list[BatchOutcome]":
        """``execute(ops)`` (``suite.execute_batch``, say), recorded."""
        calls = self.invoke(client, ops)
        self.complete(calls, outcomes := execute(ops))
        return outcomes

    def check(self) -> None:
        """Raise :class:`HistoryViolation` unless the history keeps the
        contract (module docstring)."""
        done = [op for op in self.ops if op.version is not None]
        keys: "dict[Any, list[Op]]" = {}
        gaps: "dict[Any, list[Op]]" = {}  # deletes, by the gap they left
        for op in done:
            if op.key not in keys:
                # What the key held before, as an op that installed it.
                version, present, value = self.initial.get(
                    op.key, (LOWEST_VERSION, False, None))
                keys[op.key] = [Op(None, -1, "initial", op.key, None, -1, -1,
                                   version, present, value, True)]
            keys[op.key].append(op)
            if op.writes and not op.present:
                gaps.setdefault(op.version, []).append(op)
        faults = [f for key, ops in keys.items() for f in _linearizable(key, ops, gaps)]
        faults += _waves(done)
        if faults:
            raise HistoryViolation(faults)


def _linearizable(key: Any, ops: "list[Op]", gaps: "dict[Any, list[Op]]") -> "list[str]":
    """One key's sub-history in recorded order, its initial state first
    (module docstring)."""
    def floor(instant: float) -> Any:
        return max(op.version for op in ops if op.ret < instant)

    faults, last, installed = [], {}, {ops[0].version: ops[0]}
    for op in ops[1:]:
        if op.version < last.setdefault(op.client, op.version):
            faults.append(f"{op} went back from {last[op.client]}")
        last[op.client], below = op.version, floor(op.invoke)
        if not op.writes:
            if op.version < below:
                faults.append(f"{op} read below {below}, acknowledged before it")
            continue
        if op.version in installed:
            faults.append(f"{op} and {installed[op.version]} installed one version")
        installed[op.version] = op
        if op.version <= below:
            faults.append(f"{op} installed no more than {below}")
    witness = dict(installed)
    for op in ops[1:]:
        if op.version in installed:
            if installed[op.version].invoke > op.ret:
                faults.append(f"{op} read a write invoked after it returned")
        elif op.version > floor(op.invoke):
            # Not this key's write: a coalesce's gap, or nothing.
            coalesce = next((d for d in gaps.get(op.version, ())
                             if d.invoke < op.ret and not op.present), None)
            if coalesce is None:
                faults.append(f"{op} read a version nothing installed")
            elif floor(coalesce.invoke) >= op.version:
                faults.append(f"{coalesce} coalesced {key!r} over a later version")
        source = witness.setdefault(op.version, op)
        if op.present != source.present or UNREAD not in (op.seen, source.seen) \
                and op.seen != source.seen:
            faults.append(f"{op} disagrees with {source}")
    return faults


def _waves(done: "list[Op]") -> "list[str]":
    """Wave serializability of the waves that write (module docstring)."""
    waves: "dict[int, dict[Any, list[Op]]]" = {}
    for op in done:
        waves.setdefault(op.wave, {}).setdefault(op.key, []).append(op)
    writing = {wave: keys for wave, keys in waves.items()
               if any(op.writes for ops in keys.values() for op in ops)}
    faults, after = [], {wave: set() for wave in writing}
    for wave, keys in writing.items():
        for key, ops in keys.items():
            hidden = {op.version for op in ops if op.writes} - {ops[-1].version}
            faults += [f"{op} saw {hidden}, overwritten inside wave {wave}"
                       for op in done
                       if op.key == key and op.wave != wave and op.version in hidden]
    for a, b in itertools.permutations(writing, 2):
        if any(_place(writing[a][key]) < _place(writing[b][key])
               for key in writing[a].keys() & writing[b].keys()):
            after[b].add(a)
    try:
        TopologicalSorter(after).prepare()
    except CycleError as cycle:
        faults.append(f"waves {cycle.args[1]} are ordered differently on two keys")
    return faults


def _place(ops: "list[Op]") -> tuple:
    """Where a wave's ops on one key sit in its order: the version they
    left, the wave that installed it before the waves that read it."""
    left = ops[-1].version
    return left, not any(op.writes and op.version == left for op in ops)
