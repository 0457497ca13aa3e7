"""Operation traces: record, save, load, replay.

A trace is the exact operation stream a simulation executed.  Recording
traces makes experiments reproducible across machines and lets regression
tests replay a problematic history verbatim.  Traces serialize to JSON
Lines (one operation per line) with a small header, so they diff cleanly
and survive format drift loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.sim.workload import Operation

FORMAT_VERSION = 1


@dataclass
class Trace:
    """A recorded operation stream plus metadata."""

    operations: list[Operation] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    # -- recording ------------------------------------------------------------

    def record(self, op: Operation) -> Operation:
        """Append one operation (returns it, for pipeline style)."""
        self.operations.append(op)
        return op

    def record_all(self, ops: Iterable[Operation]) -> Iterator[Operation]:
        """Record a stream lazily while passing it through."""
        for op in ops:
            self.record(op)
            yield op

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    # -- persistence ------------------------------------------------------------

    def dumps(self) -> str:
        """Serialize to JSON Lines (header line + one line per op)."""
        header = {
            "format": FORMAT_VERSION,
            "count": len(self.operations),
            "metadata": self.metadata,
        }
        lines = [json.dumps(header)]
        for op in self.operations:
            lines.append(
                json.dumps(
                    {
                        "kind": op.kind,
                        "key": op.key,
                        "value": op.value,
                        "client": op.client,
                    }
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def loads(cls, text: str) -> "Trace":
        """Parse a trace produced by :meth:`dumps`."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty trace")
        header = json.loads(lines[0])
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format {header.get('format')!r} "
                f"(expected {FORMAT_VERSION})"
            )
        operations = []
        for line in lines[1:]:
            raw = json.loads(line)
            operations.append(
                Operation(raw["kind"], raw["key"], raw["value"], raw["client"])
            )
        if header.get("count") != len(operations):
            raise ValueError(
                f"trace header promises {header.get('count')} operations, "
                f"found {len(operations)}"
            )
        return cls(operations=operations, metadata=header.get("metadata", {}))

    def save(self, path: str | Path) -> None:
        """Write the trace to a file."""
        Path(path).write_text(self.dumps())

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Read a trace from a file."""
        return cls.loads(Path(path).read_text())


def replay(trace: Trace, suite, on_error: str = "raise") -> dict[str, int]:
    """Apply every recorded operation to a directory suite.

    ``on_error``: "raise" propagates the first failure; "count" swallows
    directory/network errors and tallies them (for replaying traces
    against deliberately degraded clusters).  Returns operation counts.
    """
    from repro.core.batch import _single
    from repro.core.errors import ReproError

    if on_error not in ("raise", "count"):
        raise ValueError(f"on_error must be 'raise' or 'count': {on_error!r}")
    counts = {"insert": 0, "update": 0, "delete": 0, "lookup": 0, "failed": 0}
    for op in trace:
        try:
            _single(suite, op.kind, op.key, op.value)
            counts[op.kind] = counts.get(op.kind, 0) + 1
        except ReproError:
            if on_error == "raise":
                raise
            counts["failed"] += 1
    return counts
