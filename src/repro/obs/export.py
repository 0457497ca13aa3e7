"""Span export: JSON-lines dumps and conversion to replayable traces.

The dump format mirrors :mod:`repro.sim.trace`: a header line followed by
one JSON object per *root* span (a whole per-operation tree nests inside
its line), so a file diff shows one operation per line and a stream
consumer can process operations one at a time.

Because suite-operation spans record the operation kind, key, and value
as attributes, a span dump is also a *trace*: :func:`spans_to_trace`
reconstructs the exact operation stream, which
:func:`repro.sim.trace.replay` can apply to a fresh cluster to reproduce
the traced run's final directory state.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from repro.obs.spans import Span

SPAN_FORMAT_VERSION = 1

#: Prefix of root spans that represent one public directory operation.
OP_SPAN_PREFIX = "op:"


def dump_spans(
    spans: Sequence[Span], metadata: dict[str, Any] | None = None
) -> str:
    """Serialize root spans to JSON Lines (header + one tree per line)."""
    header = {
        "format": SPAN_FORMAT_VERSION,
        "count": len(spans),
        "metadata": metadata or {},
    }
    lines = [json.dumps(header)]
    for span in spans:
        lines.append(json.dumps(span.to_dict(), default=str))
    return "\n".join(lines) + "\n"


def load_spans(text: str) -> list[Span]:
    """Parse a dump produced by :func:`dump_spans`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty span dump")
    header = json.loads(lines[0])
    if header.get("format") != SPAN_FORMAT_VERSION:
        raise ValueError(
            f"unsupported span dump format {header.get('format')!r} "
            f"(expected {SPAN_FORMAT_VERSION})"
        )
    spans = [Span.from_dict(json.loads(line)) for line in lines[1:]]
    if header.get("count") != len(spans):
        raise ValueError(
            f"span dump header promises {header.get('count')} spans, "
            f"found {len(spans)}"
        )
    return spans


def save_spans(
    spans: Sequence[Span],
    path: str | Path,
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write a span dump to a file."""
    Path(path).write_text(dump_spans(spans, metadata=metadata))


def load_spans_file(path: str | Path) -> list[Span]:
    """Read a span dump from a file."""
    return load_spans(Path(path).read_text())


def spans_to_trace(spans: Sequence[Span], include_failed: bool = False):
    """Reconstruct the operation stream from a span dump.

    Only root spans named ``op:<kind>`` contribute; by default spans
    whose status is not ``"ok"`` are skipped, because a failed operation
    left no effects (transactions abort cleanly) and replaying it would
    raise.  Returns a :class:`repro.sim.trace.Trace` ready for
    :func:`repro.sim.trace.replay`.
    """
    # Imported lazily: repro.sim pulls in the cluster wiring, which
    # itself imports repro.obs.
    from repro.sim.trace import Trace
    from repro.sim.workload import Operation

    operations = []
    for span in spans:
        if not span.name.startswith(OP_SPAN_PREFIX):
            continue
        if span.status != "ok" and not include_failed:
            continue
        operations.append(
            Operation(
                kind=span.name[len(OP_SPAN_PREFIX):],
                key=span.attrs.get("key"),
                value=span.attrs.get("value"),
                client=span.attrs.get("client", "default"),
            )
        )
    return Trace(operations=operations, metadata={"source": "span-dump"})


def total_messages(spans: Sequence[Span]) -> int:
    """Network messages accounted across every span tree."""
    return sum(span.message_count() for span in spans)


def total_rpc_rounds(spans: Sequence[Span]) -> int:
    """RPC request/reply exchanges across every span tree."""
    return sum(span.rpc_rounds() for span in spans)
