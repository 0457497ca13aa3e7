"""Trace analytics over :class:`~repro.obs.spans.RecordingTracer` trees.

PR 1 produced raw span trees; this module consumes them.  Three
questions the paper's evaluation (and every later perf PR) needs
answered from a trace:

1. **Where did the time go?**  Every span is assigned a *phase* —
   ``quorum-select`` (picking a quorum), ``rpc`` (request/reply
   transport for ordinary calls), ``rep-side`` (representative store /
   WAL / lock work), ``commit`` (the 2PC prepare/commit/abort round),
   or ``client`` (suite-side bookkeeping) — and its *self time* (its
   duration minus its children's) is credited to that phase.  Summed
   per operation, the phases exactly tile each operation's latency.
2. **What is the long pole?**  :func:`critical_path` descends from an
   operation root into its longest child at every level; in the serial
   simulator this is the chain of calls that determined the latency.
3. **How many messages/rounds did each operation type cost?**  The
   paper's cost model is message counts (Section 3); the profile keeps
   per-op-type RPC-round and message distributions.

All distributions are :class:`~repro.core.stats.RunningStat`\\ s with a
bounded reservoir, so profiles of 100k-operation runs report
p50/p90/p99 at fixed memory.  The entry point is
:func:`profile_spans`, which accepts either ``op:`` roots or the
``retry:`` roots a :class:`~repro.core.resilient.ResilientSuite`
produces (each retry attempt contributes its own ``op:`` span).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.core.stats import RunningStat
from repro.obs.spans import Span

#: Phase names in report order; ``phase_of`` only ever returns these.
PHASES = ("quorum-select", "rpc", "rep-side", "commit", "client")

#: RPC method suffixes that belong to the two-phase-commit round.
_COMMIT_METHODS = frozenset({"prepare", "commit", "abort"})

#: Default bound on retained latency samples per distribution.
DEFAULT_RESERVOIR = 4096


def phase_of(span: Span) -> str:
    """The latency phase a span's self time is credited to.

    2PC traffic goes through the same RPC endpoints as directory reads
    and writes, so ``rpc:*`` spans split on their method suffix:
    ``prepare``/``commit``/``abort`` are the ``commit`` phase, everything
    else is ``rpc``.  Representative-side spans are ``rep-side`` even
    when nested under a commit RPC (the ``commit`` phase is the
    coordination overhead, not the store work it triggers).

    Scatter-gather batches record a ``fanout:<label>`` parent around
    their (overlapping) per-member ``rpc:`` spans; the batch belongs to
    the same phase its members would — ``commit`` for 2PC rounds,
    ``rpc`` otherwise.
    """
    name = span.name
    if name.startswith("quorum:"):
        return "quorum-select"
    if name.startswith("rpc:"):
        method = name.rsplit(".", 1)[-1]
        return "commit" if method in _COMMIT_METHODS else "rpc"
    if name.startswith("fanout:"):
        label = name[len("fanout:"):]
        return "commit" if label in _COMMIT_METHODS else "rpc"
    if name.startswith("rep:"):
        return "rep-side"
    return "client"


def self_time(span: Span) -> float:
    """A span's duration minus its children's (never negative)."""
    own = span.duration - sum(c.duration for c in span.children)
    return own if own > 0.0 else 0.0


def _credit_phases(span: Span, phase_sums: dict[str, float]) -> None:
    """Credit one subtree's time to phases such that it tiles exactly.

    Serial spans credit their self time and recurse.  A ``fanout:``
    span's children overlap each other, so summing their self times
    would not tile the operation's latency — the batch *envelope* (the
    fanout span's own duration) is credited instead and its
    descendants are skipped.
    """
    if span.name.startswith("fanout:"):
        phase_sums[phase_of(span)] += span.duration
        return
    phase_sums[phase_of(span)] += self_time(span)
    for child in span.children:
        _credit_phases(child, phase_sums)


def critical_path(root: Span) -> list[Span]:
    """The chain from ``root`` to a leaf via the longest child each step.

    In the serial synchronous simulator a parent's duration is the sum
    of its children's plus its own work, so the max-duration child is
    exactly the call that dominated this level.
    """
    path = [root]
    node = root
    while node.children:
        node = max(node.children, key=lambda s: s.duration)
        path.append(node)
    return path


def format_critical_path(path: list[Span]) -> str:
    """One line per hop: indent, name, duration, self time."""
    lines = []
    for depth, span in enumerate(path):
        lines.append(
            f"{'  ' * depth}{span.name}  "
            f"dur={span.duration:.1f} self={self_time(span):.1f} "
            f"[{span.status}]"
        )
    return "\n".join(lines)


def iter_op_spans(roots: Iterable[Span]) -> Iterator[Span]:
    """Every ``op:`` span under the given roots (roots included).

    Handles both plain traces (roots *are* ``op:`` spans) and resilient
    traces (``retry:`` roots wrapping one ``op:`` span per attempt).
    """
    for root in roots:
        for span in root.walk():
            if span.name.startswith("op:"):
                yield span


@dataclass
class OpProfile:
    """Latency/round/message distributions for one operation type."""

    kind: str
    count: int = 0
    failed: int = 0
    latency: RunningStat = field(
        default_factory=lambda: RunningStat(reservoir=DEFAULT_RESERVOIR)
    )
    rpc_rounds: RunningStat = field(default_factory=RunningStat)
    messages: RunningStat = field(default_factory=RunningStat)

    def record(self, span: Span) -> None:
        self.count += 1
        if span.status != "ok":
            self.failed += 1
        self.latency.add(span.duration)
        self.rpc_rounds.add(span.rpc_rounds())
        self.messages.add(span.message_count())


def _dist_row(stat: RunningStat) -> dict[str, float]:
    row: dict[str, float] = {
        "n": stat.n,
        "avg": stat.avg,
        "max": stat.max,
        "std_dev": stat.std_dev,
    }
    if stat.retained_samples:
        row["p50"] = stat.percentile(50)
        row["p90"] = stat.percentile(90)
        row["p99"] = stat.percentile(99)
    return row


@dataclass
class TraceProfile:
    """Aggregated analytics for one trace (see :func:`profile_spans`)."""

    ops: dict[str, OpProfile] = field(default_factory=dict)
    phases: dict[str, RunningStat] = field(default_factory=dict)
    rpc_attempts: dict[int, int] = field(default_factory=dict)
    total_messages: int = 0
    total_rpc_rounds: int = 0

    @property
    def operation_count(self) -> int:
        return sum(op.count for op in self.ops.values())

    @property
    def retried_rpcs(self) -> int:
        """RPCs that were re-issues (attempt > 0)."""
        return sum(n for a, n in self.rpc_attempts.items() if a > 0)

    def summary(self) -> dict:
        """Plain-dict form for BENCH telemetry (JSON-ready)."""
        return {
            "operations": self.operation_count,
            "total_messages": self.total_messages,
            "total_rpc_rounds": self.total_rpc_rounds,
            "ops": {
                kind: {
                    "count": op.count,
                    "failed": op.failed,
                    "latency": _dist_row(op.latency),
                    "rpc_rounds": _dist_row(op.rpc_rounds),
                    "messages": _dist_row(op.messages),
                }
                for kind, op in sorted(self.ops.items())
            },
            "phases": {
                phase: _dist_row(stat)
                for phase, stat in self.phases.items()
            },
            "rpc_attempts": {
                str(a): n for a, n in sorted(self.rpc_attempts.items())
            },
        }

    def report(self) -> str:
        """Human-readable profile: per-op and per-phase tables."""
        from repro.sim.report import format_table

        blocks = []
        op_rows = []
        for kind, op in sorted(self.ops.items()):
            lat = op.latency
            op_rows.append(
                [
                    kind,
                    op.count,
                    op.failed,
                    f"{lat.avg:.1f}",
                    f"{lat.percentile(50):.1f}",
                    f"{lat.percentile(90):.1f}",
                    f"{lat.percentile(99):.1f}",
                    f"{lat.max:.1f}",
                    f"{op.rpc_rounds.avg:.1f}",
                    f"{op.messages.avg:.1f}",
                ]
            )
        blocks.append(
            format_table(
                [
                    "op", "count", "failed", "avg", "p50", "p90",
                    "p99", "max", "rounds", "msgs",
                ],
                op_rows,
                title="Per-operation simulated latency",
            )
        )
        phase_rows = []
        for phase in PHASES:
            stat = self.phases.get(phase)
            if stat is None or stat.n == 0:
                continue
            phase_rows.append(
                [
                    phase,
                    stat.n,
                    f"{stat.avg:.2f}",
                    f"{stat.percentile(50):.2f}",
                    f"{stat.percentile(90):.2f}",
                    f"{stat.percentile(99):.2f}",
                    f"{stat.max:.2f}",
                ]
            )
        blocks.append(
            format_table(
                ["phase", "n", "avg", "p50", "p90", "p99", "max"],
                phase_rows,
                title="Per-phase self time (per operation)",
            )
        )
        attempts = ", ".join(
            (f"first-try={n}" if a == 0 else f"retry#{a}={n}")
            for a, n in sorted(self.rpc_attempts.items())
        )
        blocks.append(
            f"rpc attempts: {attempts or 'none'}\n"
            f"totals: {self.operation_count} ops, "
            f"{self.total_rpc_rounds} rpc rounds, "
            f"{self.total_messages} messages"
        )
        return "\n\n".join(blocks)


def profile_spans(
    spans: Iterable[Span], reservoir: int = DEFAULT_RESERVOIR
) -> TraceProfile:
    """Aggregate a trace's root spans into a :class:`TraceProfile`.

    Per-phase distributions take one sample per *operation* per phase:
    the sum of the self times of that operation's spans in the phase,
    so an operation's phase samples add up to its latency sample.
    """
    profile = TraceProfile()
    for op_span in iter_op_spans(spans):
        kind = op_span.name[len("op:"):]
        op = profile.ops.get(kind)
        if op is None:
            op = profile.ops[kind] = OpProfile(kind)
            op.latency.reservoir = reservoir
        op.record(op_span)
        profile.total_rpc_rounds += op_span.rpc_rounds()
        profile.total_messages += op_span.message_count()
        phase_sums = dict.fromkeys(PHASES, 0.0)
        _credit_phases(op_span, phase_sums)
        for span in op_span.walk():
            if span.name.startswith("rpc:"):
                attempt = span.attrs.get("attempt", 0)
                profile.rpc_attempts[attempt] = (
                    profile.rpc_attempts.get(attempt, 0) + 1
                )
        for phase, total in phase_sums.items():
            stat = profile.phases.get(phase)
            if stat is None:
                stat = profile.phases[phase] = RunningStat(
                    reservoir=reservoir
                )
            stat.add(total)
    return profile
