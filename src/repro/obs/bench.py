"""Structured benchmark telemetry (the ``BENCH_<name>.json`` files).

Every benchmark and driver run can emit one JSON document in a common
schema, so the repo accumulates a comparable perf trajectory instead of
scrollback tables.  The schema (``repro-bench/1``) is deliberately
small:

* ``name`` — the benchmark's identifier (also names the file);
* ``workload`` — free-form parameters (ops, directory size, seed, ...);
* ``messages`` — message/RPC-round accounting (numeric leaves);
* ``latency`` — simulated-latency distributions (numeric leaves; the
  usual shape is :meth:`~repro.obs.analyze.TraceProfile.summary`'s
  per-phase rows);
* ``audit`` — an :meth:`~repro.obs.audit.AuditReport.summary` dict, or
  null when auditing was off;
* ``extra`` — anything else worth keeping.

:func:`compare_benches` diffs two documents leaf by numeric leaf across
the ``messages`` and ``latency`` sections (sample counts ``n`` are
excluded — more samples is not a regression) and flags every leaf where
the candidate is worse than the baseline by more than ``tolerance``
(default 5%, the threshold ISSUE 3 sets for CI).  Worse is *higher* for
a cost — messages, rounds, latencies, which is nearly every leaf — and
*lower* for the leaves named as rates or speedups (``*_per_second``,
``speedup*``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Iterator

#: Current document schema identifier.
BENCH_SCHEMA = "repro-bench/1"

#: Sections whose numeric leaves participate in regression comparison.
_COMPARED_SECTIONS = ("messages", "latency")

#: Leaf keys excluded from comparison (counts, not costs).
_SKIPPED_LEAVES = frozenset({"n", "count"})


def _worse_by(path: str, ratio: float) -> float:
    """How much worse candidate/baseline = ``ratio`` is for this leaf.

    A rate or a speedup (``*_per_second``, ``speedup*``) is worse when
    it falls; every other leaf is a cost and is worse when it rises.
    """
    leaf = path.rsplit(".", 1)[-1]
    if leaf.endswith("_per_second") or leaf.startswith("speedup"):
        return 1.0 - ratio
    return ratio - 1.0


def bench_payload(
    name: str,
    workload: dict[str, Any] | None = None,
    messages: dict[str, Any] | None = None,
    latency: dict[str, Any] | None = None,
    audit: dict[str, int] | None = None,
    extra: dict[str, Any] | None = None,
    created: float | None = None,
) -> dict[str, Any]:
    """Assemble a schema-valid BENCH document."""
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "created": time.time() if created is None else created,
        "workload": dict(workload or {}),
        "messages": dict(messages or {}),
        "latency": dict(latency or {}),
        "audit": dict(audit) if audit is not None else None,
        "extra": dict(extra or {}),
    }


def validate_bench(payload: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` matches the schema."""
    if not isinstance(payload, dict):
        raise ValueError("BENCH payload must be a JSON object")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"unsupported BENCH schema: {payload.get('schema')!r} "
            f"(expected {BENCH_SCHEMA!r})"
        )
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("BENCH name must be a non-empty string")
    if not isinstance(payload.get("created"), (int, float)):
        raise ValueError("BENCH created must be a unix timestamp")
    for section in ("workload", "messages", "latency", "extra"):
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"BENCH {section} must be an object")
    audit = payload.get("audit")
    if audit is not None and not isinstance(audit, dict):
        raise ValueError("BENCH audit must be an object or null")


def bench_path(name: str, directory: str | Path = ".") -> Path:
    """The canonical location of ``BENCH_<name>.json``."""
    return Path(directory) / f"BENCH_{name}.json"


def write_bench(payload: dict[str, Any], directory: str | Path = ".") -> Path:
    """Validate and write a BENCH document; returns the file path."""
    validate_bench(payload)
    path = bench_path(payload["name"], directory)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: str | Path) -> dict[str, Any]:
    """Load and validate a BENCH document."""
    payload = json.loads(Path(path).read_text())
    validate_bench(payload)
    return payload


def _numeric_leaves(
    node: Any, prefix: str
) -> Iterator[tuple[str, float]]:
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, f"{prefix}.{key}")
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        leaf = prefix.rsplit(".", 1)[-1]
        if leaf not in _SKIPPED_LEAVES:
            yield prefix, float(node)


def compare_benches(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    tolerance: float = 0.05,
) -> list[dict[str, Any]]:
    """Flag every compared leaf where candidate regresses past tolerance.

    Returns a list of ``{"path", "baseline", "candidate", "ratio"}``
    records, worst first; ``ratio`` is candidate over baseline, so it is
    above one for a cost that rose and below one for a rate that fell.
    Leaves present in only one document are ignored (schemas may grow),
    as are zero baselines (no meaningful ratio).
    """
    validate_bench(baseline)
    validate_bench(candidate)
    base_leaves = {}
    cand_leaves = {}
    for section in _COMPARED_SECTIONS:
        base_leaves.update(_numeric_leaves(baseline[section], section))
        cand_leaves.update(_numeric_leaves(candidate[section], section))
    regressions = []
    for path, base in base_leaves.items():
        cand = cand_leaves.get(path)
        if cand is None or base <= 0:
            continue
        ratio = cand / base
        if _worse_by(path, ratio) > tolerance:
            regressions.append(
                {
                    "path": path,
                    "baseline": base,
                    "candidate": cand,
                    "ratio": ratio,
                }
            )
    regressions.sort(
        key=lambda r: _worse_by(r["path"], r["ratio"]), reverse=True
    )
    return regressions


def format_comparison(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    regressions: list[dict[str, Any]],
    tolerance: float = 0.05,
) -> str:
    """Human-readable verdict for a :func:`compare_benches` result."""
    head = (
        f"BENCH compare: {baseline['name']} (baseline) vs "
        f"{candidate['name']} (candidate), tolerance {tolerance:.0%}"
    )
    if not regressions:
        return f"{head}\nno regressions"
    lines = [head, f"{len(regressions)} regression(s):"]
    for reg in regressions:
        lines.append(
            f"  {reg['path']}: {reg['baseline']:g} -> {reg['candidate']:g} "
            f"({(reg['ratio'] - 1.0):+.1%})"
        )
    return "\n".join(lines)
