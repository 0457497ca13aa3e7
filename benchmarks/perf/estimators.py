"""Pure estimators: percentiles, round aggregation, ladder verdict, A/A gaps.

Nothing here touches a socket or a clock, so ``selftest.py`` can check
every rule on hand-built numbers.
"""

from __future__ import annotations

import statistics
from typing import Any, Iterable, Mapping, Sequence

#: The open-loop latency limit (ms) on ``lat_p95_ms`` a ladder step must meet.
LADDER_P95_LIMIT_MS = 80.0
#: Highest tolerated share of failed ops at a passing ladder step.
LADDER_FAILED_LIMIT = 0.001
#: A passing step completes at least this share of what was scheduled in it
#: before the step ends (the "no growing backlog" rule).
LADDER_ACHIEVED_SHARE = 0.95
#: A step whose generator ran later than this (p95, ms) measured the
#: generator, not the server: it is invalid, not slow.
GEN_LATE_LIMIT_MS = 5.0

VERBS = ("GET", "SET", "INSERT", "DELETE")


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 < q <= 100)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, round(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def latency_summary(samples: Iterable[tuple[str, float]]) -> dict[str, float]:
    """One window's latency metrics from ``(verb, seconds)`` samples.

    p95 is the highest percentile reported because every measured window
    holds well over 200 samples, so at least ten lie beyond it.
    """
    by_verb: dict[str, list[float]] = {verb: [] for verb in VERBS}
    everything: list[float] = []
    for verb, seconds in samples:
        by_verb[verb].append(seconds)
        everything.append(seconds)
    everything.sort()
    out = {
        "lat_samples": float(len(everything)),
        "lat_p50_ms": percentile(everything, 50) * 1e3,
        "lat_p95_ms": percentile(everything, 95) * 1e3,
    }
    for verb, values in by_verb.items():
        values.sort()
        out[f"{verb.lower()}_p50_ms"] = percentile(values, 50) * 1e3
        out[f"{verb.lower()}_samples"] = float(len(values))
    return out


def across_rounds(rounds: Sequence[Mapping[str, float]]) -> dict[str, float]:
    """One value per metric from per-round values.

    The median across rounds, except the set-up times: set-up is fixed
    work, so host noise can only add to it and the minimum is the estimate.
    Sample counts add up.
    """
    if not rounds:
        raise ValueError("no rounds to aggregate")
    out: dict[str, float] = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if name in ("setup_s", "boot_preload_s"):
            out[name] = min(values)
        elif name.endswith("_samples"):
            out[name] = float(sum(values))
        else:
            out[name] = statistics.median(values)
    return out


def step_verdict(step: Mapping[str, Any]) -> str:
    """``"ok"``, ``"slow"`` or ``"invalid"`` for one ladder step."""
    if step["gen_late_p95_ms"] > GEN_LATE_LIMIT_MS:
        return "invalid"
    if (
        step["lat_p95_ms"] <= LADDER_P95_LIMIT_MS
        and step["failed_share"] <= LADDER_FAILED_LIMIT
        and step["completed_in_step"]
        >= LADDER_ACHIEVED_SHARE * step["scheduled"]
    ):
        return "ok"
    return "slow"


def max_rate_ok(steps: Sequence[Mapping[str, Any]]) -> tuple[float, float]:
    """``(offered, achieved)`` ops/s of the highest passing ladder step.

    ``(0.0, 0.0)`` when no step passes.  An invalid step can never be
    the verdict: it says nothing about the server either way.
    """
    best = (0.0, 0.0)
    for step in steps:
        if step_verdict(step) == "ok" and step["offered"] > best[0]:
            best = (float(step["offered"]), float(step["achieved_ops_per_s"]))
    return best


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


def worsening(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def aa_rows(
    set_a: Mapping[str, Sequence[float]],
    set_b: Mapping[str, Sequence[float]],
    specs: Mapping[str, Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Compare two sets of runs of the same code, metric by metric.

    ``set_*`` map a metric name to its per-run values; ``specs`` maps the
    name to ``{"better": ..., "bound": ...}``.  The gap is symmetric — how
    far the worse median sits from the better one — because neither set
    is "the change".
    """
    rows = []
    for name, spec in specs.items():
        a, b = statistics.median(set_a[name]), statistics.median(set_b[name])
        gap = max(
            worsening(a, b, spec["better"]), worsening(b, a, spec["better"])
        )
        rows.append(
            {
                "metric": name,
                "median_a": a,
                "median_b": b,
                "gap": gap,
                "bound": spec["bound"],
                "ok": gap <= spec["bound"],
            }
        )
    return rows
