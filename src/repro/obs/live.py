"""Live telemetry over a running registry: windows, sketches, slow ops.

The offline observability stack (:mod:`repro.obs.metrics`,
:mod:`repro.obs.spans`, :mod:`repro.obs.analyze`) answers questions
about a *finished* run; everything here answers them about a run that is
still going.  Four small primitives compose into the directory service's
``STATS``/``SLOW`` admin plane:

* :class:`WindowedView` — periodic snapshots of a
  :class:`~repro.obs.metrics.MetricsRegistry` turned into per-second
  rates over a trailing window.  Rates are computed over the registry's
  *integer-valued* leaves only (counters, integer gauges, provider
  counts, histogram ``n``); float leaves such as averages, percentiles,
  and clock readings are not cumulative, so differencing them is
  meaningless and they are skipped.
* :class:`RollingHistogram` — a latency distribution that forgets:
  samples older than the window fall out, so percentiles describe recent
  operations, not the whole process lifetime.
* :class:`SpaceSaving` — the Metwally et al. top-K heavy-hitter sketch.
  ``capacity`` monitored keys in O(1) memory; any key whose true count
  exceeds the reported ``error`` bound is guaranteed present.
* :class:`SlowLog` — a bounded ring of the slowest recent operations,
  each carrying its sealed span tree so per-phase profiling
  (:func:`~repro.obs.analyze.profile_spans`) works on live captures.

Everything is clock-agnostic: constructors take a ``now`` callable, so
the same code runs under the simulated clock in tests and under
:class:`~repro.service.aio.WallClock` in the real service.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.core.stats import percentile
from repro.obs.spans import RingTracer, evict_beyond

__all__ = [
    "WindowedView",
    "WindowRates",
    "RollingHistogram",
    "SpaceSaving",
    "SlowLog",
    "SlowOp",
    "flatten_numeric",
    "format_stats",
]


def flatten_numeric(snapshot: Mapping[str, Any], prefix: str = "") -> dict[str, int]:
    """Flatten a registry snapshot to its integer-valued leaves.

    Nested mappings (histogram rows, provider dicts) contribute
    dot-joined names: ``{"shard.routed": {"s0": 7}}`` becomes
    ``{"shard.routed.s0": 7}``.  Only ``int`` leaves are kept — in this
    codebase those are exactly the cumulative ones (counters, integer
    gauges, provider counts, histogram ``n``), which makes every kept
    leaf safe to difference into a rate.  Floats (averages, percentiles,
    clock seconds) and everything non-numeric are dropped.
    """
    out: dict[str, int] = {}
    for key, value in snapshot.items():
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            out[name] = value
        elif isinstance(value, Mapping):
            out.update(flatten_numeric(value, prefix=f"{name}."))
    return out


@dataclass(frozen=True)
class WindowRates:
    """Per-second rates between two registry samples.

    ``elapsed`` is the span between the samples; ``rates`` maps each
    flattened integer leaf to its rate.  A view with fewer than two
    samples yields ``elapsed == 0.0`` and an empty mapping.
    """

    start: float = 0.0
    end: float = 0.0
    rates: dict[str, float] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def get(self, name: str, default: float = 0.0) -> float:
        return self.rates.get(name, default)

    def total(self, prefix: str) -> float:
        """Sum of rates for every name under a dotted prefix."""
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sum(r for n, r in self.rates.items() if n.startswith(dotted))


class WindowedView:
    """Trailing-window rates over a :class:`MetricsRegistry`.

    Call :meth:`sample` periodically (the service does so on every
    ``STATS`` request); :meth:`rates` then differences the newest sample
    against the best baseline for the requested window.  The baseline is
    the *newest* sample at least ``window`` old, falling back to the
    oldest retained sample — so a window wider than the history simply
    measures over everything retained, and an empty window (no baseline
    distinct from the newest sample) reports zero elapsed and no rates.

    Counter resets (a registry ``reset()``, a restarted component) show
    up as a negative delta; the value since the reset is the best
    estimate available, so negative deltas are replaced by the current
    value rather than clamped to zero or reported as nonsense negative
    rates.
    """

    def __init__(
        self,
        metrics: Any,
        now: Callable[[], float],
        *,
        window: float = 60.0,
        history: int = 600,
    ) -> None:
        self._metrics = metrics
        self._now = now
        self.window = window
        self._samples: deque[tuple[float, dict[str, int]]] = deque(maxlen=history)
        self._lock = threading.Lock()

    def sample(self) -> float:
        """Snapshot the registry now; returns the sample timestamp."""
        t = self._now()
        flat = flatten_numeric(self._metrics.snapshot())
        with self._lock:
            self._samples.append((t, flat))
        return t

    def reset(self) -> float:
        """Drop all history and re-baseline from this instant.

        For observers whose *interpretation* of a counter changed — the
        `ReshardController` calls this at cutover, when pre-migration
        routing counts would misattribute a moved range's traffic to
        its old owner.  Returns the fresh baseline's timestamp.
        """
        with self._lock:
            self._samples.clear()
        return self.sample()

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def rates(self, window: float | None = None) -> WindowRates:
        """Rates between the newest sample and the window's baseline."""
        span = self.window if window is None else float(window)
        with self._lock:
            samples = list(self._samples)
        if len(samples) < 2:
            return WindowRates()
        end_t, end = samples[-1]
        start_t, start = samples[0]
        for t, flat in reversed(samples[:-1]):
            if end_t - t >= span:
                start_t, start = t, flat
                break
        elapsed = end_t - start_t
        if elapsed <= 0.0:
            return WindowRates(start=start_t, end=end_t)
        rates = {}
        for name, value in end.items():
            delta = value - start.get(name, 0)
            if delta < 0:  # counter reset between the samples
                delta = value
            rates[name] = delta / elapsed
        return WindowRates(start=start_t, end=end_t, rates=rates)


class RollingHistogram:
    """A latency distribution over only the last ``window`` seconds.

    Samples carry their observation timestamp and are pruned as they
    age out, so ``snapshot()`` always describes recent behaviour.
    ``capacity`` bounds memory under bursts: when full, the oldest
    sample is dropped early.  Percentiles use the nearest-rank method
    on a sort of the retained samples — fine at these capacities.
    """

    def __init__(
        self,
        now: Callable[[], float],
        *,
        window: float = 60.0,
        capacity: int = 4096,
    ) -> None:
        self._now = now
        self.window = window
        self.capacity = capacity
        self._samples: deque[tuple[float, float]] = deque()
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` — ``count`` times over when that many
        operations shared the one measured interval (a batched wave)."""
        t = self._now()
        with self._lock:
            self._samples.extend(((t, value),) * count)
            self._prune(t)

    def _prune(self, t: float) -> None:
        horizon = t - self.window
        while self._samples and self._samples[0][0] < horizon:
            self._samples.popleft()
        while len(self._samples) > self.capacity:
            self._samples.popleft()

    def values(self) -> list[float]:
        with self._lock:
            self._prune(self._now())
            return [v for _, v in self._samples]

    def snapshot(self) -> dict[str, float]:
        """``{"n","avg","max","p50","p90","p99"}`` over the live window."""
        values = sorted(self.values())
        if not values:
            return {"n": 0, "avg": 0.0, "max": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "n": len(values),
            "avg": sum(values) / len(values),
            "max": values[-1],
            "p50": percentile(values, 50),
            "p90": percentile(values, 90),
            "p99": percentile(values, 99),
        }


class SpaceSaving:
    """Space-Saving top-K sketch (Metwally, Agrawal & El Abbadi 2005).

    Tracks at most ``capacity`` keys.  An unmonitored arrival evicts the
    current minimum and inherits its count — the classic overestimate —
    so each reported count carries an ``error`` bound: the true count
    lies in ``[count - error, count]``.  Any key whose true frequency
    exceeds the smallest monitored count is guaranteed to be present,
    which is exactly what hot-key detection needs.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError("SpaceSaving capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._lock = threading.Lock()

    def offer(self, key: str, n: int = 1) -> None:
        key = str(key)
        with self._lock:
            if key in self._counts:
                self._counts[key] += n
            elif len(self._counts) < self.capacity:
                self._counts[key] = n
                self._errors[key] = 0
            else:
                victim = min(self._counts, key=self._counts.__getitem__)
                floor = self._counts.pop(victim)
                self._errors.pop(victim)
                self._counts[key] = floor + n
                self._errors[key] = floor

    def top(self, n: int | None = None) -> list[tuple[str, int, int]]:
        """``(key, count, error)`` rows, largest count first."""
        with self._lock:
            rows = sorted(
                ((k, c, self._errors[k]) for k, c in self._counts.items()),
                key=lambda row: row[1],
                reverse=True,
            )
        return rows if n is None else rows[:n]

    def __len__(self) -> int:
        with self._lock:
            return len(self._counts)


@dataclass(frozen=True)
class SlowOp:
    """One captured slow operation: identity plus its sealed span tree."""

    duration: float
    verb: str
    key: str
    shard: int
    trace: str | None
    status: str
    span: Any  # Span; typed loosely to keep this module span-agnostic

    def to_dict(self) -> dict[str, Any]:
        return {
            "duration": self.duration,
            "verb": self.verb,
            "key": self.key,
            "shard": self.shard,
            "trace": self.trace,
            "status": self.status,
            "span": self.span.to_dict(),
        }


class SlowLog:
    """A bounded ring of recent operations, queryable for the slowest.

    Recording is O(1) (append to a ring); ranking happens at query time
    over at most ``capacity`` entries, so the hot path pays nothing for
    the ability to answer ``SLOW n``.  An entry is a whole span tree —
    a wave's, in the service — so the ring is bounded in spans as well,
    the way :class:`~repro.obs.spans.RingTracer` is: ``capacity`` ×
    ``SPANS_PER_ROOT`` of them, the newest entry's aside.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._ring: deque[SlowOp] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(
        self,
        span: Any,
        *,
        verb: str,
        key: str,
        shard: int,
        trace: str | None = None,
    ) -> None:
        op = SlowOp(
            duration=span.duration,
            verb=verb,
            key=str(key),
            shard=shard,
            trace=trace,
            status=span.status,
            span=span,
        )
        with self._lock:
            self._ring.append(op)
            evict_beyond(
                self._ring,
                span,
                self.capacity * RingTracer.SPANS_PER_ROOT,
                lambda held: held.span,
            )

    def slowest(self, n: int = 10) -> list[SlowOp]:
        with self._lock:
            entries = list(self._ring)
        entries.sort(key=lambda op: op.duration, reverse=True)
        return entries[:n]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def format_stats(stats: Mapping[str, Any]) -> str:
    """Render a ``STATS`` reply as the ``repro top`` console frame."""
    from repro.sim.report import format_table  # local import: obs <- sim

    def ms(v: Any) -> str:
        return f"{float(v) * 1000:.2f}"

    def rate(v: Any) -> str:
        return f"{float(v):.1f}"

    service = stats.get("service", {})
    epoch = f" — epoch {stats['epoch']}" if "epoch" in stats else ""
    header = (
        f"repro top — {stats.get('shards', '?')} shards{epoch} — "
        f"clock {float(stats.get('clock', 0.0)):.1f}s — "
        f"window {float(stats.get('window_seconds', 0.0)):.1f}s — "
        f"{rate(stats.get('ops_per_s', 0.0))} ops/s"
    )
    rows = []
    for name in sorted(stats.get("per_shard", {})):
        row = stats["per_shard"][name]
        latency = row.get("latency", {})
        membership = row.get("membership", {})
        states = " ".join(
            f"{rep}:{state}" for rep, state in sorted(membership.items())
        )
        hot = " ".join(k for k, _, _ in row.get("hot_keys", [])[:3])
        rows.append(
            [
                name,
                rate(row.get("ops_per_s", 0.0)),
                ms(latency.get("p50", 0.0)),
                ms(latency.get("p99", 0.0)),
                rate(row.get("err_per_s", 0.0)),
                row.get("routed", 0),
                states or "-",
                hot or "-",
            ]
        )
    table = format_table(
        ["shard", "ops/s", "p50 ms", "p99 ms", "err/s", "routed", "membership", "hot keys"],
        rows,
    )
    footer = (
        f"front door: {rate(service.get('ops_per_s', 0.0))} cmd/s, "
        f"{rate(service.get('err_per_s', 0.0))} err/s — "
        f"rpc: {rate(service.get('rpc_per_s', 0.0))} calls/s, "
        f"{rate(service.get('rpc_err_per_s', 0.0))} err/s, "
        f"{rate(service.get('retry_per_s', 0.0))} retries/s"
    )
    lines = [header, "", table, "", footer]
    reshard = stats.get("reshard", {})
    if reshard.get("active"):
        high = reshard.get("high")
        lines.append(
            f"reshard: s{reshard.get('source')} -> s{reshard.get('target')} "
            f"[{reshard.get('low')!r} .. "
            f"{'HIGH' if high is None else repr(high)}) — "
            f"phase {str(reshard.get('phase', '?')).upper()} "
            f"({reshard.get('copied', 0)} keys copied)"
        )
    return "\n".join(lines)
