"""A unified registry of named counters, histograms, gauges, providers.

Before this module existed, every subsystem kept its own ad-hoc stat
surface: traffic counters on :class:`~repro.net.network.Network`,
delete-overhead moments in :mod:`repro.core.stats`, hint hit rates on
:class:`~repro.core.hints.HintedDirectory`.  The registry gives them all
one namespace and one export call (:meth:`MetricsRegistry.snapshot`)
without taking over their storage: cheap monotonic values become
:class:`Counter`\\ s or :class:`Histogram`\\ s (a thin named shell
around :class:`~repro.core.stats.RunningStat`), while existing stat
objects register lazily as *gauges* (a callable returning a value) or
*providers* (a callable returning a whole mapping), so reading the
registry never costs anything on the hot path.

Metric names are dotted lowercase paths, e.g. ``net.traffic`` (provider),
``suite.quorum.read.selections`` (gauge), ``rep.A.wal.appends``
(provider); see docs/OBSERVABILITY.md for the full catalog.

A registry has one owner and takes no lock: the thread that drives the
directory (the serving loop, or the client holding the baton in
:mod:`repro.sim.threads`); another thread reads it only while that is idle.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.core.stats import RunningStat


class Counter:
    """A named, monotonically increasing integer."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1)."""
        self._value += n

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self._value})"


class Histogram:
    """A named distribution: Welford moments plus max, via RunningStat."""

    __slots__ = ("name", "stat")

    def __init__(
        self,
        name: str,
        stat: RunningStat | None = None,
        keep_samples: bool = False,
        reservoir: int = 0,
    ) -> None:
        self.name = name
        if stat is not None:
            self.stat = stat
        else:
            self.stat = RunningStat(keep_samples, reservoir=reservoir)

    def observe(self, x: float) -> None:
        """Record one sample."""
        self.stat.add(x)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of retained samples (see RunningStat)."""
        return self.stat.percentile(q)

    def snapshot(self) -> dict[str, float]:
        """``{"n", "avg", "max", "std_dev"}`` for this distribution.

        When the underlying stat retains samples (``keep_samples`` or a
        ``reservoir``), ``p50``/``p90``/``p99`` are included too.
        """
        out = {
            "n": self.stat.n,
            "avg": self.stat.avg,
            "max": self.stat.max,
            "std_dev": self.stat.std_dev,
        }
        if self.stat.retained_samples:
            out["p50"] = self.stat.percentile(50)
            out["p90"] = self.stat.percentile(90)
            out["p99"] = self.stat.percentile(99)
        return out

    def reset(self) -> None:
        self.stat = RunningStat(
            self.stat.keep_samples, reservoir=self.stat.reservoir
        )

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.stat.n})"


class MetricsRegistry:
    """One namespace for every metric a cluster publishes.

    ``counter`` and ``histogram`` are get-or-create (the same name always
    yields the same object, so call sites need no registration phase);
    ``gauge`` and ``provider`` attach read-on-demand callables and may be
    re-registered (last one wins — components that are rebuilt, like a
    suite whose ``delete_stats`` is swapped for a fresh collector, simply
    read the current attribute from inside their closure).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Callable[[], Any]] = {}
        self._providers: dict[str, Callable[[], Mapping[str, Any]]] = {}

    # -- registration ----------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        self._check_free(name, allow="counter")
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(
        self,
        name: str,
        stat: RunningStat | None = None,
        keep_samples: bool = False,
        reservoir: int = 0,
    ) -> Histogram:
        """Get or create a histogram; ``stat`` adopts an existing
        :class:`RunningStat` as its storage (so legacy collectors become
        registry-readable without copying); ``reservoir`` bounds the
        sample store kept for percentile estimates."""
        self._check_free(name, allow="histogram")
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(
                name, stat=stat, keep_samples=keep_samples,
                reservoir=reservoir,
            )
        return hist

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Register a single read-on-demand value."""
        self._check_free(name, allow="gauge")
        self._gauges[name] = fn

    def provider(self, name: str, fn: Callable[[], Mapping[str, Any]]) -> None:
        """Register a mapping-valued snapshot source under one name."""
        self._check_free(name, allow="provider")
        self._providers[name] = fn

    def _check_free(self, name: str, allow: str) -> None:
        for kind in ("counter", "histogram", "gauge", "provider"):
            if kind != allow and name in getattr(self, f"_{kind}s"):
                raise ValueError(f"metric name {name!r} is already a {kind}")

    # -- reading ---------------------------------------------------------------

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        return sorted(
            [*self._counters, *self._histograms, *self._gauges, *self._providers]
        )

    def snapshot(self) -> dict[str, Any]:
        """All metrics as one plain dict.

        Counters flatten to ints, histograms to their
        ``{"n","avg","max","std_dev"}`` rows, gauges and providers to
        whatever their callables return right now.
        """
        out: dict[str, Any] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, hist in self._histograms.items():
            out[name] = hist.snapshot()
        # A gauge or provider may register a metric while it is read.
        for name, fn in list(self._gauges.items()):
            out[name] = fn()
        for name, fn in list(self._providers.items()):
            out[name] = dict(fn())
        return out

    def reset(self) -> None:
        """Zero every counter and histogram (gauges/providers are live)."""
        for counter in self._counters.values():
            counter.reset()
        for hist in self._histograms.values():
            hist.reset()

    # -- scoping ---------------------------------------------------------------

    def scoped(self, prefix: str) -> "ScopedMetricsRegistry":
        """A view of this registry that prefixes every metric name.

        The sharded directory gives each shard's suite and replicas a
        ``shard<i>``-scoped view of the cluster-wide registry, so N
        shards publish N distinguishable copies of ``suite.ops``,
        ``rep.<name>.wal``, ... into one snapshot instead of silently
        sharing counters (get-or-create) or clobbering providers
        (last-wins).
        """
        return ScopedMetricsRegistry(self, prefix)


class ScopedMetricsRegistry:
    """A prefix-namespacing facade over a :class:`MetricsRegistry`.

    Exposes the registry's registration surface (``counter`` /
    ``histogram`` / ``gauge`` / ``provider``) with every name rewritten
    to ``<prefix>.<name>``; storage lives in the root registry.  ``snapshot`` returns only this scope's slice, with the
    prefix stripped back off.
    """

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        # Dotted prefixes arise from nested scoping; every segment must
        # be non-empty so names stay unambiguous.
        if not prefix or any(not seg for seg in prefix.split(".")):
            raise ValueError(
                f"scope prefix segments must be non-empty: {prefix!r}"
            )
        self.registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._name(name))

    def histogram(self, name: str, **kwargs: Any) -> Histogram:
        return self.registry.histogram(self._name(name), **kwargs)

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        self.registry.gauge(self._name(name), fn)

    def provider(self, name: str, fn: Callable[[], Mapping[str, Any]]) -> None:
        self.registry.provider(self._name(name), fn)

    def scoped(self, prefix: str) -> "ScopedMetricsRegistry":
        return ScopedMetricsRegistry(self.registry, self._name(prefix))

    def names(self) -> list[str]:
        cut = len(self.prefix) + 1
        return [
            n[cut:]
            for n in self.registry.names()
            if n.startswith(self.prefix + ".")
        ]

    def snapshot(self) -> dict[str, Any]:
        """This scope's metrics only, names relative to the prefix."""
        cut = len(self.prefix) + 1
        return {
            name[cut:]: value
            for name, value in self.registry.snapshot().items()
            if name.startswith(self.prefix + ".")
        }

    def __repr__(self) -> str:
        return f"ScopedMetricsRegistry({self.prefix!r}, {self.registry!r})"
