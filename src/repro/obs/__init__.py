"""Observability: per-transaction span tracing and a unified metrics
registry.

* :mod:`repro.obs.spans` — span trees per directory operation (suite op
  → quorum collection → RPC → representative store/WAL/lock work), with
  a zero-cost :class:`NullTracer` default and a single-owner
  :class:`RecordingTracer`;
* :mod:`repro.obs.metrics` — named counters, histograms (built on
  :class:`~repro.core.stats.RunningStat`), gauges, and providers, one
  registry per cluster (``cluster.metrics.snapshot()``);
* :mod:`repro.obs.export` — JSON-lines span dumps, loadable and
  convertible to a replayable :class:`~repro.sim.trace.Trace`;
* :mod:`repro.obs.analyze` — trace analytics: critical paths, per-phase
  latency percentiles, message accounting (:func:`profile_spans`);
* :mod:`repro.obs.audit` — online checking of the paper's replica
  invariants (:class:`InvariantAuditor`);
* :mod:`repro.obs.bench` — the shared ``BENCH_<name>.json`` telemetry
  schema and regression comparison;
* :mod:`repro.obs.live` — live telemetry over a *running* registry:
  windowed rates (:class:`WindowedView`), rolling latency windows and
  space-saving hot-key sketches behind the service's ``STATS`` admin
  verb (``SLOW`` ranks what a :class:`RingTracer` holds).

See docs/OBSERVABILITY.md for the span and metric catalogs, the
profiling/auditing guides, and the BENCH schema.
"""

from repro.obs.analyze import (
    TraceProfile,
    critical_path,
    format_critical_path,
    phase_of,
    profile_spans,
    self_time,
)
from repro.obs.audit import AuditReport, AuditViolation, InvariantAuditor
from repro.obs.bench import (
    bench_payload,
    compare_benches,
    format_comparison,
    load_bench,
    validate_bench,
    write_bench,
)
from repro.obs.export import (
    dump_spans,
    load_spans,
    load_spans_file,
    save_spans,
    spans_to_trace,
    total_messages,
    total_rpc_rounds,
)
from repro.obs.live import (
    RollingHistogram,
    SpaceSaving,
    WindowedView,
    WindowRates,
    flatten_numeric,
    format_stats,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.spans import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    RingTracer,
    Span,
)

__all__ = [
    "Span",
    "NullTracer",
    "RecordingTracer",
    "RingTracer",
    "NULL_TRACER",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "dump_spans",
    "load_spans",
    "save_spans",
    "load_spans_file",
    "spans_to_trace",
    "total_messages",
    "total_rpc_rounds",
    "TraceProfile",
    "critical_path",
    "format_critical_path",
    "phase_of",
    "profile_spans",
    "self_time",
    "AuditReport",
    "AuditViolation",
    "InvariantAuditor",
    "bench_payload",
    "compare_benches",
    "format_comparison",
    "load_bench",
    "validate_bench",
    "write_bench",
    "WindowedView",
    "WindowRates",
    "RollingHistogram",
    "SpaceSaving",
    "flatten_numeric",
    "format_stats",
]
