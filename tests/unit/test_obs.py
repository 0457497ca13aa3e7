"""Unit tests for the observability subsystem (spans, metrics, export)."""

import pytest

from repro.core.errors import NodeDownError
from repro.core.stats import RunningStat
from repro.obs import (
    MetricsRegistry,
    NullTracer,
    RecordingTracer,
    Span,
    dump_spans,
    load_spans,
    spans_to_trace,
)
from repro.obs.export import (
    save_spans,
    load_spans_file,
    total_messages,
    total_rpc_rounds,
)
from repro.obs.spans import NULL_TRACER, _NULL_SPAN


class TestRecordingTracer:
    def test_nesting_builds_a_tree(self):
        tracer = RecordingTracer()
        with tracer.span("op:insert", key="a"):
            with tracer.span("quorum:write"):
                pass
            with tracer.span("rpc:dir:A.rep_insert"):
                with tracer.span("rep:A.rep_insert"):
                    pass
        roots = tracer.finished_roots()
        assert [r.name for r in roots] == ["op:insert"]
        root = roots[0]
        assert [c.name for c in root.children] == [
            "quorum:write",
            "rpc:dir:A.rep_insert",
        ]
        rpc = root.children[1]
        assert [c.name for c in rpc.children] == ["rep:A.rep_insert"]
        assert rpc.parent_id == root.span_id
        assert rpc.children[0].parent_id == rpc.span_id

    def test_clock_binding_and_duration(self):
        clock = iter([10.0, 25.0])
        tracer = RecordingTracer(now=lambda: next(clock))
        with tracer.span("op:lookup"):
            pass
        (root,) = tracer.finished_roots()
        assert root.start == 10.0 and root.end == 25.0
        assert root.duration == 15.0

    def test_attrs_from_kwargs_and_set(self):
        tracer = RecordingTracer()
        with tracer.span("op:insert", key="k", client="c") as span:
            span.set("messages", 2)
        (root,) = tracer.finished_roots()
        assert root.attrs == {"key": "k", "client": "c", "messages": 2}

    def test_exception_captured_as_status(self):
        tracer = RecordingTracer()
        with pytest.raises(NodeDownError):
            with tracer.span("rpc:dir:A.rep_lookup"):
                raise NodeDownError("node-A")
        (root,) = tracer.finished_roots()
        assert root.status == "NodeDownError"

    def test_clean_exit_status_ok(self):
        tracer = RecordingTracer()
        with tracer.span("op:lookup"):
            pass
        assert tracer.finished_roots()[0].status == "ok"

    def test_reset_drops_roots(self):
        tracer = RecordingTracer()
        with tracer.span("op:lookup"):
            pass
        tracer.reset()
        assert tracer.finished_roots() == []

    def test_current_span(self):
        tracer = RecordingTracer()
        assert tracer.current_span() is None
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
        assert tracer.current_span() is None

    def test_one_stack_refuses_interleaved_users(self):
        """A tracer has one owner: two users interleaving on it would
        nest into each other's trees, so the first span to exit out of
        turn fails rather than mixing them."""
        tracer = RecordingTracer()
        first, second = tracer.span("op:first"), tracer.span("op:second")
        first.__enter__()
        second.__enter__()
        with pytest.raises(AssertionError, match="span exited out of order"):
            first.__exit__(None, None, None)

    def test_aggregation_helpers(self):
        tracer = RecordingTracer()
        with tracer.span("op:insert"):
            for _ in range(3):
                with tracer.span("rpc:dir:A.m") as rpc:
                    rpc.set("messages", 2)
        (root,) = tracer.finished_roots()
        assert root.rpc_rounds() == 3
        assert root.message_count() == 6
        assert total_messages([root]) == 6
        assert total_rpc_rounds([root]) == 3


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("op:insert", key="a") as span:
            span.set("messages", 2)
        assert tracer.finished_roots() == []

    def test_disabled_and_shared_span(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b") is _NULL_SPAN

    def test_does_not_swallow_exceptions(self):
        with pytest.raises(ValueError):
            with NULL_TRACER.span("x"):
                raise ValueError("boom")


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("suite.ops")
        a.inc()
        a.inc(4)
        assert reg.counter("suite.ops") is a
        assert reg.snapshot()["suite.ops"] == 5

    def test_histogram_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("quorum.members")
        for x in (2, 2, 3):
            h.observe(x)
        row = reg.snapshot()["quorum.members"]
        assert row["n"] == 3
        assert row["avg"] == pytest.approx(7 / 3)
        assert row["max"] == 3

    def test_histogram_adopts_existing_runningstat(self):
        stat = RunningStat()
        stat.add(10)
        reg = MetricsRegistry()
        h = reg.histogram("legacy", stat=stat)
        stat.add(20)  # legacy writer keeps writing to its own object
        assert h.snapshot()["n"] == 2
        assert reg.snapshot()["legacy"]["avg"] == 15

    def test_gauge_and_provider_read_live(self):
        reg = MetricsRegistry()
        box = {"v": 1}
        reg.gauge("g", lambda: box["v"])
        reg.provider("p", lambda: {"x": box["v"] * 10})
        box["v"] = 7
        snap = reg.snapshot()
        assert snap["g"] == 7
        assert snap["p"] == {"x": 70}

    def test_provider_reregistration_last_wins(self):
        reg = MetricsRegistry()
        reg.provider("p", lambda: {"gen": 1})
        reg.provider("p", lambda: {"gen": 2})
        assert reg.snapshot()["p"] == {"gen": 2}

    def test_cross_kind_name_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("net.traffic")
        with pytest.raises(ValueError):
            reg.gauge("net.traffic", lambda: 1)
        with pytest.raises(ValueError):
            reg.histogram("net.traffic")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a", lambda: 0)
        reg.provider("c", dict)
        assert reg.names() == ["a", "b", "c"]

    def test_reset_zeroes_counters_and_histograms_only(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(9)
        reg.histogram("h").observe(4)
        reg.gauge("g", lambda: 42)
        reg.reset()
        snap = reg.snapshot()
        assert snap["c"] == 0
        assert snap["h"]["n"] == 0
        assert snap["g"] == 42


class TestExport:
    def _sample_spans(self):
        tracer = RecordingTracer()
        with tracer.span("op:insert", key="a", value=1, client="client"):
            with tracer.span("rpc:dir:A.rep_insert") as rpc:
                rpc.set("messages", 2)
        with tracer.span("op:delete", key="a", client="client"):
            pass
        return tracer.finished_roots()

    def test_dump_load_round_trip(self):
        spans = self._sample_spans()
        text = dump_spans(spans, metadata={"seed": 3})
        loaded = load_spans(text)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in spans]

    def test_dump_is_json_lines_with_header(self):
        import json

        text = dump_spans(self._sample_spans())
        lines = text.strip().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == 1
        assert header["count"] == 2 == len(lines) - 1

    def test_file_round_trip(self, tmp_path):
        spans = self._sample_spans()
        path = tmp_path / "spans.jsonl"
        save_spans(spans, path)
        loaded = load_spans_file(path)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in spans]

    def test_load_rejects_bad_format_and_count(self):
        with pytest.raises(ValueError):
            load_spans("")
        with pytest.raises(ValueError):
            load_spans('{"format": 99, "count": 0}\n')
        good = dump_spans(self._sample_spans())
        header, rest = good.split("\n", 1)
        tampered = header.replace('"count": 2', '"count": 5') + "\n" + rest
        with pytest.raises(ValueError):
            load_spans(tampered)

    def test_spans_to_trace_filters_failures(self):
        tracer = RecordingTracer()
        with tracer.span("op:insert", key="a", value=1, client="c"):
            pass
        with pytest.raises(NodeDownError):
            with tracer.span("op:delete", key="a", client="c"):
                raise NodeDownError("node-A")
        with tracer.span("not-an-op"):
            pass
        spans = tracer.finished_roots()
        trace = spans_to_trace(spans)
        assert [(op.kind, op.key) for op in trace] == [("insert", "a")]
        trace_all = spans_to_trace(spans, include_failed=True)
        assert [op.kind for op in trace_all] == ["insert", "delete"]

    def test_span_from_dict_defaults(self):
        span = Span.from_dict({"name": "x", "span_id": 1})
        assert span.status == "ok"
        assert span.children == [] and span.attrs == {}


class TestHistogramPercentiles:
    def test_percentile_delegates_to_stat(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", keep_samples=True)
        for x in range(1, 101):
            h.observe(float(x))
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(99) == pytest.approx(99.01)

    def test_snapshot_carries_percentiles_with_retention(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", reservoir=256)
        for x in range(1, 101):
            h.observe(float(x))
        row = reg.snapshot()["lat"]
        assert set(row) >= {"p50", "p90", "p99"}
        assert row["p50"] == pytest.approx(50.5)

    def test_snapshot_omits_percentiles_without_retention(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")  # no keep_samples, no reservoir
        h.observe(1.0)
        row = reg.snapshot()["lat"]
        assert "p50" not in row and "p99" not in row
        assert row["n"] == 1

    def test_reset_preserves_reservoir_configuration(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", reservoir=64)
        h.observe(3.0)
        reg.reset()
        h.observe(5.0)
        assert reg.snapshot()["lat"]["p50"] == 5.0
