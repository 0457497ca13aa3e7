"""Unit coverage for the live-telemetry primitives (repro.obs.live).

WindowedView rate math is exercised under both clock shapes the service
can run on — the simulated clock and a wall-style monotonic stub — and
through its documented edge cases: a single sample (no rate), a window
wider than the history, empty windows, and counter resets.
"""

import pytest

from repro.net.clock import SimClock
from repro.obs.live import (
    RollingHistogram,
    SpaceSaving,
    WindowedView,
    flatten_numeric,
    format_stats,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import RingTracer


class FakeWallClock:
    """Monotonic seconds under test control (the WallClock shape)."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t

    def advance(self, delta: float) -> None:
        self.t += delta


CLOCKS = {
    "sim": lambda: SimClock(),
    "wall": lambda: FakeWallClock(),
}


@pytest.fixture(params=sorted(CLOCKS))
def clock(request):
    return CLOCKS[request.param]()


class TestFlattenNumeric:
    def test_nested_int_leaves_get_dotted_names(self):
        snap = {
            "suite.ops": {"lookups": 3, "failed": 0},
            "shard.routed": {"s0": 7, "s1": 2},
            "plain": 5,
        }
        assert flatten_numeric(snap) == {
            "suite.ops.lookups": 3,
            "suite.ops.failed": 0,
            "shard.routed.s0": 7,
            "shard.routed.s1": 2,
            "plain": 5,
        }

    def test_floats_bools_and_text_are_dropped(self):
        snap = {
            "hist": {"n": 4, "avg": 1.5, "max": 3.0},
            "clock": 12.25,
            "flag": True,
            "label": "x",
        }
        assert flatten_numeric(snap) == {"hist.n": 4}


class TestWindowedView:
    def test_basic_rate(self, clock):
        metrics = MetricsRegistry()
        ops = metrics.counter("ops")
        view = WindowedView(metrics, clock.now, window=10.0)
        view.sample()
        ops.inc(40)
        clock.advance(4.0)
        view.sample()
        rates = view.rates()
        assert rates.elapsed == pytest.approx(4.0)
        assert rates.get("ops") == pytest.approx(10.0)

    def test_single_sample_reports_nothing(self, clock):
        metrics = MetricsRegistry()
        metrics.counter("ops").inc(5)
        view = WindowedView(metrics, clock.now)
        view.sample()
        rates = view.rates()
        assert rates.elapsed == 0.0
        assert rates.rates == {}
        assert rates.get("ops") == 0.0

    def test_no_samples_reports_nothing(self, clock):
        view = WindowedView(MetricsRegistry(), clock.now)
        assert view.rates().rates == {}

    def test_window_picks_newest_old_enough_baseline(self, clock):
        metrics = MetricsRegistry()
        ops = metrics.counter("ops")
        view = WindowedView(metrics, clock.now, window=60.0)
        for _ in range(5):  # samples at t=0,2,4,6,8 with 10 ops between
            view.sample()
            ops.inc(10)
            clock.advance(2.0)
        view.sample()  # t=10, ops=50
        # A 3s window must difference against t=6 (age 4, the newest
        # sample at least 3s old), not all the way back to t=0.
        rates = view.rates(3.0)
        assert rates.elapsed == pytest.approx(4.0)
        assert rates.get("ops") == pytest.approx(20 / 4.0)

    def test_window_wider_than_history_uses_oldest(self, clock):
        metrics = MetricsRegistry()
        ops = metrics.counter("ops")
        view = WindowedView(metrics, clock.now)
        view.sample()
        ops.inc(30)
        clock.advance(3.0)
        view.sample()
        rates = view.rates(1e9)
        assert rates.elapsed == pytest.approx(3.0)
        assert rates.get("ops") == pytest.approx(10.0)

    def test_zero_elapsed_window_is_empty(self, clock):
        metrics = MetricsRegistry()
        metrics.counter("ops").inc(1)
        view = WindowedView(metrics, clock.now)
        view.sample()
        view.sample()  # same instant
        rates = view.rates()
        assert rates.elapsed == 0.0
        assert rates.rates == {}

    def test_counter_reset_uses_value_since_reset(self, clock):
        metrics = MetricsRegistry()
        ops = metrics.counter("ops")
        ops.inc(100)
        view = WindowedView(metrics, clock.now)
        view.sample()
        ops.reset()
        ops.inc(6)
        clock.advance(2.0)
        view.sample()
        # 6 - 100 is negative; the post-reset value is the best estimate.
        assert view.rates().get("ops") == pytest.approx(3.0)

    def test_new_counter_mid_window_counts_from_zero(self, clock):
        metrics = MetricsRegistry()
        view = WindowedView(metrics, clock.now)
        view.sample()
        metrics.counter("late").inc(8)
        clock.advance(4.0)
        view.sample()
        assert view.rates().get("late") == pytest.approx(2.0)

    def test_history_is_bounded(self, clock):
        metrics = MetricsRegistry()
        view = WindowedView(metrics, clock.now, history=4)
        for _ in range(10):
            view.sample()
            clock.advance(1.0)
        assert len(view) == 4

    def test_total_sums_prefixed_rates(self, clock):
        metrics = MetricsRegistry()
        counts = {"s0": 0, "s1": 0}
        metrics.provider("shard.routed", lambda: dict(counts))
        view = WindowedView(metrics, clock.now)
        view.sample()
        counts["s0"] = 6
        counts["s1"] = 2
        clock.advance(2.0)
        view.sample()
        assert view.rates().total("shard.routed") == pytest.approx(4.0)


class TestRollingHistogram:
    def test_window_forgets_old_samples(self):
        clock = FakeWallClock()
        hist = RollingHistogram(clock.now, window=10.0)
        hist.observe(100.0)
        clock.advance(11.0)
        hist.observe(1.0)
        snap = hist.snapshot()
        assert snap["n"] == 1
        assert snap["max"] == 1.0

    def test_percentiles_over_live_window(self):
        clock = FakeWallClock()
        hist = RollingHistogram(clock.now, window=60.0)
        for v in range(1, 101):
            hist.observe(float(v))
        snap = hist.snapshot()
        assert snap["n"] == 100
        assert snap["p50"] == pytest.approx(50.0, abs=1.0)
        assert snap["p99"] == pytest.approx(99.0, abs=1.0)
        assert snap["max"] == 100.0

    def test_a_sample_taken_at_a_given_instant_reads_no_clock(self):
        clock = FakeWallClock()
        reads = []
        hist = RollingHistogram(
            lambda: reads.append(1) or clock.now(), window=10.0
        )
        hist.observe(5.0, 2, at=0.0)  # the instant a wave ended
        assert reads == []
        clock.advance(11.0)
        hist.observe(1.0, at=clock.now())
        assert hist.snapshot()["n"] == 1  # the first two aged out

    def test_capacity_bounds_burst(self):
        clock = FakeWallClock()
        hist = RollingHistogram(clock.now, window=60.0, capacity=10)
        for v in range(100):
            hist.observe(float(v))
        assert hist.snapshot()["n"] == 10

    def test_one_interval_shared_by_many_ops_is_many_samples(self):
        hist = RollingHistogram(FakeWallClock().now, window=60.0)
        hist.observe(9.0)
        hist.observe(1.0, 3)  # a wave of three ops that took 1.0
        snap = hist.snapshot()
        assert snap["n"] == 4
        assert snap["p50"] == 1.0  # op-weighted, not wave-weighted

    def test_empty_snapshot(self):
        hist = RollingHistogram(FakeWallClock().now)
        assert hist.snapshot() == {
            "n": 0, "avg": 0.0, "max": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }


class TestSpaceSaving:
    def test_exact_when_under_capacity(self):
        sketch = SpaceSaving(capacity=8)
        for _ in range(5):
            sketch.offer("a")
        sketch.offer("b")
        assert sketch.top(2) == [("a", 5, 0), ("b", 1, 0)]

    def test_heavy_hitter_survives_churn(self):
        sketch = SpaceSaving(capacity=4)
        for i in range(1000):
            sketch.offer("hot")
            sketch.offer(f"cold-{i}")  # each cold key appears once
        top = sketch.top(1)
        assert top[0][0] == "hot"
        key, count, error = top[0]
        assert count - error >= 900  # true count is >= count - error

    def test_eviction_inherits_minimum(self):
        sketch = SpaceSaving(capacity=2)
        sketch.offer("a", 5)
        sketch.offer("b", 3)
        sketch.offer("c")  # evicts b (min=3); c reports 4 with error 3
        rows = dict((k, (c, e)) for k, c, e in sketch.top())
        assert "b" not in rows
        assert rows["c"] == (4, 3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving(capacity=0)


class TestRingTracer:
    def test_bounded_roots(self):
        tracer = RingTracer(capacity=3)
        for i in range(10):
            with tracer.span(f"op:{i}"):
                pass
        roots = tracer.finished_roots()
        assert [s.name for s in roots] == ["op:7", "op:8", "op:9"]

    def test_nesting_and_reset_like_parent(self):
        tracer = RingTracer(capacity=4)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (root,) = tracer.finished_roots()
        assert [c.name for c in root.children] == ["inner"]
        tracer.reset()
        assert tracer.finished_roots() == []

    def test_bounded_spans(self):
        """Roots with large trees (whole waves) leave sooner: the ring
        has room for ``capacity * SPANS_PER_ROOT`` spans, and always
        for its newest root."""
        tracer = RingTracer(capacity=4)
        room = 4 * RingTracer.SPANS_PER_ROOT

        def held():
            def size(span):
                return 1 + sum(size(child) for child in span.children)

            roots = tracer.finished_roots()
            return [r.name for r in roots], sum(size(r) for r in roots)

        def record(name, children):
            with tracer.span(name):
                for _ in range(children):
                    with tracer.span("rpc"):
                        with tracer.span("rep"):
                            pass

        for i in range(6):
            record(f"wave:{i}", 5)  # 11 spans each
        assert held() == (["wave:4", "wave:5"], 22)
        record("huge", room)  # alone it overflows the ring; kept anyway
        assert held() == (["huge"], 1 + 2 * room)
        for i in range(6):
            record(f"op:{i}", 1)  # 3 spans: the root bound takes over
        assert held() == ([f"op:{i}" for i in range(2, 6)], 12)

    def test_bare_roots_become_childless_spans_when_read(self):
        tracer = RingTracer(capacity=4)
        with tracer.span("service:SET", key="a") as sampled:
            with tracer.span("op:batch"):
                pass
        attrs = {"key": "b", "shard": 1, "trace": "t-1"}
        tracer.keep_bare("service:GET", 2.0, 2.5, "ok", attrs)
        tracer.keep_bare("service:DEL", 3.0, 3.25, "NodeDownError", {})
        first, bare, failed = tracer.finished_roots()
        assert first is sampled and len(first.children) == 1
        assert (bare.name, bare.start, bare.end, bare.duration) == (
            "service:GET", 2.0, 2.5, 0.5
        )
        assert bare.attrs == attrs and bare.children == []
        assert bare.parent_id is None and bare.span_id > first.span_id
        assert failed.status == "NodeDownError"
        assert failed.span_id == bare.span_id + 1
        # Read twice, a bare root is the same root.
        assert tracer.finished_roots()[1].to_dict() == bare.to_dict()

    def test_bare_roots_count_one_span_each(self):
        """A bare root takes a ring slot and one span of room, so the
        count bound evicts it and the span bound measures past it."""
        tracer = RingTracer(capacity=3)
        for i in range(5):
            tracer.keep_bare(f"bare:{i}", i, i + 1, "ok", {})
        assert [r.name for r in tracer.finished_roots()] == [
            "bare:2", "bare:3", "bare:4"
        ]

        def tree(spans):
            with tracer.span("tree"):
                for _ in range(spans - 1):
                    with tracer.span("rpc"):
                        pass

        room = 3 * RingTracer.SPANS_PER_ROOT
        tree(room - 2)  # with the two newest bare roots: the room, exactly
        assert [r.name for r in tracer.finished_roots()] == [
            "bare:3", "bare:4", "tree"
        ]
        tracer.keep_bare("bare:5", 5, 6, "ok", {})
        tree(room - 1)  # leaves room for one bare root
        assert [r.name for r in tracer.finished_roots()] == ["bare:5", "tree"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)


class TestFormatStats:
    def test_renders_table_frame(self):
        stats = {
            "clock": 12.5,
            "shards": 2,
            "window_seconds": 3.0,
            "ops_per_s": 123.4,
            "service": {
                "ops_per_s": 130.0,
                "err_per_s": 0.0,
                "rpc_per_s": 800.0,
                "retry_per_s": 0.0,
            },
            "per_shard": {
                "s0": {
                    "ops_per_s": 100.0,
                    "routed": 400,
                    "err_per_s": 0.0,
                    "latency": {"p50": 0.002, "p99": 0.009},
                    "hot_keys": [["h0", 50, 0]],
                    "membership": {"A": "up", "B": "up", "C": "joining"},
                },
                "s1": {
                    "ops_per_s": 23.4,
                    "routed": 90,
                    "err_per_s": 1.5,
                    "latency": {"p50": 0.001, "p99": 0.004},
                    "hot_keys": [],
                    "membership": {"A": "up", "B": "up", "C": "up"},
                },
            },
        }
        frame = format_stats(stats)
        assert "repro top" in frame
        assert "s0" in frame and "s1" in frame
        assert "h0" in frame
        assert "C:joining" in frame
        assert "2.00" in frame  # s0 p50 in ms
