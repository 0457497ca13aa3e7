"""Property tests: RunningStat matches batch statistics on any input."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import RunningStat

floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(floats, min_size=1, max_size=200)


def batch_mean(xs):
    return sum(xs) / len(xs)


def batch_pop_std(xs):
    m = batch_mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


class TestRunningStatProperties:
    @given(sample_lists)
    def test_matches_batch_mean_max_std(self, xs):
        s = RunningStat()
        for x in xs:
            s.add(x)
        assert s.n == len(xs)
        assert math.isclose(s.avg, batch_mean(xs), rel_tol=1e-9, abs_tol=1e-6)
        assert s.max == max(xs)
        assert math.isclose(
            s.std_dev, batch_pop_std(xs), rel_tol=1e-6, abs_tol=1e-5
        )

    @given(sample_lists, sample_lists)
    def test_merge_equals_pooled(self, xs, ys):
        a, b, pooled = RunningStat(), RunningStat(), RunningStat()
        for x in xs:
            a.add(x)
            pooled.add(x)
        for y in ys:
            b.add(y)
            pooled.add(y)
        a.merge(b)
        assert a.n == pooled.n
        assert math.isclose(a.avg, pooled.avg, rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(
            a.std_dev, pooled.std_dev, rel_tol=1e-6, abs_tol=1e-5
        )
        assert a.max == pooled.max

    @given(sample_lists)
    def test_variance_nonnegative(self, xs):
        s = RunningStat()
        for x in xs:
            s.add(x)
        assert s.variance >= 0


class TestOnePercentile:
    @given(sample_lists, st.sampled_from([50, 99]))
    def test_all_three_faces_agree_on_the_same_samples(self, xs, q):
        """``RunningStat``, the live ``STATS`` window and the load
        generator's report are one definition, so the same samples give
        the same number wherever they are read."""
        from repro.obs.live import RollingHistogram
        from repro.service.loadgen import _latency_ms

        stat = RunningStat(keep_samples=True)
        window = RollingHistogram(lambda: 0.0, capacity=len(xs))
        for x in xs:
            stat.add(x)
            window.observe(x)
        assert window.snapshot()[f"p{q}"] == stat.percentile(q)
        assert _latency_ms(sorted(xs))[f"p{q}"] == stat.percentile(q) * 1000
