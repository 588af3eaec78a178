"""Tests for statistics primitives."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import Counter, LatencyHistogram, RunningStat, TimeSeries


class TestRunningStat:
    def test_empty(self):
        s = RunningStat()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_known_values(self):
        s = RunningStat()
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            s.record(v)
        assert s.mean == pytest.approx(5.0)
        assert s.stddev == pytest.approx(2.0)
        assert s.min == 2.0
        assert s.max == 9.0

    def test_merge_matches_single_stream(self):
        a, b, combined = RunningStat(), RunningStat(), RunningStat()
        data_a = [1.0, 2.0, 3.0]
        data_b = [10.0, 20.0]
        for v in data_a:
            a.record(v)
            combined.record(v)
        for v in data_b:
            b.record(v)
            combined.record(v)
        a.merge(b)
        assert a.count == combined.count
        assert a.mean == pytest.approx(combined.mean)
        assert a.variance == pytest.approx(combined.variance)
        assert a.min == combined.min
        assert a.max == combined.max

    def test_merge_empty_is_noop(self):
        a = RunningStat()
        a.record(5.0)
        a.merge(RunningStat())
        assert a.count == 1 and a.mean == 5.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
    def test_mean_matches_numpy_property(self, values):
        s = RunningStat()
        for v in values:
            s.record(v)
        assert s.mean == pytest.approx(sum(values) / len(values), rel=1e-9, abs=1e-6)


class TestRecordMany:
    def test_matches_looped_records_exactly(self):
        batched, looped = RunningStat(), RunningStat()
        batched.record(3.0)
        looped.record(3.0)
        batched.record_many(7.5, 1000)
        for _ in range(1000):
            looped.record(7.5)
        batched.record_many(-2.0, 3)
        for _ in range(3):
            looped.record(-2.0)
        assert batched.count == looped.count
        assert batched.mean == pytest.approx(looped.mean, rel=1e-12)
        assert batched.variance == pytest.approx(looped.variance, rel=1e-9)
        assert batched.min == looped.min
        assert batched.max == looped.max

    def test_huge_count_is_constant_time(self):
        # A million-sample batch must not loop; the closed form gives
        # the exact moments of 10**6 identical values instantly.
        s = RunningStat()
        s.record(100.0)
        s.record_many(50.0, 10**6)
        assert s.count == 10**6 + 1
        assert s.mean == pytest.approx((100.0 + 50.0 * 10**6) / (10**6 + 1))
        # Variance of {100} u {50 x 1e6}: delta^2 * n*k / total.
        assert s.variance == pytest.approx(
            2500.0 * 10**6 / (10**6 + 1) ** 2, rel=1e-9
        )
        assert s.min == 50.0
        assert s.max == 100.0

    def test_histogram_record_count_matches_loop(self):
        batched, looped = LatencyHistogram(), LatencyHistogram()
        batched.record(200.0, count=10**6)
        for _ in range(100):
            looped.record(200.0)
        assert batched.count == 10**6
        assert batched.mean == looped.mean
        assert batched.stat.variance == pytest.approx(0.0, abs=1e-9)
        assert batched.percentile(99) == looped.percentile(99)

    def test_rejects_nonpositive_count(self):
        s = RunningStat()
        with pytest.raises(ValueError):
            s.record_many(1.0, 0)
        with pytest.raises(ValueError):
            s.record_many(1.0, -5)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6),
                st.integers(min_value=1, max_value=50),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_batched_equals_looped_property(self, blocks):
        batched, looped = RunningStat(), RunningStat()
        for value, count in blocks:
            batched.record_many(value, count)
            for _ in range(count):
                looped.record(value)
        assert batched.count == looped.count
        assert batched.mean == pytest.approx(looped.mean, rel=1e-9, abs=1e-6)
        assert batched.variance == pytest.approx(
            looped.variance, rel=1e-6, abs=1e-3
        )
        assert batched.min == looped.min
        assert batched.max == looped.max


class TestRecordAll:
    @staticmethod
    def _state(hist):
        stat = hist.stat
        return (dict(hist._buckets), stat.count, stat._mean, stat._m2, stat.min, stat.max)

    def test_histogram_matches_per_value_records(self):
        batched, looped = LatencyHistogram(min_value=50.0), LatencyHistogram(min_value=50.0)
        edge = batched._bucket_value(37)
        values = [7000.5, 50.0, 3.0, edge, 7000.5, 123456.25, edge, 50.0, 9e6, 7000.5]
        values += [1000.0 + 0.37 * i for i in range(500)]
        batched.record(11.0)
        looped.record(11.0)
        batched.record_all(values[:7])
        batched.record_all(values[7:])
        for v in values:
            looped.record(v)
        assert self._state(batched) == self._state(looped)
        assert batched.percentiles([50, 99]) == looped.percentiles([50, 99])

    def test_empty_batch_is_a_no_op(self):
        hist = LatencyHistogram()
        hist.record_all([])
        assert hist.count == 0
        assert hist.min == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=40))
    def test_running_stat_matches_per_value_records(self, values):
        batched, looped = RunningStat(), RunningStat()
        batched.record_all(values)
        for v in values:
            looped.record(v)
        assert (batched.count, batched._mean, batched._m2, batched.min, batched.max) == (
            looped.count, looped._mean, looped._m2, looped.min, looped.max
        )


class TestLatencyHistogram:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_value=0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)

    def test_percentile_bounds_error(self):
        h = LatencyHistogram()
        h.record(100.0)
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_percentile_is_nan(self):
        # An empty histogram must not fabricate a zero tail (and must
        # not raise an index error); NaN is the explicit "no samples".
        import math

        assert math.isnan(LatencyHistogram().percentile(50))
        assert math.isnan(LatencyHistogram().percentile(99.9))

    def test_percentile_relative_error_bound(self):
        h = LatencyHistogram(min_value=1.0, growth=1.02)
        values = [float(v) for v in range(1, 1001)]
        for v in values:
            h.record(v)
        for p in (50, 90, 99):
            exact = values[int(math.ceil(len(values) * p / 100)) - 1]
            assert h.percentile(p) == pytest.approx(exact, rel=0.03)

    def test_mean_is_exact(self):
        h = LatencyHistogram()
        for v in (100.0, 200.0, 300.0):
            h.record(v)
        assert h.mean == pytest.approx(200.0)
        assert h.min == 100.0
        assert h.max == 300.0

    def test_record_with_count(self):
        h = LatencyHistogram()
        h.record(50.0, count=10)
        assert h.count == 10
        with pytest.raises(ValueError):
            h.record(50.0, count=0)

    def test_cdf_monotone_and_complete(self):
        h = LatencyHistogram()
        for v in (10.0, 20.0, 30.0, 40.0, 1000.0):
            h.record(v)
        cdf = h.cdf()
        fractions = [p.fraction for p in cdf]
        values = [p.value for p in cdf]
        assert fractions == sorted(fractions)
        assert values == sorted(values)
        assert fractions[-1] == pytest.approx(1.0)

    def test_cdf_respects_points_bound(self):
        # Many occupied buckets + small points used to emit up to ~2x
        # the requested number (truncating stride); the bound is hard.
        h = LatencyHistogram(min_value=1.0, growth=1.02)
        for v in range(1, 400):
            h.record(float(v))
        for points in (1, 2, 3, 5, 7, 10, 50, 1000):
            cdf = h.cdf(points=points)
            assert 0 < len(cdf) <= points
            assert cdf[-1].fraction == 1.0  # exactly, not approximately

    def test_cdf_final_point_is_last_bucket(self):
        h = LatencyHistogram()
        for v in (10.0, 20.0, 5000.0):
            h.record(v)
        cdf = h.cdf(points=2)
        assert len(cdf) <= 2
        assert cdf[-1].fraction == 1.0
        # Last point represents the largest occupied bucket.
        assert cdf[-1].value >= 5000.0 / 1.02

    def test_cdf_rejects_nonpositive_points(self):
        h = LatencyHistogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.cdf(points=0)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=120),
        st.integers(min_value=1, max_value=40),
    )
    def test_cdf_bound_property(self, values, points):
        h = LatencyHistogram()
        for v in values:
            h.record(v)
        cdf = h.cdf(points=points)
        assert 0 < len(cdf) <= points
        fractions = [p.fraction for p in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(100.0)
        b.record(300.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(200.0)

    def test_merge_incompatible_bucketing_raises(self):
        a = LatencyHistogram(growth=1.02)
        b = LatencyHistogram(growth=1.05)
        with pytest.raises(ValueError):
            a.merge(b)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e7), min_size=1, max_size=300),
        st.sampled_from([50.0, 90.0, 99.0]),
    )
    def test_percentile_within_growth_bound_property(self, values, p):
        h = LatencyHistogram(min_value=1.0, growth=1.02)
        for v in values:
            h.record(v)
        exact = sorted(values)[int(math.ceil(len(values) * p / 100)) - 1]
        # Bucketing error is bounded by one growth step either side.
        assert h.percentile(p) <= exact * 1.021
        assert h.percentile(p) >= exact / 1.021


class TestTimeSeries:
    def test_record_and_last(self):
        ts = TimeSeries(name="bw")
        ts.record(0.0, 10.0)
        ts.record(1.0, 20.0)
        assert len(ts) == 2
        assert ts.last() == (1.0, 20.0)
        assert ts.peak() == 20.0

    def test_times_must_be_monotone(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_time_weighted_mean(self):
        ts = TimeSeries()
        ts.record(0.0, 10.0)  # holds for 1s
        ts.record(1.0, 0.0)  # holds for 3s
        ts.record(4.0, 99.0)  # terminal sample, zero weight
        assert ts.time_weighted_mean() == pytest.approx((10.0 * 1 + 0.0 * 3) / 4)

    def test_time_weighted_mean_degenerate_cases(self):
        ts = TimeSeries()
        assert ts.time_weighted_mean() == 0.0
        ts.record(1.0, 5.0)
        assert ts.time_weighted_mean() == 5.0

    def test_time_weighted_mean_zero_span(self):
        # All samples at the same instant: no interval to weight by, so
        # it degrades to the unweighted mean instead of dividing by 0.
        ts = TimeSeries()
        ts.record(2.0, 10.0)
        ts.record(2.0, 30.0)
        assert ts.time_weighted_mean() == pytest.approx(20.0)

    def test_final_value_has_zero_weight(self):
        # The terminal sample's holding interval is unknown; an outlier
        # there must not move the mean.
        ts = TimeSeries()
        ts.record(0.0, 4.0)
        ts.record(2.0, 4.0)
        ts.record(4.0, 1e9)
        assert ts.time_weighted_mean() == pytest.approx(4.0)


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("promotions")
        c.add("promotions", 2)
        assert c.get("promotions") == 3
        assert c.get("missing") == 0

    def test_negative_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.add("x", -1)

    def test_as_dict_is_snapshot(self):
        c = Counter()
        c.add("a")
        snap = c.as_dict()
        c.add("a")
        assert snap == {"a": 1.0}
        assert c.get("a") == 2.0
