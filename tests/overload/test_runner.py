"""The overload experiment runner: determinism and summary shape.

Tiny parameters (2k records, 5 ms of sim time) keep these fast; the
full offered-load/goodput acceptance curve lives in
``benchmarks/bench_overload.py``.
"""

import math

import pytest

from repro.overload import (
    calibrate_capacity_ops_per_s,
    run_fault_comparison,
    run_offered_load,
    sweep_offered_load,
)
from repro.overload.runner import baseline_policy, control_policy, default_budget_ns

RECORDS = 2048
DURATION_NS = 5e6
SEED = 7


def _quick(policy, rate, label):
    return run_offered_load(
        rate,
        policy,
        duration_ns=DURATION_NS,
        record_count=RECORDS,
        seed=SEED,
        label=label,
        load_factor=1.0,
    )


class TestDeterminism:
    def test_same_seed_same_summary(self):
        capacity = calibrate_capacity_ops_per_s(
            record_count=RECORDS, seed=SEED, calibrate_ops=2000
        )
        policy = control_policy(capacity, default_budget_ns(capacity))
        first = _quick(policy, capacity, "a")
        second = _quick(policy, capacity, "b")
        assert first.offered == second.offered
        assert first.good == second.good
        assert first.rejected == second.rejected
        assert first.shed == second.shed
        assert first.p99_ns == second.p99_ns
        assert first.counters == second.counters

    def test_calibration_is_deterministic(self):
        kwargs = dict(record_count=RECORDS, seed=SEED, calibrate_ops=2000)
        assert calibrate_capacity_ops_per_s(**kwargs) == pytest.approx(
            calibrate_capacity_ops_per_s(**kwargs)
        )


class TestSummaryShape:
    def test_funnel_is_consistent(self):
        capacity = calibrate_capacity_ops_per_s(
            record_count=RECORDS, seed=SEED, calibrate_ops=2000
        )
        summary = _quick(
            control_policy(capacity, default_budget_ns(capacity)),
            1.5 * capacity,
            "overload",
        )
        assert summary.offered > 0
        # Every offered op is accounted: admitted or rejected.
        assert summary.admitted + summary.rejected == summary.offered
        # Goodput never exceeds completions, completions never admissions.
        assert summary.good <= summary.completed <= summary.admitted
        assert 0.0 <= summary.shed_rate <= 1.0
        assert 0.0 <= summary.deadline_miss_rate <= 1.0
        assert summary.goodput_ops_per_s <= summary.throughput_ops_per_s + 1e-9

    def test_as_dict_is_json_clean(self):
        policy = baseline_policy(budget_ns=1e6)
        summary = _quick(policy, 100_000.0, "tiny")
        payload = summary.as_dict()
        for value in payload.values():
            if isinstance(value, float):
                assert not math.isnan(value) and not math.isinf(value)

    def test_rows_render_without_samples(self):
        policy = baseline_policy(budget_ns=1e6)
        summary = _quick(policy, 1.0, "empty")  # ~0 arrivals in 5 ms
        for _, value in summary.rows():
            assert isinstance(value, str)


class TestSweepAndFaults:
    def test_sweep_covers_every_factor(self):
        summaries = sweep_offered_load(
            factors=[0.5, 1.0],
            controlled=True,
            duration_ns=DURATION_NS,
            record_count=RECORDS,
            seed=SEED,
        )
        assert [s.load_factor for s in summaries] == [0.5, 1.0]
        assert all(s.offered > 0 for s in summaries)

    def test_fault_comparison_returns_both_modes(self):
        runs = run_fault_comparison(
            scenario="link-degrade",
            duration_ns=DURATION_NS,
            record_count=RECORDS,
            seed=SEED,
        )
        assert set(runs) == {"controlled", "uncontrolled"}
        assert all(s.offered > 0 for s in runs.values())

    def test_fault_comparison_reports_the_server_counters(self):
        runs = run_fault_comparison(
            scenario="link-degrade",
            duration_ns=DURATION_NS,
            record_count=RECORDS,
            seed=SEED,
        )
        for summary in runs.values():
            counters = summary.counters
            assert "ops_shed_expired" in counters
            assert counters.get("ops_rejected", 0.0) == summary.rejected
            assert counters.get("deadline_misses", 0.0) == summary.deadline_misses
