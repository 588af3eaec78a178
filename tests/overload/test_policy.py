"""The OverloadPolicy/OverloadController admission pipeline."""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.hw.presets import paper_cxl_platform
from repro.overload import OverloadController, OverloadPolicy
from repro.overload.policy import (
    REASON_CAPACITY,
    REASON_DOOMED,
    REASON_QUEUE_FULL,
    REASON_RATE,
)


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        OverloadPolicy()

    def test_fields_are_the_ones_the_runners_set(self):
        assert [f.name for f in dataclasses.fields(OverloadPolicy)] == [
            "queue_capacity",
            "rate_ops_per_s",
            "burst_ops",
            "default_budget_ns",
            "shed_doomed",
            "shed_on_capacity_loss",
            "priority_levels",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queue_capacity": 0},
            {"rate_ops_per_s": 0.0},
            {"burst_ops": 0.0},
            {"default_budget_ns": 0.0},
            {"priority_levels": 0},
            {"default_budget_ns": math.nan},
            {"rate_ops_per_s": math.nan},
            {"rate_ops_per_s": math.inf},
            {"burst_ops": math.nan},
            {"burst_ops": math.inf},
            {"queue_capacity": math.nan},
            {"queue_capacity": math.inf},
            {"queue_capacity": 2.5},
            {"priority_levels": math.nan},
            {"priority_levels": 1.5},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            OverloadPolicy(**kwargs)

    def test_monitor_only_never_rejects_or_sheds(self):
        policy = OverloadPolicy.monitor_only(default_budget_ns=1e6)
        controller = OverloadController(policy)
        for i in range(1000):
            # A backlog as deep as the offered count is still admitted.
            assert controller.try_admit(i % 2, float(i), queued=i)
        assert controller.metrics.total_rejected == 0
        assert controller.metrics.admitted == 1000


class TestAdmissionPipeline:
    def test_rate_limit_rejects_with_reason(self):
        controller = OverloadController(
            OverloadPolicy(rate_ops_per_s=1000.0, burst_ops=1.0)
        )
        assert controller.try_admit(0, 0.0)
        assert not controller.try_admit(0, 0.0)
        assert controller.metrics.rejected == {REASON_RATE: 1}

    def test_full_queue_rejects_before_the_bucket(self):
        controller = OverloadController(
            OverloadPolicy(queue_capacity=2, rate_ops_per_s=1000.0, burst_ops=1.0)
        )
        assert not controller.try_admit(0, 0.0, queued=2)
        assert controller.metrics.rejected == {REASON_QUEUE_FULL: 1}
        # The refused arrival took no token: the next one gets it.
        assert controller.try_admit(0, 0.0, queued=1)
        assert controller.metrics.offered == 2
        assert controller.metrics.admitted == 1

    def test_shed_counts_doomed_work(self):
        controller = OverloadController(OverloadPolicy(default_budget_ns=100.0))
        assert controller.try_admit(0, 0.0)
        controller.shed(REASON_DOOMED)
        assert controller.metrics.shed == {REASON_DOOMED: 1}
        assert controller.metrics.completed == 0

    def test_complete_reports_deadline_outcome(self):
        controller = OverloadController(OverloadPolicy(default_budget_ns=100.0))
        deadline = 0.0 + controller.policy.default_budget_ns
        controller.try_admit(0, 0.0)
        assert controller.complete(deadline, 100.0)  # exactly on time
        controller.try_admit(0, 0.0)
        assert not controller.complete(deadline, 150.0)
        assert controller.metrics.deadline_misses == 1
        assert controller.metrics.good == 1

    def test_metrics_funnel_counts_every_outcome(self):
        controller = OverloadController(
            OverloadPolicy(rate_ops_per_s=1e9, default_budget_ns=math.inf)
        )
        assert controller.try_admit(0, 0.0)
        assert controller.complete(math.inf, 10.0)
        controller.record_latencies([10.0, 0.5])
        metrics = controller.metrics
        assert (metrics.offered, metrics.admitted, metrics.completed,
                metrics.good) == (1, 1, 1, 1)
        # Latencies are floored at 1 ns before they are recorded.
        assert metrics.latency.count == 2
        assert metrics.latency.min == 1.0


class TestCapacityLossShedding:
    def _controller_with_fault(self, bandwidth_multiplier, priority_levels=4):
        platform = paper_cxl_platform(snc_enabled=False)
        node = platform.cxl_nodes()[0].node_id
        plan = FaultPlan(seed=1).degrade_link(
            0.0, 1e9, node_id=node,
            bandwidth_multiplier=bandwidth_multiplier, latency_multiplier=2.0,
        )
        controller = OverloadController(
            OverloadPolicy(priority_levels=priority_levels)
        )
        # Bind only the degraded node so capacity_fraction is exact.
        controller.bind_faults(FaultInjector(platform, plan), node_ids=[node])
        return controller

    def test_full_capacity_admits_priority_zero(self):
        controller = OverloadController(OverloadPolicy(priority_levels=4))
        assert controller.priority_floor(0.0) == 0
        assert controller.capacity_fraction(0.0) == 1.0

    def test_lost_capacity_raises_the_floor(self):
        controller = self._controller_with_fault(bandwidth_multiplier=0.25)
        assert controller.capacity_fraction(1e6) == pytest.approx(0.25)
        floor = controller.priority_floor(1e6)
        assert floor == 3  # ceil(0.75 * 4) = 3: only the top class admitted
        assert not controller.try_admit(0, 1e6)
        assert controller.metrics.rejected == {REASON_CAPACITY: 1}
        assert controller.try_admit(3, 1e6)

    def test_noise_level_derating_ignored(self):
        controller = self._controller_with_fault(bandwidth_multiplier=0.97)
        assert controller.priority_floor(1e6) == 0

    def test_floor_capped_below_top_class(self):
        controller = self._controller_with_fault(
            bandwidth_multiplier=0.01, priority_levels=2
        )
        assert controller.priority_floor(1e6) <= 1

    def test_shedding_disabled_by_policy(self):
        platform = paper_cxl_platform(snc_enabled=False)
        node = platform.cxl_nodes()[0].node_id
        plan = FaultPlan(seed=1).degrade_link(
            0.0, 1e9, node_id=node,
            bandwidth_multiplier=0.1, latency_multiplier=2.0,
        )
        controller = OverloadController(
            OverloadPolicy(shed_on_capacity_loss=False)
        )
        controller.bind_faults(FaultInjector(platform, plan))
        assert controller.priority_floor(1e6) == 0
