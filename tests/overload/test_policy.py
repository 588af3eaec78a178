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
    REASON_EXPIRED,
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
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            OverloadPolicy(**kwargs)

    def test_monitor_only_never_rejects_or_sheds(self):
        policy = OverloadPolicy.monitor_only(default_budget_ns=1e6)
        controller = OverloadController(policy)
        for i in range(1000):
            request = controller.make_request(float(i))
            admitted, _ = controller.try_admit(request, float(i))
            assert admitted
        assert controller.metrics.total_rejected == 0


class TestAdmissionPipeline:
    def test_rate_limit_rejects_with_reason(self):
        controller = OverloadController(
            OverloadPolicy(rate_ops_per_s=1000.0, burst_ops=1.0)
        )
        first = controller.make_request(0.0)
        assert controller.try_admit(first, 0.0) == (True, "admitted")
        second = controller.make_request(0.0)
        assert controller.try_admit(second, 0.0) == (False, REASON_RATE)
        assert controller.metrics.rejected[REASON_RATE] == 1

    def test_shed_counts_doomed_work(self):
        controller = OverloadController(OverloadPolicy(default_budget_ns=100.0))
        request = controller.make_request(0.0)
        assert controller.try_admit(request, 0.0)[0]
        assert request.doomed(50.0, 60.0)  # 50 + 60 lands past the deadline
        controller.shed(request, 50.0)
        assert controller.metrics.shed == {REASON_DOOMED: 1}
        assert controller.metrics.completed == 0

    def test_complete_reports_deadline_outcome(self):
        controller = OverloadController(OverloadPolicy(default_budget_ns=100.0))
        on_time = controller.make_request(0.0)
        controller.try_admit(on_time, 0.0)
        assert controller.complete(on_time, 100.0, 100.0)  # exactly on time
        late = controller.make_request(0.0)
        controller.try_admit(late, 0.0)
        assert not controller.complete(late, 150.0, 150.0)
        assert controller.metrics.deadline_misses == 1
        assert controller.metrics.good == 1

    def test_queue_factory_applies_policy(self):
        policy = OverloadPolicy(queue_capacity=3, shed_doomed=False)
        queue = OverloadController(policy).new_queue()
        assert queue.capacity == 3
        assert not queue.shed_expired_waiters  # monitor semantics follow policy
        assert OverloadController(OverloadPolicy()).new_queue().shed_expired_waiters

    def test_queue_shed_callback_counts_expired(self):
        controller = OverloadController(OverloadPolicy(default_budget_ns=100.0))
        queue = controller.new_queue()
        request = controller.make_request(0.0)
        assert controller.try_admit(request, 0.0)[0]
        queue.offer(request)
        assert queue.take(500.0) is None  # expired while queued: shed
        assert queue.shed_expired == 1
        assert controller.metrics.shed == {REASON_EXPIRED: 1}

    def test_metrics_funnel_counts_every_outcome(self):
        controller = OverloadController(
            OverloadPolicy(rate_ops_per_s=1e9, default_budget_ns=math.inf)
        )
        request = controller.make_request(0.0)
        controller.try_admit(request, 0.0)
        controller.complete(request, 10.0, 10.0)
        snapshot = controller.metrics.as_dict()
        assert snapshot["offered"] == 1.0
        assert snapshot["admitted"] == 1.0
        assert snapshot["completed"] == 1.0
        assert snapshot["good"] == 1.0


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
        low = controller.make_request(1e6, priority=0)
        assert controller.try_admit(low, 1e6) == (False, REASON_CAPACITY)
        high = controller.make_request(1e6, priority=3)
        assert controller.try_admit(high, 1e6)[0]

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
