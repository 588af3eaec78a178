"""Tests for max-min fair bandwidth allocation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.traffic import TrafficDemand, max_min_allocate


def demand(source, resources, rate, wf=0.0):
    return TrafficDemand(source=source, resources=tuple(resources), rate=rate, write_fraction=wf)


class TestValidation:
    def test_negative_rate_rejected(self):
        with pytest.raises(SimulationError):
            demand("a", ["r"], -1.0)

    def test_nan_rate_rejected(self):
        # NaN compares false against everything, so a "< 0" test lets it
        # through and the allocator then treats the flow as zero traffic.
        with pytest.raises(SimulationError):
            demand("a", ["r"], float("nan"))
        assert demand("a", ["r"], float("inf")).rate == float("inf")

    def test_bad_write_fraction_rejected(self):
        with pytest.raises(SimulationError):
            demand("a", ["r"], 1.0, wf=1.5)

    def test_empty_resources_rejected(self):
        with pytest.raises(SimulationError):
            demand("a", [], 1.0)

    def test_unknown_resource_rejected(self):
        with pytest.raises(SimulationError):
            max_min_allocate([demand("a", ["missing"], 1.0)], {"r": 10.0})

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(SimulationError):
            max_min_allocate([demand("a", ["r"], 1.0)], {"r": 0.0})

    def test_unbounded_unconstrained_demand_raises(self):
        # inf demand must cross at least one capacity-bearing resource --
        # here it does, so this allocates fine and saturates.
        res = max_min_allocate([demand("a", ["r"], float("inf"))], {"r": 5.0})
        assert res.achieved["a"] == pytest.approx(5.0)


class TestAllocation:
    def test_single_demand_under_capacity(self):
        res = max_min_allocate([demand("a", ["r"], 4.0)], {"r": 10.0})
        assert res.achieved["a"] == pytest.approx(4.0)
        assert res.utilization["r"] == pytest.approx(0.4)

    def test_equal_split_when_oversubscribed(self):
        demands = [demand(i, ["r"], 10.0) for i in range(4)]
        res = max_min_allocate(demands, {"r": 20.0})
        for i in range(4):
            assert res.achieved[i] == pytest.approx(5.0)
        assert res.utilization["r"] == pytest.approx(1.0)

    def test_max_min_protects_small_demands(self):
        demands = [demand("small", ["r"], 2.0), demand("big", ["r"], 100.0)]
        res = max_min_allocate(demands, {"r": 10.0})
        assert res.achieved["small"] == pytest.approx(2.0)
        assert res.achieved["big"] == pytest.approx(8.0)

    def test_multi_resource_bottleneck(self):
        # Flow a crosses link+device, flow b only device.  Link is tight.
        demands = [demand("a", ["link", "dev"], 100.0), demand("b", ["dev"], 100.0)]
        res = max_min_allocate(demands, {"link": 5.0, "dev": 50.0})
        assert res.achieved["a"] == pytest.approx(5.0)
        assert res.achieved["b"] == pytest.approx(45.0)
        assert res.utilization["link"] == pytest.approx(1.0)
        assert res.utilization["dev"] == pytest.approx(1.0)

    def test_freed_capacity_goes_to_unconstrained_flows(self):
        demands = [
            demand("a", ["r"], 1.0),
            demand("b", ["r"], float("inf")),
        ]
        res = max_min_allocate(demands, {"r": 10.0})
        assert res.achieved["a"] == pytest.approx(1.0)
        assert res.achieved["b"] == pytest.approx(9.0)

    def test_zero_rate_demand(self):
        res = max_min_allocate([demand("a", ["r"], 0.0)], {"r": 10.0})
        assert res.achieved["a"] == 0.0
        assert res.utilization["r"] == 0.0

    def test_write_fraction_aggregation(self):
        demands = [
            demand("reader", ["r"], 4.0, wf=0.0),
            demand("writer", ["r"], 4.0, wf=1.0),
        ]
        res = max_min_allocate(demands, {"r": 100.0})
        assert res.write_fraction["r"] == pytest.approx(0.5)

    def test_bottleneck_helper(self):
        res = max_min_allocate(
            [demand("a", ["x", "y"], 10.0)], {"x": 10.0, "y": 40.0}
        )
        assert res.bottleneck(("x", "y")) == pytest.approx(1.0)
        assert res.bottleneck(("y",)) == pytest.approx(0.25)
        assert res.bottleneck(()) == 0.0


class TestMaxMinProperties:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=10),
        st.floats(min_value=1.0, max_value=200.0),
    )
    def test_never_exceeds_capacity_or_request(self, rates, capacity):
        demands = [demand(i, ["r"], r) for i, r in enumerate(rates)]
        res = max_min_allocate(demands, {"r": capacity})
        total = sum(res.achieved.values())
        assert total <= capacity * (1 + 1e-6)
        for i, r in enumerate(rates):
            assert res.achieved[i] <= r + 1e-6

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=10),
        st.floats(min_value=1.0, max_value=200.0),
    )
    def test_work_conserving(self, rates, capacity):
        """Either every demand is satisfied or the resource is saturated."""
        demands = [demand(i, ["r"], r) for i, r in enumerate(rates)]
        res = max_min_allocate(demands, {"r": capacity})
        total = sum(res.achieved.values())
        all_satisfied = all(
            res.achieved[i] == pytest.approx(rates[i], rel=1e-6) for i in range(len(rates))
        )
        assert all_satisfied or total == pytest.approx(min(capacity, sum(rates)), rel=1e-6)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=10),
        st.floats(min_value=1.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_total_monotone_in_capacity(self, rates, capacity, extra):
        """Growing a resource's capacity never shrinks total throughput."""
        demands = [demand(i, ["r"], r) for i, r in enumerate(rates)]
        before = sum(max_min_allocate(demands, {"r": capacity}).achieved.values())
        after = sum(
            max_min_allocate(demands, {"r": capacity + extra}).achieved.values()
        )
        assert after >= before - 1e-6

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=100.0),
                st.sets(st.sampled_from(["link", "dev", "bus"]), min_size=1),
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=1.0, max_value=50.0),
    )
    def test_multi_resource_never_over_capacity(self, flows, link, dev, bus):
        """No shared resource carries more than its capacity, and every
        allocation stays within its own request."""
        capacities = {"link": link, "dev": dev, "bus": bus}
        demands = [
            demand(i, sorted(resources), rate)
            for i, (rate, resources) in enumerate(flows)
        ]
        res = max_min_allocate(demands, capacities)
        for name, capacity in capacities.items():
            load = sum(
                res.achieved[i]
                for i, (_, resources) in enumerate(flows)
                if name in resources
            )
            assert load <= capacity * (1 + 1e-6)
        for i, (rate, _) in enumerate(flows):
            assert res.achieved[i] <= rate + 1e-6

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=2, max_size=8),
    )
    def test_fairness_smaller_request_never_gets_less(self, rates):
        """If request_i <= request_j then alloc_i <= alloc_j is not required,
        but alloc_i >= min(request_i, alloc_j): nobody with a smaller request
        is starved below another flow's share."""
        demands = [demand(i, ["r"], r) for i, r in enumerate(rates)]
        res = max_min_allocate(demands, {"r": 50.0})
        for i, ri in enumerate(rates):
            for j, rj in enumerate(rates):
                if ri <= rj:
                    assert res.achieved[i] >= min(ri, res.achieved[j]) - 1e-6


class TestDuplicateResources:
    """Routes naming the same resource more than once (bounce paths).

    The contract (documented on max_min_allocate): duplicates are
    allocated per-occurrence — k crossings size the uniform increment,
    drain the resource k times the achieved rate, and contribute k times
    the write bytes — so the increment, usage and freezing accountings
    can never disagree.
    """

    def test_double_crossing_halves_achievable_rate(self):
        res = max_min_allocate(
            [demand("a", ["r", "r"], float("inf"))], {"r": 10.0}
        )
        assert res.achieved["a"] == pytest.approx(5.0)
        assert res.utilization["r"] == pytest.approx(1.0)

    def test_double_crossing_competes_as_two_flows(self):
        res = max_min_allocate(
            [
                demand("bounce", ["r", "r"], float("inf")),
                demand("direct", ["r"], float("inf")),
            ],
            {"r": 12.0},
        )
        # Uniform growth with 3 total crossings: both freeze at 4.
        assert res.achieved["bounce"] == pytest.approx(4.0)
        assert res.achieved["direct"] == pytest.approx(4.0)
        assert res.utilization["r"] == pytest.approx(1.0)

    def test_satisfied_duplicate_demand_uses_capacity_twice(self):
        res = max_min_allocate([demand("a", ["r", "r"], 3.0)], {"r": 10.0})
        assert res.achieved["a"] == pytest.approx(3.0)
        assert res.utilization["r"] == pytest.approx(0.6)

    def test_write_fraction_counted_per_occurrence(self):
        res = max_min_allocate(
            [
                demand("bounce", ["r", "r"], float("inf"), wf=1.0),
                demand("direct", ["r"], float("inf"), wf=0.0),
            ],
            {"r": 12.0},
        )
        # bounce writes 4 B/s across each of its 2 crossings -> 8 of the
        # 12 B/s crossing r are writes.
        assert res.write_fraction["r"] == pytest.approx(8.0 / 12.0)

    def test_deterministic_across_runs(self):
        demands = [
            demand("bounce", ["u", "r", "u"], float("inf"), wf=0.3),
            demand("direct", ["r"], 5.0, wf=0.1),
        ]
        caps = {"u": 8.0, "r": 20.0}
        first = max_min_allocate(demands, caps)
        second = max_min_allocate(demands, caps)
        assert first.achieved == second.achieved
        assert first.utilization == second.utilization
        assert first.write_fraction == second.write_fraction

    def test_triple_crossing(self):
        res = max_min_allocate(
            [demand("a", ["r", "r", "r"], float("inf"))], {"r": 9.0}
        )
        assert res.achieved["a"] == pytest.approx(3.0)
        assert res.utilization["r"] == pytest.approx(1.0)
