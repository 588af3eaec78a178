"""The ``--backend auto`` routing policy and its summary line."""

import pytest

from repro.analytic import (
    ANALYTIC_TARGETS,
    BACKENDS,
    estimated_events_avoided,
    require_analytic,
    routing_summary,
    select_backend,
)
from repro.errors import ConfigurationError


class TestSelectBackend:
    def test_steady_state_targets_route_analytic(self):
        assert select_backend("fig3", {"panel": "a"}) == "analytic"
        assert select_backend("fig4", {"pattern": "sequential"}) == "analytic"
        assert select_backend("fig8", {"on_cxl": True}) == "analytic"

    def test_fig5_routes_analytic_except_hot_promote(self):
        assert select_backend("fig5", {"config": "mmem"}) == "analytic"
        assert select_backend("fig5", {"config": "1:1"}) == "analytic"
        # The hot-promotion cell's figure of merit is the migration
        # transient — it must stay on the event-driven path.
        assert select_backend("fig5", {"config": "hot-promote"}) == "des"

    @pytest.mark.parametrize("target", ["fig7", "fig10", "overload", "demo"])
    def test_transient_targets_route_des(self, target):
        assert select_backend(target, {}) == "des"

    def test_backends_tuple_is_the_cli_contract(self):
        assert BACKENDS == ("des", "analytic", "auto")
        assert ANALYTIC_TARGETS == {"fig3", "fig4", "fig5", "fig8"}


class TestRequireAnalytic:
    @pytest.mark.parametrize("target", sorted(ANALYTIC_TARGETS))
    def test_accepts_targets_with_a_fast_path(self, target):
        require_analytic(target)  # must not raise

    @pytest.mark.parametrize("target", ["fig7", "fig10", "overload", "demo"])
    def test_rejects_targets_without_one(self, target):
        with pytest.raises(ConfigurationError, match="no analytical backend"):
            require_analytic(target)


class TestEventsAvoided:
    def test_keydb_points_count_operations(self):
        assert estimated_events_avoided("fig5", {"total_ops": 20_000}) == 20_000
        assert estimated_events_avoided("fig8", {"total_ops": 150_000}) == 150_000

    def test_mlc_points_avoid_nothing(self):
        # Every fig3/fig4 backend runs the same allocator-backed probe.
        params = {"mixes": [[1, 0], [3, 1]], "fractions": [0.1, 0.5, 1.0]}
        assert estimated_events_avoided("fig3", params) == 0
        assert estimated_events_avoided("fig4", {"fractions": [0.1, 0.5]}) == 0

    def test_unknown_targets_count_zero(self):
        assert estimated_events_avoided("fig7", {"total_ops": 999}) == 0


class TestRoutingSummary:
    def test_counts_and_sums(self):
        line = routing_summary([
            ("analytic", 20_000), ("analytic", 20_000), ("des", 20_000),
        ])
        assert line == "backend: 2 analytic, 1 des (~40000 est. DES events avoided)"

    def test_empty_sweep(self):
        assert routing_summary([]) == (
            "backend: 0 analytic, 0 des (~0 est. DES events avoided)"
        )
