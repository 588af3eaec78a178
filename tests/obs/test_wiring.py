"""The observability layer wired through the overload runner.

One small open-loop run checking that ``run_offered_load``'s registry
hook, which ``repro sweep overload --json`` uses, actually collects
samples."""

from repro.obs import MetricsRegistry


def _names(registry):
    return {s.name for s in registry.samples()}


class TestOverloadRunnerWiring:
    def test_run_offered_load_exports_funnel_and_profile(self):
        from repro.overload.runner import control_policy, run_offered_load

        registry = MetricsRegistry()
        summary = run_offered_load(
            rate_ops_per_s=200_000.0,
            policy=control_policy(200_000.0, budget_ns=1e6),
            duration_ns=5e6,
            record_count=2_048,
            seed=11,
            label="wiring",
            registry=registry,
        )
        names = _names(registry)
        assert "overload_offered_total" in names
        assert "overload_latency_ns_p99" in names
        offered = next(
            s for s in registry.samples()
            if s.name == "overload_offered_total"
        )
        assert offered.labels["run"] == "wiring"
        assert offered.value == float(summary.offered)
