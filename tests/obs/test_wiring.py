"""The observability layer wired through the other subsystems.

One small run per subsystem (overload runner, faults runner, Spark
driver, LLM router) checking that the registry/tracer hooks actually
collect samples — the cross-layer half of the tentpole."""

import pytest

from repro.obs import EngineProfile, MetricsRegistry, Tracer


def _names(registry):
    return {s.name for s in registry.samples()}


class TestOverloadRunnerWiring:
    def test_run_offered_load_exports_funnel_and_profile(self):
        from repro.overload.runner import control_policy, run_offered_load

        registry = MetricsRegistry()
        tracer = Tracer()
        summary = run_offered_load(
            rate_ops_per_s=200_000.0,
            policy=control_policy(200_000.0, budget_ns=1e6),
            duration_ns=5e6,
            record_count=2_048,
            seed=11,
            label="wiring",
            registry=registry,
            tracer=tracer,
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
        # Completed ops were traced and decompose cleanly.
        assert len(tracer.ops) == summary.completed
        assert tracer.validate()["within_tolerance"]


class TestFaultsRunnerWiring:
    def test_faulted_keydb_exports_ras_metrics(self):
        from repro.faults.runner import run_faulted_app

        registry = MetricsRegistry()
        summary = run_faulted_app(
            "keydb", "link-degrade", seed=11, quick=True, registry=registry
        )
        names = _names(registry)
        assert "faulted_throughput" in names
        assert "ras_offered_total" in names
        by_name = {
            (s.name, tuple(sorted(s.labels.items()))): s.value
            for s in registry.samples()
        }
        key = (
            "faulted_availability",
            (("app", "keydb"), ("scenario", "link-degrade")),
        )
        assert by_name[key] == pytest.approx(summary.availability)

    def test_faulted_spark_exports_summary(self):
        from repro.faults.runner import run_faulted_app

        registry = MetricsRegistry()
        run_faulted_app(
            "spark", "device-loss", seed=11, quick=True, registry=registry
        )
        assert "faulted_counter_total" in _names(registry)


class TestSparkWiring:
    def test_run_spark_config_exports_query_gauges(self):
        from repro.apps.spark.experiment import run_spark_config
        from repro.workloads.tpch import paper_queries

        queries = paper_queries()
        first = next(iter(queries))
        registry = MetricsRegistry()
        results = run_spark_config(
            "mmem", {first: queries[first]}, registry=registry
        )
        samples = {
            (s.name, s.labels.get("query")): s.value
            for s in registry.samples()
        }
        assert samples[("spark_query_total_ns", first)] == pytest.approx(
            results[first].total_ns
        )
        assert ("spark_query_shuffle_fraction", first) in samples


class TestLlmWiring:
    def test_router_traces_requests(self):
        from repro.apps.llm.router import LlmRouter
        from repro.apps.llm.serving import LlmServingExperiment
        from repro.sim.rng import RngFactory
        from repro.workloads.llm_trace import chat_trace

        rng = RngFactory(11).stream("obs-llm")
        requests = list(chat_trace(rng, 6, mean_new_tokens=8))
        tracer = Tracer()
        profile = EngineProfile()
        router = LlmRouter(
            LlmServingExperiment("3:1"), backends=2,
            tracer=tracer, engine_profile=profile,
        )
        run = router.serve(requests)
        assert len(tracer.ops) == run.requests_completed
        layers = set(tracer.layer_totals())
        assert "device" in layers  # decode steps
        for op in tracer.ops:
            assert op.kind == "llm.request"
            assert op.duration_ns > 0
        assert profile.steps > 0

    def test_traced_llm_run_is_bit_identical(self):
        from repro.apps.llm.router import LlmRouter
        from repro.apps.llm.serving import LlmServingExperiment
        from repro.sim.rng import RngFactory
        from repro.workloads.llm_trace import chat_trace

        def serve(tracer):
            rng = RngFactory(11).stream("obs-llm")
            requests = list(chat_trace(rng, 6, mean_new_tokens=8))
            router = LlmRouter(
                LlmServingExperiment("3:1"), backends=2, tracer=tracer
            )
            return router.serve(requests)

        from repro.obs import NULL_TRACER

        bare = serve(NULL_TRACER)
        traced = serve(Tracer())
        assert bare.elapsed_ns == traced.elapsed_ns
        assert bare.tokens_per_second == traced.tokens_per_second
