"""Spawn-importable task functions for the stock sweeps.

Every task here is a module-level function ``task(params, seed)`` so a
spawned worker can import it by reference.  Tasks import the application
stacks lazily inside their bodies — the analysis/apps layers import
:mod:`repro.parallel` for the runner, and eager imports here would close
that cycle.

Each stock sweep target has exactly one task.  It reads everything it
needs from its point params and returns the point's ``repro.metrics/v1``
document: ``"metrics"`` is what ``repro sweep --json`` merges into one
export (see :mod:`repro.parallel.merge`), and ``"result"`` holds the
plain value (``KeyDbResult``, ``OverloadRunSummary``, ...) that the
figure assemblers turn into the paper's tables.  The figure runners,
``repro sweep`` and ``repro serve`` thus run the same task on the same
params, and share one cache entry per point.

fig5/fig8 points name the model they run on in ``params["backend"]``
(``"des"`` or ``"analytic"``; the spec builders resolve ``--backend
auto`` per point through :func:`repro.analytic.select.select_backend`),
so the backend reaches the cache fingerprint as an ordinary param.
Whichever model produced a result, the document carries the same
metric families, so merged exports are backend-agnostic.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

__all__ = [
    "demo_point",
    "demo_point_observed",
    "fig3_panel",
    "fig4_pattern_mix",
    "fig5_cell",
    "fig7_config",
    "fig8_cell",
    "fig10_config",
    "overload_point",
    "fault_case",
]


def demo_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """A tiny deterministic task for smoke tests and examples.

    Draws a few values from the seeded RNG stream and returns summary
    statistics.  ``params["poison"]`` truthy makes the point crash —
    used to exercise the runner's failure isolation.  ``params["sleep_s"]``
    pads the point's wall-clock without touching its value, so timing
    tests (mid-job kills, deadline shedding) get points slow enough to
    interrupt but still value-deterministic.
    """
    import time

    from ..sim.rng import RngFactory

    if params.get("poison"):
        raise RuntimeError(f"poisoned point (seed {seed})")
    if params.get("sleep_s"):
        time.sleep(float(params["sleep_s"]))
    rng = RngFactory(seed).stream("parallel-demo")
    draws = rng.random(int(params.get("draws", 64)))
    return {
        "seed": seed,
        "n": int(draws.size),
        "mean": float(draws.mean()),
        "min": float(draws.min()),
        "max": float(draws.max()),
    }


def demo_point_observed(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """A demo point plus its ``repro.metrics/v1`` snapshot.

    The ``demo`` target of ``repro serve``: a sweep point cheap enough
    that service-level tests (admission, kill/resume, drain) measure the
    server, not the workload.
    """
    from ..obs.registry import MetricsRegistry

    stats = demo_point(params, seed)
    registry = MetricsRegistry()
    gauge = registry.gauge(
        "demo_draws", "summary statistics of one demo point", ("quantity",)
    )
    for quantity in ("n", "mean", "min", "max"):
        gauge.set(float(stats[quantity]), quantity=quantity)
    return {"metrics": registry.as_dict()}


# -- Fig. 3 / Fig. 4 (loaded latency) ---------------------------------------


def fig3_panel(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One Fig. 3 panel; ``result`` is ``{mix: MlcCurve}`` for one distance."""
    from ..analysis.figures import _panel_path
    from ..hw.presets import paper_cxl_platform
    from ..obs.registry import MetricsRegistry
    from ..workloads.mlc import MlcProbe

    platform = paper_cxl_platform(snc_enabled=True)
    probe = MlcProbe(platform)
    panel = params["panel"]
    path = _panel_path(platform, panel)
    curves = {
        f"{r}:{w}": probe.loaded_latency_curve(
            path, r, w, load_points=list(params["fractions"])
        )
        for r, w in params["mixes"]
    }
    registry = MetricsRegistry()
    gauge = registry.gauge(
        "mlc_curve", "loaded-latency curve endpoints",
        ("panel", "mix", "quantity"),
    )
    for mix, curve in curves.items():
        gauge.set(curve.idle_latency_ns, panel=panel, mix=mix,
                  quantity="idle_latency_ns")
        gauge.set(curve.peak_bandwidth_gbps, panel=panel, mix=mix,
                  quantity="peak_bandwidth_gbps")
    return {"metrics": registry.as_dict(), "result": curves}


def fig4_pattern_mix(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One Fig. 4 cell; ``result`` is ``{panel: MlcCurve}`` for one
    (pattern, mix)."""
    from ..analysis.figures import FIG3_PANELS, _panel_path
    from ..hw.presets import paper_cxl_platform
    from ..obs.registry import MetricsRegistry
    from ..workloads.mlc import MlcProbe

    platform = paper_cxl_platform(snc_enabled=True)
    pattern = params["pattern"]
    probe = MlcProbe(platform, pattern=pattern)
    r, w = params["mix"]
    per_panel = {
        panel: probe.loaded_latency_curve(
            _panel_path(platform, panel), r, w,
            load_points=list(params["fractions"]),
        )
        for panel in FIG3_PANELS
    }
    mix = f"{r}:{w}"
    registry = MetricsRegistry()
    gauge = registry.gauge(
        "mlc_curve", "loaded-latency curve endpoints",
        ("pattern", "mix", "panel", "quantity"),
    )
    for panel, curve in per_panel.items():
        gauge.set(curve.idle_latency_ns, pattern=pattern, mix=mix,
                  panel=panel, quantity="idle_latency_ns")
        gauge.set(curve.peak_bandwidth_gbps, pattern=pattern, mix=mix,
                  panel=panel, quantity="peak_bandwidth_gbps")
    return {"metrics": registry.as_dict(), "result": per_panel}


# -- Fig. 5 / Fig. 8 (KeyDB YCSB) -------------------------------------------


def fig5_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One Fig. 5 cell; ``result`` is the (workload, configuration)
    ``KeyDbResult``."""
    from ..obs.registry import MetricsRegistry, histogram_samples

    if params["backend"] == "analytic":
        from ..analytic.keydb import analytic_keydb_config as run
    else:
        from ..apps.kvstore import run_keydb_config as run
    config, workload = params["config"], params["workload"]
    result = run(
        config,
        workload=workload,
        record_count=int(params["record_count"]),
        total_ops=int(params["total_ops"]),
        seed=seed,
    )
    registry = MetricsRegistry()
    labels = {"config": config, "workload": workload}
    result.counters.register_into(registry, "keydb_ops", labels=dict(labels))
    run_info = registry.gauge(
        "keydb_run", "headline run numbers", ("config", "workload", "quantity")
    )
    run_info.set(float(result.ops), quantity="ops", **labels)
    run_info.set(result.elapsed_ns, quantity="elapsed_ns", **labels)
    run_info.set(result.throughput_ops_per_s,
                 quantity="throughput_ops_per_s", **labels)
    registry.register_collector(
        lambda: histogram_samples(
            "keydb_read_latency_ns", {**labels, "op": "read"},
            result.read_latency,
        )
    )
    registry.register_collector(
        lambda: histogram_samples(
            "keydb_write_latency_ns", {**labels, "op": "write"},
            result.write_latency,
        )
    )
    return {"metrics": registry.as_dict(), "result": result}


def fig8_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One Fig. 8 half (YCSB-C bound entirely to MMEM or to CXL);
    ``result`` is its ``KeyDbResult``."""
    from ..obs.registry import MetricsRegistry

    if params["backend"] == "analytic":
        from ..analytic.keydb import analytic_keydb_cxl_only as run
    else:
        from ..apps.kvstore import run_keydb_cxl_only as run
    result = run(
        bool(params["on_cxl"]),
        int(params["record_count"]),
        int(params["total_ops"]),
        seed,
    )
    side = "cxl" if params["on_cxl"] else "mmem"
    registry = MetricsRegistry()
    gauge = registry.gauge(
        "keydb_cxl_only", "numactl-bound YCSB-C run", ("side", "quantity")
    )
    p50 = result.read_latency.percentile(50)
    p99 = result.read_latency.percentile(99)
    gauge.set(result.throughput_ops_per_s, side=side,
              quantity="throughput_ops_per_s")
    gauge.set(p50, side=side, quantity="read_p50_ns")
    gauge.set(p99, side=side, quantity="read_p99_ns")
    return {"metrics": registry.as_dict(), "result": result}


# -- Fig. 7 (Spark) ----------------------------------------------------------


def fig7_config(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One Fig. 7 column; ``result`` is ``{query: QueryResult}`` under one
    configuration."""
    from ..apps.spark.experiment import run_spark_config
    from ..obs.registry import MetricsRegistry

    config = params["config"]
    per_query = run_spark_config(config)
    registry = MetricsRegistry()
    gauge = registry.gauge(
        "spark_query", "per-query TPC-H results",
        ("config", "query", "quantity"),
    )
    for query in sorted(per_query):
        result = per_query[query]
        gauge.set(result.total_ns, config=config, query=query,
                  quantity="total_ns")
        gauge.set(result.shuffle_fraction, config=config, query=query,
                  quantity="shuffle_fraction")
    return {"metrics": registry.as_dict(), "result": per_query}


# -- Fig. 10 (LLM serving) ---------------------------------------------------


def fig10_config(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One Fig. 10(a) series; ``result`` is the backend-count sweep
    (``ServingPoint`` list) for one config."""
    from ..apps.llm import LlmServingExperiment
    from ..obs.registry import MetricsRegistry

    config = params["config"]
    points = LlmServingExperiment(config).sweep(tuple(params["backend_counts"]))
    registry = MetricsRegistry()
    gauge = registry.gauge(
        "llm_serving", "serving-rate sweep samples",
        ("config", "backends", "quantity"),
    )
    for point in points:
        gauge.set(point.tokens_per_second, config=config,
                  backends=point.backends, quantity="tokens_per_s")
        gauge.set(point.dram_utilization, config=config,
                  backends=point.backends, quantity="dram_utilization")
        gauge.set(point.cxl_utilization, config=config,
                  backends=point.backends, quantity="cxl_utilization")
    return {"metrics": registry.as_dict(), "result": points}


# -- overload sweeps ---------------------------------------------------------


def overload_point(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One offered-load factor; ``result`` is its ``OverloadRunSummary``."""
    from ..obs.registry import MetricsRegistry
    from ..overload.runner import run_offered_load

    registry = MetricsRegistry()
    summary = run_offered_load(
        params["rate_ops_per_s"],
        params["policy"],
        duration_ns=params["duration_ns"],
        config=params["config"],
        record_count=int(params["record_count"]),
        seed=seed,
        threads=int(params["threads"]),
        label=params["label"],
        load_factor=params["load_factor"],
        registry=registry,
    )
    return {"result": summary, "metrics": registry.as_dict()}


# -- fault catalog -----------------------------------------------------------


def fault_case(params: Mapping[str, Any], seed: int):
    """One (app, scenario) cell of the fault catalog."""
    from ..faults.runner import run_faulted_app

    return run_faulted_app(
        params["app"],
        params["scenario"],
        seed=seed,
        quick=bool(params.get("quick", False)),
    )
