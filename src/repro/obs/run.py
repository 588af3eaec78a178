"""The observed-run driver behind ``repro metrics`` / ``repro trace``.

Runs a small YCSB-on-CXL experiment (the closed-loop DES KeyDB server
on the paper platform's 1:1 MMEM:CXL interleave) with the full
observability stack attached: a metrics registry collecting op
counters, headline numbers and latency histograms; and, when requested,
a tracer decomposing every completed op into per-layer spans.

Tracing is deterministic by construction — it only records sim-time
numbers the simulation already computed — so the same seed produces
bit-identical headline numbers with tracing on or off (pinned by
``tests/obs/test_tracing.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from ..sim.seed import DEFAULT_SEED
from .registry import MetricsRegistry, histogram_samples
from .tracing import NULL_TRACER, Tracer

__all__ = ["ObservedRun", "run_observed_keydb"]


@dataclass
class ObservedRun:
    """Everything one observed run produced."""

    result: object  # KeyDbResult
    registry: MetricsRegistry
    tracer: Tracer

    @property
    def traced(self) -> bool:
        """Whether the run recorded spans."""
        return self.tracer.enabled


def run_observed_keydb(
    config: str = "1:1",
    record_count: int = 4_096,
    total_ops: int = 6_000,
    seed: int = DEFAULT_SEED,
    workload: str = "A",
    tracing: bool = False,
) -> ObservedRun:
    """One YCSB-on-CXL run with the observability layer wired in."""
    # Imported here, not at module top: the apps import repro.obs.
    from ..apps.kvstore.des_server import DesKeyDbServer
    from ..apps.kvstore.experiment import build_keydb_experiment

    experiment = build_keydb_experiment(
        config, record_count=record_count, seed=seed, workload=workload
    )
    registry = MetricsRegistry()
    tracer = Tracer() if tracing else NULL_TRACER
    server = DesKeyDbServer(
        experiment.platform, experiment.server.store, tracer=tracer
    )
    result = server.run(experiment.generator, total_ops)

    # Bind every accounting source into the one registry.
    result.counters.register_into(
        registry, "keydb_ops", labels={"config": config, "workload": workload}
    )
    run_info = registry.gauge(
        "keydb_run", "headline run numbers", ("config", "workload", "quantity")
    )
    run_info.set(float(result.ops), config=config, workload=workload,
                 quantity="ops")
    run_info.set(result.elapsed_ns, config=config, workload=workload,
                 quantity="elapsed_ns")
    run_info.set(result.throughput_ops_per_s, config=config,
                 workload=workload, quantity="throughput_ops_per_s")
    base_labels = {"config": config, "workload": workload}
    registry.register_collector(
        lambda: histogram_samples(
            "keydb_read_latency_ns", {**base_labels, "op": "read"},
            result.read_latency,
        )
    )
    registry.register_collector(
        lambda: histogram_samples(
            "keydb_write_latency_ns", {**base_labels, "op": "write"},
            result.write_latency,
        )
    )
    return ObservedRun(result=result, registry=registry, tracer=tracer)
