"""Faulted-run orchestration for the three paper applications.

Each ``run_faulted_*`` function follows the same protocol:

1. run the application *healthy* to calibrate its clock (the three
   apps' simulated runs differ by orders of magnitude in length);
2. place the scenario's fault window at fixed fractions of the healthy
   elapsed time (start at 35 %, span 30 %), so every scenario bites
   mid-run regardless of the app;
3. rebuild the application from the same seed, attach a
   :class:`FaultInjector` (and, where the app streams operations, a
   :class:`RecoveryTracker`), and run it again under the fault;
4. distil both runs into a :class:`FaultedRunSummary`.

The same seed therefore always produces the identical fault trace and
summary — the property the acceptance tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.rng import DEFAULT_SEED, RngFactory
from .injector import FaultInjector
from .metrics import FaultRecoveryReport, RecoveryTracker
from .plan import FaultPlan
from .scenarios import SCENARIOS, build_scenario

__all__ = [
    "FAULT_APPS",
    "FaultedRunSummary",
    "fault_sweep_spec",
    "run_faulted_app",
    "run_faulted_keydb",
    "run_faulted_llm",
    "run_faulted_spark",
]

#: Where in the healthy run the fault window lands (fractions of the
#: healthy elapsed time).
FAULT_AT_FRACTION = 0.35
FAULT_SPAN_FRACTION = 0.30


@dataclass
class FaultedRunSummary:
    """Healthy-vs-faulted comparison for one app under one scenario."""

    app: str
    scenario: str
    seed: int
    #: App-native throughput (ops/s, tokens/s, queries/hour).
    healthy_throughput: float
    faulted_throughput: float
    #: Completed / offered work units over the faulted run.
    availability: float
    trace: List[str] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Phased latency/recovery report (None for the analytic Spark model).
    report: Optional[FaultRecoveryReport] = None

    @property
    def throughput_ratio(self) -> float:
        """Faulted / healthy throughput (1.0 = unaffected)."""
        if self.healthy_throughput <= 0:
            return 0.0
        return self.faulted_throughput / self.healthy_throughput

    def rows(self) -> List[Tuple[str, str]]:
        """(quantity, value) pairs for ascii_table rendering."""
        rows = [
            ("app", self.app),
            ("scenario", self.scenario),
            ("healthy throughput", f"{self.healthy_throughput:,.0f}"),
            ("faulted throughput", f"{self.faulted_throughput:,.0f}"),
            ("throughput ratio", f"{self.throughput_ratio:.3f}"),
            ("availability", f"{self.availability * 100:.3f}%"),
        ]
        if self.report is not None:
            rows.extend(self.report.rows()[4:])
        return rows

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot (for ``repro faults run --json``)."""
        return {
            "app": self.app,
            "scenario": self.scenario,
            "seed": self.seed,
            "healthy_throughput": self.healthy_throughput,
            "faulted_throughput": self.faulted_throughput,
            "throughput_ratio": self.throughput_ratio,
            "availability": self.availability,
            "trace": list(self.trace),
            "counters": dict(self.counters),
            "report": self.report.as_dict() if self.report is not None else None,
        }


def _fault_window(healthy_elapsed_ns: float) -> Tuple[float, float]:
    if healthy_elapsed_ns <= 0:
        raise ConfigurationError("healthy calibration run produced no elapsed time")
    return (
        healthy_elapsed_ns * FAULT_AT_FRACTION,
        healthy_elapsed_ns * FAULT_SPAN_FRACTION,
    )


def _tracker_for(plan: FaultPlan, healthy_elapsed_ns: float) -> RecoveryTracker:
    start, end = plan.window()
    return RecoveryTracker(start, end, window_ns=healthy_elapsed_ns / 25.0)


def _register_summary(registry, summary: "FaultedRunSummary") -> None:
    """Export one faulted-run summary through a metrics registry."""
    from ..obs.registry import Sample

    labels = {"app": summary.app, "scenario": summary.scenario}

    def collect():
        yield Sample("faulted_healthy_throughput", "gauge", dict(labels),
                     summary.healthy_throughput)
        yield Sample("faulted_throughput", "gauge", dict(labels),
                     summary.faulted_throughput)
        yield Sample("faulted_availability", "gauge", dict(labels),
                     summary.availability)
        for name, value in sorted(summary.counters.items()):
            yield Sample("faulted_counter_total", "counter",
                         {**labels, "counter": name}, float(value))

    registry.register_collector(collect)


def run_faulted_keydb(
    scenario: str,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    registry=None,
) -> FaultedRunSummary:
    """KeyDB (1:1 interleave) through one fault scenario."""
    from ..apps.kvstore.experiment import build_keydb_experiment

    record_count = 8_192 if quick else 32_768
    total_ops = 30_000 if quick else 100_000

    healthy = build_keydb_experiment("1:1", record_count=record_count, seed=seed)
    base = healthy.server.run(healthy.generator, total_ops=total_ops)

    faulted = build_keydb_experiment("1:1", record_count=record_count, seed=seed)
    plan = build_scenario(
        scenario, faulted.platform, seed, _fault_window(base.elapsed_ns)
    )
    injector = FaultInjector(faulted.platform, plan)
    tracker = _tracker_for(plan, base.elapsed_ns)
    faulted.server.attach_faults(injector, tracker=tracker)
    run = faulted.server.run(faulted.generator, total_ops=total_ops)

    report = tracker.report()
    summary = FaultedRunSummary(
        app="keydb",
        scenario=scenario,
        seed=seed,
        healthy_throughput=base.throughput_ops_per_s,
        faulted_throughput=run.throughput_ops_per_s,
        availability=report.availability if report.offered_ops else 1.0,
        trace=list(injector.trace),
        counters=run.counters.as_dict(),
        report=report,
    )
    if registry is not None:
        tracker.register_into(
            registry, labels={"app": "keydb", "scenario": scenario}
        )
        _register_summary(registry, summary)
    return summary


def run_faulted_llm(
    scenario: str,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    registry=None,
) -> FaultedRunSummary:
    """The LLM serving stack (3:1 placement) through one scenario."""
    from ..apps.llm.router import LlmRouter
    from ..apps.llm.serving import LlmServingExperiment
    from ..workloads.llm_trace import chat_trace

    n_requests = 16 if quick else 48
    backends = 4
    rng = RngFactory(seed).stream("llm-fault-trace")
    requests = list(chat_trace(rng, n_requests, mean_new_tokens=24))

    base = LlmRouter(LlmServingExperiment("3:1"), backends=backends).serve(
        list(requests)
    )

    experiment = LlmServingExperiment("3:1")
    router = LlmRouter(experiment, backends=backends)
    plan = build_scenario(
        scenario, experiment.platform, seed, _fault_window(base.elapsed_ns)
    )
    injector = FaultInjector(experiment.platform, plan)
    tracker = _tracker_for(plan, base.elapsed_ns)
    router.attach_faults(injector, tracker=tracker)
    run = router.serve(list(requests))

    offered = run.requests_completed + run.requests_failed
    report = tracker.report()
    summary = FaultedRunSummary(
        app="llm",
        scenario=scenario,
        seed=seed,
        healthy_throughput=base.tokens_per_second,
        faulted_throughput=run.tokens_per_second,
        availability=run.requests_completed / offered if offered else 1.0,
        trace=list(injector.trace),
        counters={
            "requests_completed": float(run.requests_completed),
            "requests_failed": float(run.requests_failed),
            "reroutes": float(run.reroutes),
            "breaker_trips": float(sum(b.times_opened for b in router.breakers)),
        },
        report=report,
    )
    if registry is not None:
        tracker.register_into(
            registry, labels={"app": "llm", "scenario": scenario}
        )
        _register_summary(registry, summary)
    return summary


def run_faulted_spark(
    scenario: str,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    registry=None,
) -> FaultedRunSummary:
    """The Spark cluster (1:1 interleave) through one scenario.

    Spark's model is analytic, so there is no op-level recovery report;
    faults surface as wall-clock inflation and re-execution time.
    """
    from ..apps.spark.cluster import build_cluster_config
    from ..apps.spark.job import SparkQueryRunner
    from ..workloads.tpch import paper_queries

    queries = paper_queries()
    if quick:
        first = next(iter(queries))
        queries = {first: queries[first]}

    base_total = sum(
        r.total_ns
        for r in SparkQueryRunner(build_cluster_config("1:1"))
        .run_queries(queries)
        .values()
    )

    config = build_cluster_config("1:1")
    runner = SparkQueryRunner(config)
    plan = build_scenario(scenario, config.platform, seed, _fault_window(base_total))
    injector = FaultInjector(config.platform, plan)
    runner.attach_faults(injector)
    results = runner.run_queries(queries)

    total = sum(r.total_ns for r in results.values())
    reexec = sum(s.reexec_ns for r in results.values() for s in r.stages)
    poisoned = sum(s.poisoned_bytes for r in results.values() for s in r.stages)
    per_hour = 3600e9 * len(queries)
    summary = FaultedRunSummary(
        app="spark",
        scenario=scenario,
        seed=seed,
        healthy_throughput=per_hour / base_total,
        faulted_throughput=per_hour / total if total > 0 else 0.0,
        availability=1.0,  # lost work is re-executed, never dropped
        trace=list(injector.trace),
        counters={
            "reexec_ns": reexec,
            "poisoned_bytes": float(poisoned),
            "slowdown": total / base_total if base_total > 0 else math.inf,
        },
    )
    if registry is not None:
        _register_summary(registry, summary)
    return summary


FAULT_APPS = {
    "keydb": run_faulted_keydb,
    "llm": run_faulted_llm,
    "spark": run_faulted_spark,
}


def run_faulted_app(
    app: str,
    scenario: str,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    registry=None,
) -> FaultedRunSummary:
    """Dispatch one (app, scenario) faulted run.

    ``registry`` (a :class:`~repro.obs.registry.MetricsRegistry`) gets
    the run's RAS tracker and summary bound into it for export.
    """
    if app not in FAULT_APPS:
        raise ConfigurationError(
            f"unknown app {app!r}; expected one of {sorted(FAULT_APPS)}"
        )
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown fault scenario {scenario!r}; expected one of {sorted(SCENARIOS)}"
        )
    return FAULT_APPS[app](scenario, seed=seed, quick=quick, registry=registry)


def fault_sweep_spec(
    scenario: str,
    apps: Optional[List[str]] = None,
    seed: int = DEFAULT_SEED,
    quick: bool = False,
):
    """The (app, scenario) fault cases as a sweep spec.

    One point per app, all pinned to the shared seed (the fault trace
    is a function of the seed).  The spec feeds
    :func:`repro.parallel.run_sweep` — including its result cache, so
    repeated ``repro faults run`` invocations of an unchanged scenario
    are lookups, not re-simulations.
    """
    from ..parallel import SweepPoint, SweepSpec, tasks

    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"unknown fault scenario {scenario!r}; expected one of {sorted(SCENARIOS)}"
        )
    if apps is None:
        apps = sorted(FAULT_APPS)
    for app in apps:
        if app not in FAULT_APPS:
            raise ConfigurationError(
                f"unknown app {app!r}; expected one of {sorted(FAULT_APPS)}"
            )
    return SweepSpec(
        name="faults",
        task=tasks.fault_case,
        points=tuple(
            SweepPoint(
                key=app,
                params={"app": app, "scenario": scenario, "quick": quick},
                seed=seed,
            )
            for app in apps
        ),
        base_seed=seed,
    )
