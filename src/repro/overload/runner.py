"""Offered-load experiments: the goodput curve and the fault comparison.

Two experiments, behind ``repro sweep overload``, ``repro overload
faults`` and the benchmark:

* :func:`sweep_offered_load` — open-loop KeyDB (Poisson arrivals on the
  DES) swept across offered-load factors of the calibrated closed-loop
  capacity; ``repro sweep overload`` runs the same
  :func:`offered_load_sweep_spec` and tabulates it through
  :func:`offered_load_from_sweep`.  Uncontrolled, throughput past the
  knee turns into an unbounded backlog: p99 diverges and goodput
  (in-deadline completions) collapses.  With admission control the
  excess is refused at arrival and goodput plateaus near the knee — the
  load-shedding analogue of the paper's §3.2 observation that running a
  CXL device past its bandwidth knee buys no throughput, only latency.

* :func:`run_fault_comparison` — the same server under the catalog's
  ``link-degrade`` scenario, controlled vs uncontrolled: SLO-aware
  shedding trades a slice of offered load for a bounded deadline-miss
  rate while the uncontrolled run drags every request through the
  degraded window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..parallel.jobs import SweepResult, SweepSpec

from ..errors import ConfigurationError
from ..faults.injector import FaultInjector
from ..faults.scenarios import build_scenario
from ..sim.seed import DEFAULT_SEED
from .policy import OverloadController, OverloadPolicy

__all__ = [
    "OverloadRunSummary",
    "calibrate_capacity_ops_per_s",
    "control_policy",
    "baseline_policy",
    "run_offered_load",
    "sweep_offered_load",
    "offered_load_sweep_spec",
    "offered_load_from_sweep",
    "run_fault_comparison",
]


@dataclass
class OverloadRunSummary:
    """One open-loop run distilled for tables/JSON."""

    label: str
    offered_ops_per_s: float
    load_factor: float
    duration_ns: float
    offered: int
    admitted: int
    completed: int
    good: int
    deadline_misses: int
    rejected: int
    shed: int
    goodput_ops_per_s: float
    throughput_ops_per_s: float
    shed_rate: float
    deadline_miss_rate: float
    p50_ns: float
    p99_ns: float
    counters: Dict[str, float] = field(default_factory=dict)

    def rows(self) -> List[Tuple[str, str]]:
        """(quantity, value) pairs for ascii_table rendering."""

        def _us(value: float) -> str:
            return "n/a (no samples)" if math.isnan(value) else f"{value / 1e3:.1f} us"

        return [
            ("offered load", f"{self.offered_ops_per_s:.0f} ops/s"
             f" ({self.load_factor:.2f}x capacity)"),
            ("offered ops", f"{self.offered}"),
            ("admitted ops", f"{self.admitted}"),
            ("completed ops", f"{self.completed}"),
            ("in-deadline (good) ops", f"{self.good}"),
            ("rejected ops", f"{self.rejected}"),
            ("shed ops", f"{self.shed}"),
            ("deadline misses", f"{self.deadline_misses}"),
            ("goodput", f"{self.goodput_ops_per_s:.0f} ops/s"),
            ("throughput", f"{self.throughput_ops_per_s:.0f} ops/s"),
            ("shed rate", f"{self.shed_rate * 100:.1f}%"),
            ("deadline-miss rate", f"{self.deadline_miss_rate * 100:.1f}%"),
            ("p50 latency", _us(self.p50_ns)),
            ("p99 latency", _us(self.p99_ns)),
        ]

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready snapshot (NaN becomes None)."""

        def _num(value: float) -> Optional[float]:
            return None if math.isnan(value) or math.isinf(value) else value

        return {
            "label": self.label,
            "offered_ops_per_s": self.offered_ops_per_s,
            "load_factor": self.load_factor,
            "duration_ns": self.duration_ns,
            "offered": self.offered,
            "admitted": self.admitted,
            "completed": self.completed,
            "good": self.good,
            "deadline_misses": self.deadline_misses,
            "rejected": self.rejected,
            "shed": self.shed,
            "goodput_ops_per_s": self.goodput_ops_per_s,
            "throughput_ops_per_s": self.throughput_ops_per_s,
            "shed_rate": self.shed_rate,
            "deadline_miss_rate": self.deadline_miss_rate,
            "p50_ns": _num(self.p50_ns),
            "p99_ns": _num(self.p99_ns),
            "counters": dict(self.counters),
        }


#: Scaled-down defaults: small store + short windows keep a full sweep
#: interactive while preserving the knee/backlog dynamics.
DEFAULT_CONFIG = "1:1"
DEFAULT_RECORDS = 16_384
DEFAULT_DURATION_NS = 40e6


def _fresh_server(
    config: str,
    record_count: int,
    seed: int,
    threads: int,
):
    """A brand-new DES server + generator (state is never reused)."""
    from ..apps.kvstore.des_server import DesKeyDbServer
    from ..apps.kvstore.experiment import build_keydb_experiment

    experiment = build_keydb_experiment(
        config, record_count=record_count, seed=seed, threads=threads
    )
    server = DesKeyDbServer(
        experiment.platform, experiment.server.store, threads=threads
    )
    return server, experiment.generator, experiment.platform


def calibrate_capacity_ops_per_s(
    config: str = DEFAULT_CONFIG,
    record_count: int = DEFAULT_RECORDS,
    seed: int = DEFAULT_SEED,
    threads: int = 7,
    calibrate_ops: int = 20_000,
) -> float:
    """Closed-loop capacity of the DES server (ops/s).

    The closed loop self-clocks at the service rate, so its throughput
    *is* the capacity the offered-load factors scale against — the
    serving-stack analogue of the §3.2 loaded-latency knee.
    """
    server, generator, _ = _fresh_server(config, record_count, seed, threads)
    result = server.run(generator, calibrate_ops)
    if result.elapsed_ns <= 0:
        raise ConfigurationError("calibration run produced no elapsed time")
    return result.ops / (result.elapsed_ns / 1e9)


def control_policy(
    capacity_ops_per_s: float,
    budget_ns: float,
    threads: int = 7,
) -> OverloadPolicy:
    """The controlled configuration of the goodput experiments.

    A token bucket pinned at 95 % of the calibrated capacity keeps the
    admitted rate on the stable side of the knee; a short bounded queue
    converts bursts into cheap rejections; doomed work is shed; capacity
    loss raises the admitted-priority floor.
    """
    return OverloadPolicy(
        queue_capacity=max(4 * threads, 16),
        rate_ops_per_s=0.95 * capacity_ops_per_s,
        burst_ops=max(2.0 * threads, 8.0),
        default_budget_ns=budget_ns,
        shed_doomed=True,
        shed_on_capacity_loss=True,
        priority_levels=4,
    )


def baseline_policy(budget_ns: float) -> OverloadPolicy:
    """The uncontrolled baseline: admit everything, only measure."""
    return OverloadPolicy.monitor_only(default_budget_ns=budget_ns)


def default_budget_ns(capacity_ops_per_s: float, threads: int = 7) -> float:
    """A deadline generous at healthy load, hopeless under backlog.

    Sized at ~8x the queue-drain time of a full control queue, so a
    controlled run completes essentially everything it admits while an
    uncontrolled run's linearly-growing backlog blows through it.
    """
    queue_depth = max(4 * threads, 16)
    return 8.0 * queue_depth / capacity_ops_per_s * 1e9


def run_offered_load(
    rate_ops_per_s: float,
    policy: OverloadPolicy,
    duration_ns: float = DEFAULT_DURATION_NS,
    config: str = DEFAULT_CONFIG,
    record_count: int = DEFAULT_RECORDS,
    seed: int = DEFAULT_SEED,
    threads: int = 7,
    label: str = "run",
    load_factor: float = float("nan"),
    scenario: Optional[str] = None,
    registry=None,
) -> OverloadRunSummary:
    """One open-loop run at a fixed offered rate, summarized.

    ``scenario`` names a fault-catalog scenario that occupies 30–40 %
    of the run; its injector is built on this run's fresh platform and
    bound to the controller as its capacity signal.

    ``registry`` binds the run's overload funnel and per-op counters
    into the observability layer's metrics registry.
    """
    controller = OverloadController(policy)
    server, generator, platform = _fresh_server(
        config, record_count, seed, threads
    )
    injector = None
    if scenario is not None:
        # The injector mutates platform state as it advances, so it is
        # built on (and never outlives) this run's platform.
        window = (0.30 * duration_ns, 0.40 * duration_ns)
        plan = build_scenario(scenario, platform, seed, window)
        injector = FaultInjector(platform, plan)
        controller.bind_faults(injector)
    result = server.run_open_loop(
        generator,
        controller,
        rate_ops_per_s,
        duration_ns,
        seed=seed,
        injector=injector,
    )
    metrics = controller.metrics
    if registry is not None:
        metrics.register_into(registry, labels={"run": label})
        result.counters.register_into(registry, "keydb_ops",
                                      labels={"run": label})
    elapsed = max(result.elapsed_ns, 1.0)
    return OverloadRunSummary(
        label=label,
        offered_ops_per_s=rate_ops_per_s,
        load_factor=load_factor,
        duration_ns=duration_ns,
        offered=metrics.offered,
        admitted=metrics.admitted,
        completed=metrics.completed,
        good=metrics.good,
        deadline_misses=metrics.deadline_misses,
        rejected=metrics.total_rejected,
        shed=metrics.total_shed,
        goodput_ops_per_s=metrics.goodput_ops_per_s(elapsed),
        throughput_ops_per_s=result.ops / (elapsed / 1e9),
        shed_rate=metrics.shed_rate(),
        deadline_miss_rate=metrics.deadline_miss_rate(),
        p50_ns=result.read_latency.percentile(50),
        p99_ns=result.read_latency.percentile(99),
        counters=result.counters.as_dict(),
    )


def sweep_offered_load(
    factors: Optional[List[float]] = None,
    controlled: bool = True,
    duration_ns: float = DEFAULT_DURATION_NS,
    config: str = DEFAULT_CONFIG,
    record_count: int = DEFAULT_RECORDS,
    seed: int = DEFAULT_SEED,
    threads: int = 7,
) -> List[OverloadRunSummary]:
    """Offered load vs goodput: sweep factors of the calibrated capacity.

    Capacity is calibrated once in the parent; the per-factor runs are
    independent and fan out across ``$REPRO_WORKERS`` processes (the
    policy is pure declarative config, so it pickles into spawned
    workers).
    """
    spec = offered_load_sweep_spec(
        factors=factors,
        controlled=controlled,
        duration_ns=duration_ns,
        config=config,
        record_count=record_count,
        seed=seed,
        threads=threads,
    )
    from ..parallel import run_sweep

    return offered_load_from_sweep(spec, run_sweep(spec).raise_failures())


def offered_load_sweep_spec(
    factors: Optional[List[float]] = None,
    controlled: bool = True,
    duration_ns: float = DEFAULT_DURATION_NS,
    config: str = DEFAULT_CONFIG,
    record_count: int = DEFAULT_RECORDS,
    seed: int = DEFAULT_SEED,
    threads: int = 7,
) -> "SweepSpec":
    """The goodput sweep as a :class:`~repro.parallel.jobs.SweepSpec`.

    Runs the (serial) capacity calibration up front so every point
    carries a fully-resolved rate and policy.
    """
    from ..parallel import SweepPoint, SweepSpec, tasks

    if factors is None:
        factors = [0.5, 0.75, 1.0, 1.25, 1.5]
    capacity = calibrate_capacity_ops_per_s(config, record_count, seed, threads)
    budget = default_budget_ns(capacity, threads)
    if controlled:
        policy = control_policy(capacity, budget, threads)
    else:
        policy = baseline_policy(budget)
    mode = "controlled" if controlled else "uncontrolled"
    return SweepSpec(
        name="overload",
        task=tasks.overload_point,
        points=tuple(
            SweepPoint(
                key=f"{mode}@{factor:.2f}x",
                params={
                    "rate_ops_per_s": factor * capacity,
                    "policy": policy,
                    "duration_ns": duration_ns,
                    "config": config,
                    "record_count": record_count,
                    "threads": threads,
                    "label": f"{mode} @ {factor:.2f}x",
                    "load_factor": factor,
                },
                seed=seed,
            )
            for factor in factors
        ),
        base_seed=seed,
    )


def offered_load_from_sweep(
    spec: "SweepSpec", sweep: "SweepResult"
) -> List[OverloadRunSummary]:
    """One summary per offered-load factor, in spec order."""
    return [pr.value["result"] for pr in sweep.results]


def run_fault_comparison(
    scenario: str = "link-degrade",
    load_factor: float = 1.0,
    duration_ns: float = DEFAULT_DURATION_NS,
    config: str = DEFAULT_CONFIG,
    record_count: int = DEFAULT_RECORDS,
    seed: int = DEFAULT_SEED,
    threads: int = 7,
) -> Dict[str, OverloadRunSummary]:
    """Capacity-loss shedding vs riding out the fault uncontrolled.

    The catalog scenario occupies the middle of the run.  The controlled
    policy senses lost capacity through the bound injector, raises the
    admitted-priority floor, and sheds doomed work; the uncontrolled
    baseline serves everything late.  Returns per-label summaries whose
    deadline-miss rates are the headline comparison.
    """
    capacity = calibrate_capacity_ops_per_s(config, record_count, seed, threads)
    budget = default_budget_ns(capacity, threads)
    return {
        label: run_offered_load(
            load_factor * capacity,
            policy,
            duration_ns=duration_ns,
            config=config,
            record_count=record_count,
            seed=seed,
            threads=threads,
            label=f"{label} + {scenario}",
            load_factor=load_factor,
            scenario=scenario,
        )
        for label, policy in (
            ("controlled", control_policy(capacity, budget, threads)),
            ("uncontrolled", baseline_policy(budget)),
        )
    }
