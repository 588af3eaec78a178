"""Per-figure sweep specs and assemblers.

Each paper figure has two pieces, and ``repro sweep <target>`` chains
them through :func:`repro.parallel.run_sweep`:

* ``*_sweep_spec``: the figure's grid, one point per independent
  cell; :func:`repro.cli.stock_sweep_spec` picks its stock scale, and
  tests and benchmarks pass a sub-grid;
* a ``*_from_sweep(spec, sweep)`` assembler: the figure's data structure
  from each point's ``value["result"]``, which ``repro sweep`` renders
  as the paper's table and the benchmarks assert the paper's shapes on.

Every point runs the figure's one task (:mod:`repro.parallel.tasks`),
and cells keep the paper protocol of sharing the root seed.  Points come
back in spec order at any worker count, so a parallel figure is
bit-identical to a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..parallel import SweepPoint, SweepResult, SweepSpec, tasks
from ..sim.seed import DEFAULT_SEED
from ..units import GIB

if TYPE_CHECKING:
    from ..apps.kvstore.result import KeyDbResult
    from ..apps.llm.serving import ServingPoint
    from ..apps.spark.job import QueryResult
    from ..hw.topology import Platform
    from ..workloads.mlc import MlcCurve

__all__ = [
    "fig3_sweep_spec",
    "fig3_from_sweep",
    "fig4_sweep_spec",
    "fig4_from_sweep",
    "Fig5Result",
    "fig5_sweep_spec",
    "fig5_from_sweep",
    "fig7_sweep_spec",
    "fig7_from_sweep",
    "Fig8Result",
    "fig8_sweep_spec",
    "fig8_from_sweep",
    "Fig10Result",
    "fig10_sweep_spec",
    "fig10_from_sweep",
]

#: Fig. 3's read:write mix legend.
FIG3_MIXES: Tuple[Tuple[int, int], ...] = ((1, 0), (2, 1), (1, 1), (0, 1))

#: The four distances of Fig. 3's panels.
FIG3_PANELS: Tuple[str, ...] = ("mmem", "mmem-r", "cxl", "cxl-r")


def _panel_path(platform: Platform, panel: str):
    dram0 = platform.dram_nodes(0)[0]
    dram1 = platform.dram_nodes(1)[0]
    cxl = platform.cxl_nodes()[0]
    if panel == "mmem":
        return platform.path(0, dram0.node_id, initiator_domain=dram0.domain)
    if panel == "mmem-r":
        return platform.path(0, dram1.node_id)
    if panel == "cxl":
        return platform.path(0, cxl.node_id)
    if panel == "cxl-r":
        return platform.path(1, cxl.node_id)
    raise KeyError(f"unknown panel {panel!r}")


def _check_backend(backend: str) -> None:
    if backend not in ("des", "analytic", "auto"):
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of "
            f"('des', 'analytic', 'auto')"
        )


def _point_backend(target: str, backend: str, params: Dict) -> str:
    """The model one fig5/fig8 point runs on: ``auto`` resolved per point.

    The analytic package is imported only under ``auto``, so a ``des``
    spec never loads it.
    """
    _check_backend(backend)
    if backend != "auto":
        return backend
    from ..analytic.select import select_backend

    return select_backend(target, params)


def fig3_sweep_spec(
    panels: Sequence[str] = FIG3_PANELS,
    mixes: Sequence[Tuple[int, int]] = FIG3_MIXES,
    load_points: int = 24,
    seed: int = DEFAULT_SEED,
    backend: str = "des",
) -> SweepSpec:
    """The Fig. 3 panel grid as a sweep spec (one point per distance).

    Every backend runs the one allocator-backed ``MlcProbe``, so
    ``backend`` is validated but stays out of the params: all three
    values share one cache entry per point.
    """
    from ..workloads.mlc import load_fractions

    _check_backend(backend)
    fractions = load_fractions(load_points)
    return SweepSpec(
        name="fig3",
        task=tasks.fig3_panel,
        points=tuple(
            SweepPoint(
                key=panel,
                params={"panel": panel, "mixes": [list(m) for m in mixes],
                        "fractions": fractions},
                seed=seed,
            )
            for panel in panels
        ),
        base_seed=seed,
    )


def fig3_from_sweep(
    spec: SweepSpec, sweep: SweepResult
) -> Dict[str, Dict[str, MlcCurve]]:
    """Fig. 3's ``{panel: {"r:w": MlcCurve}}`` from its sweep's points."""
    return {pr.key: pr.value["result"] for pr in sweep.results}


def fig4_sweep_spec(
    write_fractions_mixes: Sequence[Tuple[int, int]] = (
        (1, 0), (3, 1), (2, 1), (1, 1), (1, 2), (0, 1),
    ),
    patterns: Sequence[str] = ("sequential", "random"),
    load_points: int = 24,
    seed: int = DEFAULT_SEED,
    backend: str = "des",
) -> SweepSpec:
    """The Fig. 4 (pattern, mix) grid as a sweep spec.

    Like Fig. 3, every backend runs ``MlcProbe`` and ``backend`` stays
    out of the params.
    """
    from ..workloads.mlc import load_fractions

    _check_backend(backend)
    fractions = load_fractions(load_points)
    return SweepSpec(
        name="fig4",
        task=tasks.fig4_pattern_mix,
        points=tuple(
            SweepPoint(
                key=f"{pattern}/{r}:{w}",
                params={"pattern": pattern, "mix": [r, w],
                        "fractions": fractions},
                seed=seed,
            )
            for pattern in patterns
            for r, w in write_fractions_mixes
        ),
        base_seed=seed,
    )


def fig4_from_sweep(
    spec: SweepSpec, sweep: SweepResult
) -> Dict[str, Dict[str, Dict[str, MlcCurve]]]:
    """Fig. 4's ``{pattern: {"r:w": {panel: MlcCurve}}}`` from its sweep."""
    out: Dict[str, Dict[str, Dict[str, MlcCurve]]] = {}
    for point, pr in zip(spec.points, sweep.results):
        pattern = point.params["pattern"]
        r, w = point.params["mix"]
        out.setdefault(pattern, {})[f"{r}:{w}"] = pr.value["result"]
    return out


@dataclass
class Fig5Result:
    """Fig. 5: YCSB throughput and tails per configuration."""

    results: Dict[str, Dict[str, KeyDbResult]] = field(default_factory=dict)

    def throughput_table(self) -> List[Tuple[str, Dict[str, float]]]:
        """Rows of (config, {workload: kops/s}) in Table 1 order."""
        out = []
        configs = list(next(iter(self.results.values())).keys())
        for config in configs:
            out.append(
                (
                    config,
                    {
                        wl: per_cfg[config].throughput_ops_per_s / 1e3
                        for wl, per_cfg in self.results.items()
                    },
                )
            )
        return out

    def slowdown(self, workload: str, config: str) -> float:
        """Throughput slowdown vs the MMEM configuration."""
        base = self.results[workload]["mmem"].throughput_ops_per_s
        return base / self.results[workload][config].throughput_ops_per_s


def fig5_sweep_spec(
    workloads: Sequence[str] = ("A", "B", "C", "D"),
    configs: Sequence[str] = (
        "mmem", "mmem-ssd-0.2", "mmem-ssd-0.4", "3:1", "1:1", "1:3", "hot-promote",
    ),
    record_count: int = 65_536,
    total_ops: int = 100_000,
    seed: int = 0xC0FFEE,
    backend: str = "des",
) -> SweepSpec:
    """The Fig. 5 grid as a sweep spec (one point per cell).

    Cells share the root seed — the paper's protocol runs every
    configuration against the same workload draw.  Each point's
    ``backend`` param names its model; ``backend="auto"`` puts the
    analytical model on steady-state cells and the DES on the
    hot-promotion transient.
    """
    points = []
    for workload in workloads:
        for config in configs:
            params = {
                "workload": workload,
                "config": config,
                "record_count": record_count,
                "total_ops": total_ops,
            }
            params["backend"] = _point_backend("fig5", backend, params)
            points.append(
                SweepPoint(key=f"{workload}/{config}", params=params, seed=seed)
            )
    return SweepSpec(name="fig5", task=tasks.fig5_cell, points=tuple(points),
                     base_seed=seed)


def fig5_from_sweep(spec: SweepSpec, sweep: SweepResult) -> Fig5Result:
    """Fig. 5's per-(workload, configuration) results from its sweep."""
    result = Fig5Result()
    for point, pr in zip(spec.points, sweep.results):
        workload = point.params["workload"]
        result.results.setdefault(workload, {})[point.params["config"]] = (
            pr.value["result"]
        )
    return result


def fig7_sweep_spec(
    configs: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
) -> SweepSpec:
    """The Fig. 7 configuration columns as a sweep spec (default: every
    configuration of :data:`~repro.apps.spark.cluster.SPARK_CONFIGS`)."""
    if configs is None:
        from ..apps.spark.cluster import SPARK_CONFIGS

        configs = tuple(SPARK_CONFIGS)
    return SweepSpec(
        name="fig7",
        task=tasks.fig7_config,
        points=tuple(
            SweepPoint(key=config, params={"config": config}, seed=seed)
            for config in configs
        ),
        base_seed=seed,
    )


def fig7_from_sweep(
    spec: SweepSpec, sweep: SweepResult
) -> Dict[str, Dict[str, QueryResult]]:
    """Fig. 7's ``{config: {query: QueryResult}}`` from its sweep."""
    return {pr.key: pr.value["result"] for pr in sweep.results}


@dataclass
class Fig8Result:
    """Fig. 8: KeyDB bound entirely to MMEM vs entirely to CXL."""

    mmem: KeyDbResult
    cxl: KeyDbResult

    @property
    def throughput_drop(self) -> float:
        """Fractional throughput loss on CXL (paper: ~12.5 %)."""
        return 1.0 - self.cxl.throughput_ops_per_s / self.mmem.throughput_ops_per_s

    def latency_penalty(self, percentile: float = 50.0) -> float:
        """Read-latency penalty at a percentile (paper: 9-27 %)."""
        return (
            self.cxl.read_latency.percentile(percentile)
            / self.mmem.read_latency.percentile(percentile)
            - 1.0
        )


def fig8_sweep_spec(
    record_count: int = 102_400,
    total_ops: int = 150_000,
    seed: int = 0xC0FFEE,
    backend: str = "des",
) -> SweepSpec:
    """The Fig. 8 MMEM/CXL pair as a sweep spec (``backend`` as in Fig. 5)."""
    points = []
    for key, on_cxl in (("mmem", False), ("cxl", True)):
        params = {
            "on_cxl": on_cxl,
            "record_count": record_count,
            "total_ops": total_ops,
        }
        params["backend"] = _point_backend("fig8", backend, params)
        points.append(SweepPoint(key=key, params=params, seed=seed))
    return SweepSpec(name="fig8", task=tasks.fig8_cell, points=tuple(points),
                     base_seed=seed)


def fig8_from_sweep(spec: SweepSpec, sweep: SweepResult) -> Fig8Result:
    """Fig. 8's MMEM/CXL pair from its sweep."""
    return Fig8Result(mmem=sweep.value("mmem")["result"],
                      cxl=sweep.value("cxl")["result"])


@dataclass
class Fig10Result:
    """Fig. 10: the LLM serving sweeps and bandwidth probes."""

    serving: Dict[str, List[ServingPoint]]
    fig10b: List[Tuple[int, float]]
    fig10c: List[Tuple[int, float]]

    def rate(self, config: str, threads: int) -> float:
        """Serving rate of a configuration at a thread count."""
        for point in self.serving[config]:
            if point.threads == threads:
                return point.tokens_per_second
        raise KeyError(f"no sample at {threads} threads for {config}")


def fig10_sweep_spec(
    backend_counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    configs: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
) -> SweepSpec:
    """The Fig. 10(a) configuration series as a sweep spec (default: every
    configuration of :data:`~repro.apps.llm.serving.LLM_CONFIGS`)."""
    if configs is None:
        from ..apps.llm.serving import LLM_CONFIGS

        configs = tuple(LLM_CONFIGS)
    return SweepSpec(
        name="fig10",
        task=tasks.fig10_config,
        points=tuple(
            SweepPoint(
                key=config,
                params={"config": config,
                        "backend_counts": [int(n) for n in backend_counts]},
                seed=seed,
            )
            for config in configs
        ),
        base_seed=seed,
    )


#: Fig. 10(b)'s thread counts and Fig. 10(c)'s KV-cache sizes (GiB).
FIG10B_THREADS: Tuple[int, ...] = (4, 8, 12, 16, 20, 24, 28, 32)
FIG10C_KV_GIB: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32)


def fig10_from_sweep(spec: SweepSpec, sweep: SweepResult) -> Fig10Result:
    """Fig. 10(a)'s series from its sweep, plus the (b)/(c) bandwidth
    probes, which run here: they are closed-form and not sweep points."""
    from ..apps.llm.serving import LlmServingExperiment

    serving = {pr.key: pr.value["result"] for pr in sweep.results}
    probe = LlmServingExperiment("mmem")
    fig10b = [(t, probe.fig10b_bandwidth_gbps(t)) for t in FIG10B_THREADS]
    fig10c = [
        (kv, probe.fig10c_bandwidth_gbps(kv * GIB)) for kv in FIG10C_KV_GIB
    ]
    return Fig10Result(serving=serving, fig10b=fig10b, fig10c=fig10c)
