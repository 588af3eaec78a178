"""Fig. 7 experiment driver and §6 cost-model input measurement.

``run_spark_config`` produces one Fig. 7 column (all four queries under
one configuration).  ``measure_cost_model_inputs`` runs the
single-server microbenchmarks §6 prescribes — throughput with the
working set fully spilled (``P_s``, normalized to 1), fully in MMEM
(``R_d``) and fully in CXL (``R_c``) — so the Abstract Cost Model can be
fed with *measured* values instead of the paper's illustrative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...hw.presets import paper_cxl_platform
from ...workloads.tpch import QueryProfile, paper_queries
from .cluster import ClusterConfig, build_cluster_config
from .executor import SparkAppSpec
from .job import PhaseCosts, QueryResult, SparkQueryRunner

__all__ = [
    "run_spark_config",
    "CostModelInputs",
    "measure_cost_model_inputs",
]


def run_spark_config(
    name: str,
    queries: Dict[str, QueryProfile] = None,
    costs: PhaseCosts = PhaseCosts(),
) -> Dict[str, QueryResult]:
    """One Fig. 7 column: all four TPC-H queries under one config."""
    if queries is None:
        queries = paper_queries()
    runner = SparkQueryRunner(build_cluster_config(name), costs)
    return runner.run_queries(queries)


@dataclass(frozen=True)
class CostModelInputs:
    """Measured §6 microbenchmark values (P_s normalized to 1)."""

    r_d: float  # relative throughput, working set in MMEM
    r_c: float  # relative throughput, working set in CXL

    def __post_init__(self) -> None:
        if not self.r_d > self.r_c > 1.0:
            raise ValueError(
                "expected R_d > R_c > 1: memory beats CXL beats SSD spill"
            )


def measure_cost_model_inputs(
    queries: Dict[str, QueryProfile] = None,
    costs: PhaseCosts = PhaseCosts(),
) -> CostModelInputs:
    """Run §6's single-server microbenchmarks.

    Three single-server runs of the same workload: everything spilled to
    SSD (the ``P_s`` baseline), everything in MMEM (``R_d``), everything
    in CXL (``R_c``).  Throughput is ``1 / total time``; the returned
    values are normalized to the spilled baseline as Table 3 specifies.
    """
    if queries is None:
        queries = paper_queries()
    app = SparkAppSpec(executors=50)  # one server's worth

    def total_time(config: ClusterConfig) -> float:
        runner = SparkQueryRunner(config, costs)
        return sum(r.total_ns for r in runner.run_queries(queries).values())

    mmem = ClusterConfig(
        "cm-mmem", servers=1, platform=paper_cxl_platform(), app=app,
        dram_fraction=1.0,
    )
    cxl = ClusterConfig(
        "cm-cxl", servers=1, platform=paper_cxl_platform(), app=app,
        dram_fraction=0.0,
    )
    spilled = ClusterConfig(
        "cm-ssd", servers=1, platform=paper_cxl_platform(), app=app,
        dram_fraction=1.0, memory_restriction=0.05,
    )
    t_spill = total_time(spilled)
    return CostModelInputs(
        r_d=t_spill / total_time(mmem),
        r_c=t_spill / total_time(cxl),
    )
