"""Spark-like shuffle engine: the paper's §4.2 application study."""

from .cluster import SPARK_CONFIGS, ClusterConfig, build_cluster_config, tier_bandwidths
from .executor import ExecutorSpec, SparkAppSpec
from .experiment import (
    CostModelInputs,
    measure_cost_model_inputs,
    run_spark_config,
)
from .job import PhaseCosts, QueryResult, SparkQueryRunner, StageResult
from .shuffle import SpillPlan, network_time_ns, plan_spill, ssd_time_ns

__all__ = [
    "SPARK_CONFIGS",
    "ClusterConfig",
    "build_cluster_config",
    "tier_bandwidths",
    "ExecutorSpec",
    "SparkAppSpec",
    "CostModelInputs",
    "measure_cost_model_inputs",
    "run_spark_config",
    "PhaseCosts",
    "QueryResult",
    "SparkQueryRunner",
    "StageResult",
    "SpillPlan",
    "network_time_ns",
    "plan_spill",
    "ssd_time_ns",
]
