"""Spark-like shuffle engine: the paper's §4.2 application study."""

from ..._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "SPARK_CONFIGS": ".cluster",
    "ClusterConfig": ".cluster",
    "build_cluster_config": ".cluster",
    "tier_bandwidths": ".cluster",
    "ExecutorSpec": ".executor",
    "SparkAppSpec": ".executor",
    "CostModelInputs": ".experiment",
    "measure_cost_model_inputs": ".experiment",
    "run_spark_config": ".experiment",
    "PhaseCosts": ".job",
    "QueryResult": ".job",
    "SparkQueryRunner": ".job",
    "StageResult": ".job",
    "SpillPlan": ".shuffle",
    "network_time_ns": ".shuffle",
    "plan_spill": ".shuffle",
    "ssd_time_ns": ".shuffle",
})
