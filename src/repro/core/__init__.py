"""The paper's contributions: Abstract Cost Model, spare-core revenue
model, bandwidth-aware placement, and the configuration advisor."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "Advice": ".advisor",
    "ConfigAdvisor": ".advisor",
    "Severity": ".advisor",
    "WorkloadProfile": ".advisor",
    "AbstractCostModel": ".cost_model",
    "CostEstimate": ".cost_model",
    "SweepPoint": ".cost_sweep",
    "ClassPlan": ".fleet",
    "FleetPlan": ".fleet",
    "FleetPlanner": ".fleet",
    "WorkloadClass": ".fleet",
    "fixed_cost_r_t": ".cost_sweep",
    "sweep_c": ".cost_sweep",
    "sweep_r_c": ".cost_sweep",
    "sweep_r_t": ".cost_sweep",
    "BandwidthAwarePlacer": ".placement",
    "PoolSavingsModel": ".pooling",
    "PlacementReport": ".placement",
    "SplitPoint": ".placement",
    "PROCESSOR_SERIES": ".vcpu",
    "SpareCoreModel": ".vcpu",
})
