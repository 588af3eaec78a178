"""The analytical fast path: closed-form steady states next to the DES.

The paper's steady-state sweeps (figs 3-5, 8) converge to fixed points
of one self-consistency map over the ``repro.hw`` bandwidth/latency
knots; this package solves that map directly instead of simulating
every event, at a >=25x per-point speedup with calibrated, pinned
error bounds:

* :mod:`~repro.analytic.model` — the shared fixed-point solver and the
  single-flow closed form over :class:`~repro.hw.bandwidth.
  PeakBandwidthCurve` knots;
* :mod:`~repro.analytic.mlc` — bit-exact loaded-latency curves
  (fig3/fig4);
* :mod:`~repro.analytic.keydb` — the KeyDB steady-state model
  (fig5/fig8);
* :mod:`~repro.analytic.select` — the ``--backend auto`` routing
  policy (steady states -> analytic, transients -> DES);
* :mod:`~repro.analytic.validate` — the DES-vs-analytic calibration
  grid and the pinned per-metric tolerances.
"""

from .model import (
    ANALYTIC_MODEL_VERSION,
    FixedPoint,
    chain_capacity,
    single_flow_operating_point,
    solve_fixed_point,
)
from .mlc import AnalyticMlcProbe
from .keydb import (
    analytic_keydb_config,
    analytic_keydb_cxl_only,
    scrambled_key_pmf,
    zipf_rank_pmf,
)
from .select import (
    ANALYTIC_TARGETS,
    BACKENDS,
    estimated_events_avoided,
    require_analytic,
    routing_summary,
    select_backend,
)
from .validate import (
    DEFAULT_FIG5_CELLS,
    PINNED_TOLERANCES,
    CalibrationReport,
    MetricError,
    run_calibration,
)

__all__ = [
    "ANALYTIC_MODEL_VERSION",
    "ANALYTIC_TARGETS",
    "AnalyticMlcProbe",
    "BACKENDS",
    "CalibrationReport",
    "DEFAULT_FIG5_CELLS",
    "FixedPoint",
    "MetricError",
    "PINNED_TOLERANCES",
    "analytic_keydb_config",
    "analytic_keydb_cxl_only",
    "chain_capacity",
    "estimated_events_avoided",
    "require_analytic",
    "routing_summary",
    "run_calibration",
    "scrambled_key_pmf",
    "select_backend",
    "single_flow_operating_point",
    "solve_fixed_point",
    "zipf_rank_pmf",
]
