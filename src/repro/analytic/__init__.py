"""The analytical fast path: closed-form KeyDB steady states next to the DES.

The paper's KeyDB sweeps (figs 5 and 8) converge to fixed points of one
self-consistency map over the ``repro.hw`` bandwidth/latency knots;
this package solves that map directly instead of simulating every
event, at a >=25x per-point speedup with calibrated, pinned error
bounds.  A fig5/fig8 point names its model in ``params["backend"]``,
and its one task (:mod:`repro.parallel.tasks`) imports this package
only when that model is ``"analytic"``.  The fig3/fig4 loaded-latency
curves have no analytic model: every backend runs the allocator-backed
:class:`~repro.workloads.mlc.MlcProbe`.

* :mod:`~repro.analytic.model` — a generic damped fixed-point solver;
* :mod:`~repro.analytic.keydb` — the KeyDB steady-state model
  (fig5/fig8);
* :mod:`~repro.analytic.select` — the ``--backend auto`` routing
  policy (steady states -> analytic, transients -> DES);
* :mod:`~repro.analytic.validate` — the DES-vs-analytic calibration
  grid and the pinned per-metric tolerances.
"""

from .model import FixedPoint, solve_fixed_point
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
    "ANALYTIC_TARGETS",
    "BACKENDS",
    "CalibrationReport",
    "DEFAULT_FIG5_CELLS",
    "FixedPoint",
    "MetricError",
    "PINNED_TOLERANCES",
    "analytic_keydb_config",
    "analytic_keydb_cxl_only",
    "estimated_events_avoided",
    "require_analytic",
    "routing_summary",
    "run_calibration",
    "scrambled_key_pmf",
    "select_backend",
    "solve_fixed_point",
    "zipf_rank_pmf",
]
