"""The analytical fast path: closed-form KeyDB steady states next to the DES.

The paper's KeyDB sweeps (figs 5 and 8) converge to fixed points of one
self-consistency map over the ``repro.hw`` bandwidth/latency knots;
this package iterates that map directly instead of simulating every
event, at a >=25x per-point speedup with calibrated, pinned error
bounds.  A fig5/fig8 point names its model in ``params["backend"]``,
and its one task (:mod:`repro.parallel.tasks`) imports this package
only when that model is ``"analytic"``.  The fig3/fig4 loaded-latency
curves have no analytic model: every backend runs the allocator-backed
:class:`~repro.workloads.mlc.MlcProbe`.

* :mod:`~repro.analytic.keydb` — the KeyDB steady-state model
  (fig5/fig8), with its own undamped fixed-point loop;
* :mod:`~repro.analytic.select` — the ``--backend auto`` routing
  policy (steady states -> analytic, transients -> DES);
* :mod:`~repro.analytic.validate` — the DES-vs-analytic calibration
  grid and the pinned per-metric tolerances.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ANALYTIC_TARGETS": ".select",
    "BACKENDS": ".select",
    "CalibrationReport": ".validate",
    "DEFAULT_FIG5_CELLS": ".validate",
    "MetricError": ".validate",
    "PINNED_TOLERANCES": ".validate",
    "analytic_keydb_config": ".keydb",
    "analytic_keydb_cxl_only": ".keydb",
    "require_analytic": ".select",
    "routing_summary": ".select",
    "run_calibration": ".validate",
    "scrambled_key_pmf": ".keydb",
    "select_backend": ".select",
    "zipf_rank_pmf": ".keydb",
})
