"""Calibration of the analytical backend against the DES.

The fast path earns its routing table (:mod:`repro.analytic.select`)
empirically: :func:`run_calibration` runs the same grid of KeyDB
points through *both* models (:func:`~repro.apps.kvstore.
run_keydb_config` vs :func:`~repro.analytic.keydb.analytic_keydb_config`
for fig5, the ``cxl_only`` pair for fig8), records the per-metric
relative error and the per-model wall clock, and
:data:`PINNED_TOLERANCES` pins the error every metric is allowed — with
margin over the observed worst case, so a model regression fails the
golden-grid test rather than silently shifting published curves.

Observed errors at the quick calibration scale (record_count 16 384,
total_ops 20 000, seed ``0xC0FFEE``):

* fig5 throughput: worst cell +1.7 % (``mmem-ssd-0.2/D``); most cells
  within 0.5 %;
* fig5 read p50/p99: within one latency-histogram bucket (the
  histogram's growth factor is 1.02, so one bucket is 2 %);
* fig8 throughput and tails: exact to float noise.

The latency-percentile tolerances are therefore *bucket-quantized*:
two buckets (≈4 %) covers a boundary-straddling fill on either side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "PINNED_TOLERANCES",
    "DEFAULT_FIG5_CELLS",
    "MetricError",
    "CalibrationReport",
    "run_calibration",
]

#: Per-metric relative-error ceilings, keyed ``<figure>:<metric>``.
#: Pinned with margin over the observed worst case (module docstring);
#: the golden-grid test and ``bench_analytic --check`` both gate on
#: these exact numbers.
PINNED_TOLERANCES: Dict[str, float] = {
    "fig5:throughput_ops_per_s": 0.03,
    "fig5:read_p50_us": 0.045,
    "fig5:read_p99_us": 0.045,
    "fig8:throughput_ops_per_s": 0.01,
    "fig8:read_p50_us": 0.045,
    "fig8:read_p99_us": 0.045,
}

#: The fig5 calibration cells: one per configuration family (flat,
#: interleaved, tiered-promotion, flash-backed) crossed with the
#: workload shapes that stress each model term (RMW-heavy A, scan-free
#: C, recency-driven D).
DEFAULT_FIG5_CELLS: Tuple[Tuple[str, str], ...] = (
    ("mmem", "A"),
    ("1:1", "A"),
    ("1:3", "C"),
    ("hot-promote", "A"),
    ("mmem-ssd-0.2", "A"),
    ("mmem-ssd-0.4", "C"),
    ("1:1", "D"),
    ("mmem-ssd-0.2", "D"),
)


@dataclass(frozen=True)
class MetricError:
    """One (point, metric) comparison between the two backends."""

    figure: str
    point: str
    metric: str
    des: float
    analytic: float

    @property
    def rel_error(self) -> float:
        """``|analytic - des| / |des|`` (0 when both are 0)."""
        if self.des == 0.0:
            return 0.0 if self.analytic == 0.0 else float("inf")
        return abs(self.analytic - self.des) / abs(self.des)

    @property
    def key(self) -> str:
        """The tolerance-table key of this comparison."""
        return f"{self.figure}:{self.metric}"


@dataclass
class CalibrationReport:
    """Both backends' answers on the calibration grid, plus timing."""

    errors: List[MetricError] = field(default_factory=list)
    #: Wall clock per backend, summed over the grid (seconds).
    des_elapsed_s: float = 0.0
    analytic_elapsed_s: float = 0.0

    @property
    def speedup(self) -> float:
        """Aggregate DES-seconds per analytic-second on the grid."""
        if self.analytic_elapsed_s <= 0:
            return float("inf")
        return self.des_elapsed_s / self.analytic_elapsed_s

    def worst(self) -> Dict[str, MetricError]:
        """The largest-error comparison per tolerance key."""
        out: Dict[str, MetricError] = {}
        for err in self.errors:
            cur = out.get(err.key)
            if cur is None or err.rel_error > cur.rel_error:
                out[err.key] = err
        return out

    def violations(
        self, tolerances: Optional[Mapping[str, float]] = None
    ) -> List[MetricError]:
        """Comparisons exceeding their pinned tolerance."""
        tol = PINNED_TOLERANCES if tolerances is None else tolerances
        return [
            err for err in self.errors
            if err.rel_error > tol.get(err.key, 0.0)
        ]

    @property
    def ok(self) -> bool:
        """True when every comparison is within its pinned tolerance."""
        return not self.violations()


def _keydb_metrics(result) -> Dict[str, float]:
    tails = result.tail_latencies_us()
    return {
        "throughput_ops_per_s": result.throughput_ops_per_s,
        "read_p50_us": tails["p50"],
        "read_p99_us": tails["p99"],
    }


def _calibrate_fig5(
    report: CalibrationReport,
    cells: Sequence[Tuple[str, str]],
    record_count: int,
    total_ops: int,
    seed: int,
) -> None:
    from ..apps.kvstore import run_keydb_config
    from .keydb import analytic_keydb_config

    for config, workload in cells:
        kwargs = {"workload": workload, "record_count": record_count,
                  "total_ops": total_ops, "seed": seed}
        t0 = time.perf_counter()
        des = run_keydb_config(config, **kwargs)
        t1 = time.perf_counter()
        ana = analytic_keydb_config(config, **kwargs)
        t2 = time.perf_counter()
        report.des_elapsed_s += t1 - t0
        report.analytic_elapsed_s += t2 - t1
        dm, am = _keydb_metrics(des), _keydb_metrics(ana)
        for metric in dm:
            report.errors.append(MetricError(
                "fig5", f"{workload}/{config}", metric, dm[metric], am[metric]
            ))


def _calibrate_fig8(
    report: CalibrationReport, record_count: int, total_ops: int, seed: int
) -> None:
    from ..apps.kvstore import run_keydb_cxl_only
    from .keydb import analytic_keydb_cxl_only

    for on_cxl in (False, True):
        t0 = time.perf_counter()
        des = run_keydb_cxl_only(on_cxl, record_count, total_ops, seed)
        t1 = time.perf_counter()
        ana = analytic_keydb_cxl_only(on_cxl, record_count, total_ops, seed)
        t2 = time.perf_counter()
        report.des_elapsed_s += t1 - t0
        report.analytic_elapsed_s += t2 - t1
        dm, am = _keydb_metrics(des), _keydb_metrics(ana)
        for metric in dm:
            report.errors.append(MetricError(
                "fig8", "cxl" if on_cxl else "mmem", metric,
                dm[metric], am[metric],
            ))


def run_calibration(
    fig5_cells: Sequence[Tuple[str, str]] = DEFAULT_FIG5_CELLS,
    record_count: int = 16_384,
    total_ops: int = 20_000,
    seed: int = 0xC0FFEE,
    figures: Sequence[str] = ("fig5", "fig8"),
) -> CalibrationReport:
    """Run the calibration grid on both backends; collect the errors.

    The defaults are the quick CI scale; the full-scale sweep uses the
    same code with fig5's full ``(65_536, 100_000)`` grid.  Warm the
    analytic caches first (one throwaway call) when timing matters —
    the report's ``speedup`` otherwise charges one-time pmf/platform
    construction to the first point.
    """
    report = CalibrationReport()
    if "fig5" in figures:
        _calibrate_fig5(report, fig5_cells, record_count, total_ops, seed)
    if "fig8" in figures:
        _calibrate_fig8(report, record_count, total_ops, seed)
    return report
