"""The DES-vs-analytic golden grid: pinned per-metric error bounds.

Runs the calibration grid (a fig5 cell per configuration family x
workload shape, both fig8 halves) on *both* KeyDB models and asserts
every comparison honors :data:`repro.analytic.validate.
PINNED_TOLERANCES`.  A model regression — in either backend — moves a
metric past its pinned bound and fails here, instead of silently
shifting published curves.

Wall-clock (the speedup floor) is deliberately *not* asserted here:
timing under pytest is noisy, and ``benchmarks/bench_analytic.py
--check`` gates it in its own CI job.
"""

import pytest

from repro.analytic import (
    DEFAULT_FIG5_CELLS,
    PINNED_TOLERANCES,
    run_calibration,
)

# Half the default quick scale keeps the DES side of the grid fast
# while exercising every model term (flash spill, recency mix, RMW).
RECORD_COUNT = 16_384
TOTAL_OPS = 20_000
SEED = 0xC0FFEE


@pytest.fixture(scope="module")
def report():
    return run_calibration(
        record_count=RECORD_COUNT, total_ops=TOTAL_OPS, seed=SEED,
    )


class TestGoldenGrid:
    def test_every_metric_within_pinned_tolerance(self, report):
        violations = report.violations()
        detail = "; ".join(
            f"{v.key}@{v.point}: rel {v.rel_error:.4f} "
            f"(des {v.des:.6g}, analytic {v.analytic:.6g})"
            for v in violations
        )
        assert report.ok, f"tolerance violations: {detail}"

    def test_grid_covers_every_pinned_metric(self, report):
        observed = {err.key for err in report.errors}
        assert observed == set(PINNED_TOLERANCES)

    def test_fig8_is_float_exact(self, report):
        fig8 = [e for e in report.errors if e.figure == "fig8"]
        assert fig8
        assert all(e.rel_error < 1e-6 for e in fig8)

    def test_worst_reports_one_entry_per_metric(self, report):
        worst = report.worst()
        assert set(worst) == set(PINNED_TOLERANCES)
        for key, err in worst.items():
            assert err.key == key
            assert err.rel_error <= PINNED_TOLERANCES[key]

    def test_grid_includes_every_configuration_family(self):
        configs = {c for c, _ in DEFAULT_FIG5_CELLS}
        assert {"mmem", "hot-promote"} <= configs
        assert any(c.startswith("mmem-ssd") for c in configs)
        assert any(":" in c for c in configs)
        workloads = {w for _, w in DEFAULT_FIG5_CELLS}
        assert {"A", "C", "D"} <= workloads


class TestFig8Warmup:
    def test_both_backends_discard_the_same_warmup(self):
        """Fig. 8's two backends measure the same ops at quick scale.

        A warmup changed on one backend only would split the DES and
        analytic Fig. 8 cells without moving their steady-state ratios.
        """
        from repro.analytic import analytic_keydb_cxl_only
        from repro.apps.kvstore import run_keydb_cxl_only

        des = run_keydb_cxl_only(True, 20_480, TOTAL_OPS, SEED)
        analytic = analytic_keydb_cxl_only(True, 20_480, TOTAL_OPS, SEED)
        assert des.ops == analytic.ops == 18_000
