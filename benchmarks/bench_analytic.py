"""Analytical fast path benchmark: per-point speedup and error bounds.

Runs the ``--backend auto`` analytic portion of the quick Fig. 5 grid
— every calibration cell except ``hot-promote``, which auto keeps on
the DES because its figure of merit is the migration transient — on
*both* backends, and reports:

* per-cell wall clock for the DES and the (warm) analytic model,
* per-cell relative error on throughput and read p50/p99, and
* the aggregate DES-seconds-per-analytic-second speedup.

``--check`` enforces the two contracts the fast path ships with:

* **speedup floor**: aggregate speedup >= 25x (observed 40-46x on the
  reference machine; individual cells range ~20x-65x since pricing
  KeyDB epochs as arrays made the DES cells another 2-4x faster), and
* **error ceiling**: every comparison within the pinned tolerances of
  :data:`repro.analytic.validate.PINNED_TOLERANCES` — the same bounds
  the golden-grid test pins, so CI fails loudly if a model change
  trades accuracy for speed.

The analytic caches (zipf pmf, shared platform) are warmed with one
throwaway call first: the guarded quantity is the *warm* per-point
cost, which is what a long sweep amortizes to.

Usage::

    python benchmarks/bench_analytic.py            # print measurements
    python benchmarks/bench_analytic.py --check    # exit 1 outside bounds
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analytic.select import select_backend
from repro.analytic.validate import (
    DEFAULT_FIG5_CELLS,
    PINNED_TOLERANCES,
    MetricError,
)
from repro.parallel import tasks

#: Aggregate warm-speedup floor ``--check`` enforces.
SPEEDUP_FLOOR = 25.0

RECORD_COUNT = 16_384
TOTAL_OPS = 20_000
SEED = 0xC0FFEE


def _auto_analytic_cells():
    """The fig5 calibration cells ``--backend auto`` routes analytic."""
    return [
        (config, workload)
        for config, workload in DEFAULT_FIG5_CELLS
        if select_backend("fig5", {"config": config}) == "analytic"
    ]


def _metrics(result):
    tails = result.tail_latencies_us()
    return {
        "throughput_ops_per_s": result.throughput_ops_per_s,
        "read_p50_us": tails["p50"],
        "read_p99_us": tails["p99"],
    }


def measure() -> dict:
    cells = _auto_analytic_cells()
    # Warm the zipf-pmf / shared-platform caches off the clock.
    warm_params = {"config": cells[0][0], "workload": cells[0][1],
                   "record_count": RECORD_COUNT, "total_ops": TOTAL_OPS}
    tasks.fig5_cell_analytic(warm_params, SEED)

    rows = []
    errors = []
    des_total = ana_total = 0.0
    for config, workload in cells:
        params = {"config": config, "workload": workload,
                  "record_count": RECORD_COUNT, "total_ops": TOTAL_OPS}
        t0 = time.perf_counter()
        des = tasks.fig5_cell(params, SEED)
        t1 = time.perf_counter()
        ana = tasks.fig5_cell_analytic(params, SEED)
        t2 = time.perf_counter()
        des_s, ana_s = t1 - t0, t2 - t1
        des_total += des_s
        ana_total += ana_s
        dm, am = _metrics(des), _metrics(ana)
        cell_errors = [
            MetricError("fig5", f"{workload}/{config}", metric,
                        dm[metric], am[metric])
            for metric in dm
        ]
        errors.extend(cell_errors)
        rows.append({
            "cell": f"{workload}/{config}",
            "des_s": des_s,
            "ana_s": ana_s,
            "speedup": des_s / ana_s if ana_s > 0 else float("inf"),
            "thr_err": cell_errors[0].rel_error,
        })

    violations = [
        err for err in errors
        if err.rel_error > PINNED_TOLERANCES.get(err.key, 0.0)
    ]
    return {
        "rows": rows,
        "violations": violations,
        "des_total_s": des_total,
        "ana_total_s": ana_total,
        "speedup": des_total / ana_total if ana_total > 0 else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the aggregate warm speedup falls "
                             f"below {SPEEDUP_FLOOR:.0f}x or any metric "
                             "exceeds its pinned tolerance")
    args = parser.parse_args(argv)

    m = measure()

    print(f"{'cell':<16} {'des':>9} {'analytic':>10} {'speedup':>9} "
          f"{'thr err':>8}")
    for row in m["rows"]:
        print(f"{row['cell']:<16} {row['des_s']*1e3:8.1f}ms "
              f"{row['ana_s']*1e6:8.0f}us {row['speedup']:8.0f}x "
              f"{row['thr_err']*100:7.2f}%")
    print(f"aggregate: des {m['des_total_s']:.2f} s, analytic "
          f"{m['ana_total_s']*1e3:.1f} ms -> {m['speedup']:.0f}x "
          f"(floor {SPEEDUP_FLOOR:.0f}x)")

    failed = False
    if m["violations"]:
        failed = True
        for v in m["violations"]:
            print(f"FAIL: {v.key}@{v.point} rel error {v.rel_error:.4f} > "
                  f"{PINNED_TOLERANCES[v.key]}", file=sys.stderr)
    if args.check and m["speedup"] < SPEEDUP_FLOOR:
        failed = True
        print(f"FAIL: aggregate speedup {m['speedup']:.0f}x < "
              f"floor {SPEEDUP_FLOOR:.0f}x", file=sys.stderr)

    if args.check and failed:
        return 1
    if args.check:
        print(f"check ok: speedup above {SPEEDUP_FLOOR:.0f}x floor, every "
              "metric within its pinned tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
