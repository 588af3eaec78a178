"""Sweep-cache benchmark: warm-run speedup over a cold run.

Runs the quick Fig. 5 grid twice against a throwaway cache directory:
once cold (every point executes and is persisted) and once warm (every
point is served from the content-addressed store without executing).
Reports both wall times and the warm-vs-cold speedup, and verifies the
two invariants the cache promises:

* the warm run executes **zero** points (100% hits), and
* the merged ``repro.metrics/v1`` export is byte-identical either way.

The guarded quantity is a ratio of two runs on the same machine, so it
needs no calibration loop and is hardware independent by construction.

Usage::

    python benchmarks/bench_sweep_cache.py            # print measurements
    python benchmarks/bench_sweep_cache.py --check    # exit 1 below the floor
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time

from repro.analysis.figures import fig5_sweep_spec
from repro.cache import SweepCache
from repro.parallel import merged_metrics_json, run_sweep

#: Minimum warm-vs-cold speedup ``--check`` enforces.  Observed ~30x on
#: the reference machine for the quick Fig. 5 grid; 5x leaves headroom
#: for slow filesystems while still catching a cache that re-executes.
SPEEDUP_FLOOR = 5.0


def _run(cache: SweepCache):
    """One quick Fig. 5 sweep through ``cache``; returns (result, secs)."""
    spec = fig5_sweep_spec(record_count=16_384, total_ops=20_000)
    start = time.perf_counter()
    result = run_sweep(spec, workers=1, cache=cache)
    return result, time.perf_counter() - start


def measure(root: str) -> dict:
    """Cold + warm quick-fig5 runs against a cache rooted at ``root``."""
    cold, cold_s = _run(SweepCache(root=root))
    warm, warm_s = _run(SweepCache(root=root))

    n = len(cold.results)
    cold_stats = cold.cache_stats
    warm_stats = warm.cache_stats
    assert cold_stats is not None and warm_stats is not None
    if cold_stats.misses != n or cold_stats.hits != 0:
        raise AssertionError(
            f"cold run expected {n} misses / 0 hits, got "
            f"{cold_stats.misses} misses / {cold_stats.hits} hits"
        )
    if warm_stats.hits != n or warm_stats.misses != 0:
        raise AssertionError(
            f"warm run expected {n} hits / 0 misses, got "
            f"{warm_stats.hits} hits / {warm_stats.misses} misses"
        )
    if not all(pr.cached for pr in warm.results):
        raise AssertionError("warm run executed at least one point")

    cold_json = merged_metrics_json(
        [(pr.key, pr.value["metrics"]) for pr in cold.results]
    )
    warm_json = merged_metrics_json(
        [(pr.key, pr.value["metrics"]) for pr in warm.results]
    )
    if cold_json != warm_json:
        raise AssertionError("warm merged export differs from cold run")

    return {
        "points": n,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the warm-run speedup is below "
                             f"{SPEEDUP_FLOOR:.0f}x")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        m = measure(root)

    print(f"quick fig5 grid: {m['points']} points")
    print(f"cold run: {m['cold_s']:7.2f} s")
    print(f"warm run: {m['warm_s']:7.2f} s")
    print(f"speedup:  {m['speedup']:7.1f}x  (floor {SPEEDUP_FLOOR:.0f}x)")
    print("warm run served 100% from cache; merged export byte-identical")

    if args.check and m["speedup"] < SPEEDUP_FLOOR:
        print(f"FAIL: warm speedup {m['speedup']:.1f}x < "
              f"floor {SPEEDUP_FLOOR:.0f}x", file=sys.stderr)
        return 1
    if args.check:
        print(f"check ok: warm speedup above {SPEEDUP_FLOOR:.0f}x floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
