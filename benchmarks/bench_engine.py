"""Engine hot-path microbenchmark: events dispatched per second.

Exercises the two primitives the engine's users lean on — timeout
storms and contended ``Resource`` request/release — and reports raw
events/second plus a *normalized score*: engine events per unit of a
pure-Python calibration loop.  The normalized score is what ``--check``
guards; dividing out the calibration loop makes the threshold (roughly)
hardware independent, so the same baseline works on a laptop and in CI.

Usage::

    python benchmarks/bench_engine.py            # print measurements
    python benchmarks/bench_engine.py --check    # exit 1 on >20% regression

The baseline below was recorded after the ``__slots__``/cached-resume
hot-path work; re-record it (``--print-baseline``) whenever the engine
is deliberately made faster so the check keeps teeth.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.sim.engine import Simulator
from repro.sim.resources import Resource

#: Normalized scores (engine events per calibration op) recorded on the
#: reference run.  ``--check`` fails when a measured score drops more
#: than ``CHECK_TOLERANCE`` below its baseline.
BASELINE_SCORES = {
    "timeout_storm": 0.06,
    "resource_contention": 0.06,
}

#: Allowed fractional regression of the normalized score.
CHECK_TOLERANCE = 0.20


def calibration_ops_per_s(iters: int = 400_000) -> float:
    """Ops/second of a fixed pure-Python loop (machine-speed yardstick).

    The loop mixes attribute-free arithmetic, dict stores and function
    calls — the same interpreter-bound work the engine's dispatch loop
    is made of — so engine-events-per-calibration-op stays stable
    across machines of different absolute speed.
    """

    def _unit(i: int, d: dict) -> int:
        d[i & 1023] = i
        return i + 1

    d: dict = {}
    start = time.perf_counter()
    total = 0
    for i in range(iters):
        total += _unit(i, d)
    elapsed = time.perf_counter() - start
    assert total > 0
    return iters / elapsed


def _drain(sim: Simulator) -> int:
    """Run the heap dry; returns the number of events scheduled."""
    sim.run()
    return sim._seq


def timeout_storm(processes: int = 200, rounds: int = 50) -> Simulator:
    """Pure dispatch: many processes, each a chain of timeouts."""
    sim = Simulator()

    def worker(delay: float):
        for _ in range(rounds):
            yield sim.timeout(delay)

    for i in range(processes):
        sim.process(worker(1.0 + (i % 7)), label="storm")
    return sim


def resource_contention(processes: int = 120, rounds: int = 40) -> Simulator:
    """Request/hold/release against a contended resource."""
    sim = Simulator()
    resource = Resource(sim, capacity=8)

    def worker(delay: float):
        for _ in range(rounds):
            yield resource.request()
            yield sim.timeout(delay)
            resource.release()

    for i in range(processes):
        sim.process(worker(1.0 + (i % 5)), label="contend")
    return sim


WORKLOADS = {
    "timeout_storm": timeout_storm,
    "resource_contention": resource_contention,
}


def measure(repeats: int = 3) -> dict:
    """Best-of-``repeats`` events/second per workload."""
    rates = {}
    for name, build in WORKLOADS.items():
        best = 0.0
        for _ in range(repeats):
            sim = build()
            start = time.perf_counter()
            events = _drain(sim)
            elapsed = time.perf_counter() - start
            best = max(best, events / elapsed)
        rates[name] = best
    return rates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any normalized score regresses "
                             f"more than {CHECK_TOLERANCE:.0%} vs baseline")
    parser.add_argument("--print-baseline", action="store_true",
                        help="emit a BASELINE_SCORES block for this machine")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per workload (best-of)")
    args = parser.parse_args(argv)

    calib = calibration_ops_per_s()
    rates = measure(repeats=max(1, args.repeats))
    scores = {name: rate / calib for name, rate in rates.items()}

    print(f"calibration loop: {calib / 1e6:.2f} Mops/s")
    for name, rate in rates.items():
        print(f"{name:20s} {rate / 1e6:6.2f} Mevents/s   "
              f"score {scores[name]:.3f} "
              f"(baseline {BASELINE_SCORES[name]:.3f})")

    if args.print_baseline:
        print("\nBASELINE_SCORES = {")
        for name, score in scores.items():
            print(f'    "{name}": {score:.2f},')
        print("}")

    if args.check:
        failed = False
        for name, score in scores.items():
            floor = BASELINE_SCORES[name] * (1.0 - CHECK_TOLERANCE)
            if score < floor:
                print(f"FAIL: {name} normalized score {score:.3f} < "
                      f"floor {floor:.3f} "
                      f"(baseline {BASELINE_SCORES[name]:.3f})",
                      file=sys.stderr)
                failed = True
        if failed:
            return 1
        print("check ok: all normalized scores within "
              f"{CHECK_TOLERANCE:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
