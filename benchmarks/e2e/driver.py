"""One benchmark command: a stock sweep in a fresh interpreter.

Makes the same public calls as ``repro sweep``, in the same order:
:func:`repro.cli.stock_sweep_spec`, then :func:`repro.parallel.run_sweep`
with a :class:`repro.cache.SweepCache` (or none) and a default
:class:`repro.parallel.SupervisorConfig`, then
:func:`repro.parallel.merge_metrics_documents`, then ``json.dumps``.
The merged export is written to ``--export`` byte for byte as
``repro sweep --json`` prints it.  The phases are timed from outside
the program, and one JSON line of timings and counters goes to stdout.

``--trace PATH`` additionally runs the whole command under cProfile and
keeps spans in memory (each point, each cache call).  At the end it
writes the self time and call count per ``src/repro`` package, plus the
spans, to PATH.  Only this process is profiled: with ``--workers 2`` the
points run in spawned workers and appear only as spans.

Run it through ``run.py``, which sets ``PYTHONPATH`` and
``REPRO_CACHE_DIR``::

    python benchmarks/e2e/driver.py fig5 --quick --backend des --no-cache \\
        --seed 0xC0FFEE --export out/fig5.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: Layers of the per-layer breakdown: ``src/repro`` packages, with
#: ``apps`` split per application.  Code in any other ``repro`` module
#: (the CLI, ``errors``, ``faults``, ``serve`` ...) and in the harness
#: itself counts as ``other``.
LAYERS = (
    "workloads", "apps.kvstore", "apps.spark", "apps.llm", "mem", "sim",
    "overload", "hw", "analytic", "analysis", "obs", "core", "parallel",
    "cache", "other",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("target")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--backend", default="des")
    parser.add_argument("--mode", default="controlled")
    parser.add_argument("--seed", type=lambda text: int(text, 0), default=0xC0FFEE)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--export", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit at the call into run_sweep (a set-up sample)")
    return parser.parse_args(argv)


class _Spans:
    """Spans kept in memory: (name, parent, start_s, end_s)."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.items = []

    def add(self, name: str, parent: str, start: float, end: float) -> None:
        self.items.append((name, parent, start - self.origin, end - self.origin))

    def wrap(self, obj, method: str, parent: str) -> None:
        """Time every call of ``obj.method`` (on this instance only)."""
        inner = getattr(obj, method)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.add(f"cache.{method}", parent, start, time.perf_counter())

        setattr(obj, method, timed)


def _layer_of(filename: str, repro_dir: str):
    """The layer of one profiled function; None outside ``src/repro``."""
    if not filename.startswith(repro_dir):
        return None
    parts = os.path.relpath(filename, repro_dir).split(os.sep)
    name = parts[0] if len(parts) > 1 else ""
    if name == "apps" and len(parts) > 2:
        name = f"apps.{parts[1]}"
    return name if name in LAYERS else "other"


def layer_totals(stats, repro_dir: str):
    """Self seconds and calls per layer from ``pstats.Stats.stats``.

    Time in functions outside ``src/repro`` (C builtins, numpy, the
    standard library, the import machinery, waits on worker pipes) is
    charged to the nearest ``repro`` caller: split over the direct
    callers by the time each call edge spent in the function, and above
    that in proportion to each edge's cumulative time.  Time with no
    ``repro`` caller counts as ``other``.
    """
    owners = {}

    def owner(func):
        """Layer weights of the ``repro`` code a function runs on behalf of."""
        layer = _layer_of(func[0], repro_dir)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func] or {"other": 1.0}  # None: a call cycle
        owners[func] = None
        callers = stats[func][4]
        total = sum(edge[3] for edge in callers.values())
        weights = {}
        for caller, edge in callers.items():
            if total > 0 and caller in stats:
                for name, share in owner(caller).items():
                    weights[name] = weights.get(name, 0.0) + share * edge[3] / total
        owners[func] = weights or {"other": 1.0}
        return owners[func]

    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        own = _layer_of(func[0], repro_dir)
        if own is not None:
            totals[own]["self_s"] += tt
            totals[own]["calls"] += nc
            continue
        charged = 0.0
        for caller, edge in callers.items():
            if caller in stats:
                for name, share in owner(caller).items():
                    totals[name]["self_s"] += edge[2] * share
                charged += edge[2]
        totals["other"]["self_s"] += max(0.0, tt - charged)
    return totals


def _ycsb_ops(stats) -> int:
    """Calls of ``YcsbGenerator.next_operation`` (one per YCSB op drawn)."""
    suffix = os.path.join("workloads", "ycsb.py")
    return sum(
        nc for (filename, _line, name), (_cc, nc, *_rest) in stats.items()
        if name == "next_operation" and filename.endswith(suffix)
    )


def main(argv=None) -> int:
    args = _parse(argv)
    profiler = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    spans = _Spans()
    phases = {}

    start = time.perf_counter()
    import repro.cli
    from repro.parallel import SupervisorConfig, merge_metrics_documents, run_sweep

    phases["import_s"] = time.perf_counter() - start
    spans.add("import", "driver", start, start + phases["import_s"])

    start = time.perf_counter()
    spec = repro.cli.stock_sweep_spec(
        args.target, quick=args.quick, seed=args.seed, mode=args.mode,
        backend=args.backend,
    )
    cache = None
    if not args.no_cache:
        # Imported only here, as the CLI does: a --no-cache run never
        # loads repro.cache.
        from repro.cache import SweepCache

        cache = SweepCache()
    phases["spec_s"] = time.perf_counter() - start
    spans.add("spec", "driver", start, start + phases["spec_s"])

    progress = None
    if profiler is not None:
        if cache is not None:
            for method in ("key_for", "lookup", "put"):
                spans.wrap(cache, method, "run_sweep")

        def progress(done, total, result):
            end = time.perf_counter()
            spans.add(f"point {result.key}", "run_sweep",
                      end - result.elapsed_s, end)

    sweep_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"sweep_call": sweep_call}))
        return 0
    start = time.perf_counter()
    sweep = run_sweep(spec, workers=args.workers, progress=progress,
                      cache=cache, supervise=SupervisorConfig())
    phases["run_sweep_s"] = time.perf_counter() - start
    spans.add("run_sweep", "driver", start, start + phases["run_sweep_s"])

    start = time.perf_counter()
    merged = merge_metrics_documents(
        [(pr.key, pr.value["metrics"]) for pr in sweep.results if pr.ok],
        generated_by=f"repro sweep {args.target}",
    )
    phases["merge_s"] = time.perf_counter() - start
    spans.add("merge", "driver", start, start + phases["merge_s"])

    start = time.perf_counter()
    text = json.dumps(merged, indent=2) + "\n"
    with open(args.export, "w", encoding="utf-8") as fh:
        fh.write(text)
    phases["export_s"] = time.perf_counter() - start
    spans.add("export", "driver", start, start + phases["export_s"])
    done = time.monotonic()
    if profiler is not None:
        profiler.disable()

    report = {
        "sweep_call": sweep_call,
        "done": done,
        **phases,
        "export_bytes": len(text.encode("utf-8")),
        "points": len(sweep.results),
        "failed": sum(1 for pr in sweep.results if not pr.ok),
        "executed_elapsed_s": [
            pr.elapsed_s for pr in sweep.results if pr.ok and not pr.cached
        ],
        "workers": sweep.workers,
        "cache": sweep.cache_stats.as_dict() if sweep.cache_stats else None,
        "retries": sweep.runner_health.retries,
        "worker_restarts": sweep.runner_health.worker_restarts,
    }
    if profiler is not None:
        import pstats

        from repro.analytic.select import select_backend

        stats = pstats.Stats(profiler).stats
        repro_dir = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        routed = [
            select_backend(args.target, point.params)
            if args.backend == "auto" else args.backend
            for point in spec.points
        ]
        trace = {
            "spans": [
                {"name": name, "parent": parent, "start_s": s, "end_s": e}
                for name, parent, s, e in spans.items
            ],
            "layers": layer_totals(stats, repro_dir),
            "ycsb_ops": _ycsb_ops(stats),
            "backend_points": {
                "analytic": routed.count("analytic"),
                "des": routed.count("des"),
            },
        }
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
