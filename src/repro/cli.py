"""Command-line interface: regenerate any paper artifact from the shell.

``repro sweep <target>`` runs one stock figure sweep and prints it as the
paper reports it (slowdowns normalized to MMEM, throughput drops, tail
penalties); ``--json`` prints the merged ``repro.metrics/v1`` export
instead::

    repro sweep fig3              # loaded-latency curves (all four distances)
    repro sweep fig5 --quick      # KeyDB YCSB table (scaled)
    repro sweep fig7              # Spark TPC-H normalized times
    repro sweep fig8 --quick      # CXL-only KeyDB pair
    repro sweep fig10             # LLM serving sweep
    repro sweep overload --quick  # offered load vs goodput
    repro sweep fig5 --quick --workers 4 --json   # parallel, merged metrics
    repro tables                  # Tables 1, 2, 3, 4
    repro cost --r-d 10 --r-c 8 --c 2 --r-t 1.1
    repro advise --demand-gbps 55 --write-fraction 0.2
    repro faults list                     # RAS scenario catalog
    repro faults run device-loss --app keydb --quick --json
    repro overload faults --quick         # shedding vs uncontrolled
    repro metrics --quick --json          # metrics-registry snapshot
    repro trace --quick                   # per-layer latency breakdown
    repro cache stats                     # result-cache shape
    repro cache verify                    # integrity-scan every entry
    repro serve --port 8023               # HTTP what-if job service

Sweep-shaped commands (``sweep``, ``faults run``) take ``--workers N``
to fan independent points across supervised processes;
``$REPRO_WORKERS`` sets the default.  Parallel results are bit-identical
to serial ones.  The same commands take ``--point-timeout S`` (kill and
retry a point past its deadline), ``--retries N`` (bounded retry of
crashes, deadline kills and transient errors, with exponential backoff)
and ``--fail-fast``; a one-line health summary lands on stderr.  Ctrl-C
or SIGTERM drains gracefully: completed points persist to the cache,
one stderr line (``interrupted: sweep 'fig5' drained on SIGINT: k/n
points completed and persisted``) records the cut, and exit is 130.

The same commands memoize completed points in a content-addressed
on-disk cache (``$REPRO_CACHE_DIR``, default ``~/.cache/repro/sweeps``):
warm re-runs skip execution entirely, interrupted sweeps resume from
the last persisted point, and editing any ``repro`` source invalidates
every stale entry via the code fingerprint.  ``--no-cache`` opts a run
out; ``repro cache {stats,clear,verify}`` maintains the store.

``pytest benchmarks/`` builds each figure the way ``repro sweep`` does
(:func:`stock_sweep_spec`, :func:`~repro.parallel.run_sweep`, the
figure's ``*_from_sweep`` assembler) and asserts the paper's shapes on
it.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from . import __version__
from .errors import ConfigurationError

__all__ = ["main"]


def _open_cache(args: argparse.Namespace):
    """The result cache for one command (None under ``--no-cache``)."""
    if args.no_cache:
        return None
    from .cache import SweepCache

    return SweepCache()


def _supervise(args: argparse.Namespace):
    """The supervisor policy for one sweep-shaped command's flags."""
    from .parallel.supervisor import SupervisorConfig

    return SupervisorConfig(
        point_timeout_s=args.point_timeout,
        max_attempts=args.retries + 1,
        fail_fast=args.fail_fast,
    )


def _cmd_tables(args: argparse.Namespace) -> int:
    from .analysis import TABLE1, TABLE2_HEADERS, TABLE3, TABLE4, ascii_table, table2_rows

    print(ascii_table(["configuration", "description"], TABLE1, title="Table 1"))
    print()
    print(ascii_table(TABLE2_HEADERS, table2_rows(), title="Table 2"))
    print()
    print(ascii_table(["parameter", "description", "example"], TABLE3, title="Table 3"))
    print()
    print(ascii_table(["GH200 tier", "CXL analogue"], TABLE4, title="Table 4"))
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from .analysis import ascii_table
    from .core import AbstractCostModel
    from .errors import CostModelError

    try:
        model = AbstractCostModel(r_d=args.r_d, r_c=args.r_c, c=args.c, r_t=args.r_t)
        est = model.estimate()
        breakeven_r_t = model.breakeven_r_t()
    except CostModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        ascii_table(
            ["quantity", "value"],
            [
                ("N_cxl / N_baseline", f"{est.server_ratio * 100:.2f}%"),
                ("servers saved", f"{est.servers_saved_fraction * 100:.2f}%"),
                ("TCO saving", f"{est.tco_saving * 100:.2f}%"),
                ("breakeven R_t", f"{breakeven_r_t:.3f}"),
            ],
            title="Abstract Cost Model (§6)",
        )
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .analysis import validate_anchors

    checks = validate_anchors()
    failures = 0
    for check in checks:
        mark = "ok " if check.ok else "FAIL"
        print(f"[{mark}] {check.name}: measured {check.measured}, "
              f"expected {check.expected}")
        failures += 0 if check.ok else 1
    print(f"\n{len(checks) - failures}/{len(checks)} anchors hold")
    return 1 if failures else 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core import ConfigAdvisor, WorkloadProfile
    from .hw.presets import paper_cxl_platform
    from .units import gb_per_s

    if not math.isfinite(args.working_set_gib):
        print("error: --working-set-gib must be finite", file=sys.stderr)
        return 2
    advisor = ConfigAdvisor(paper_cxl_platform(snc_enabled=True))
    profile = WorkloadProfile(
        demand_bytes_per_s=gb_per_s(args.demand_gbps),
        write_fraction=args.write_fraction,
        working_set_bytes=int(args.working_set_gib * 2**30),
        locality=args.locality,
        spans_sockets=args.spans_sockets,
    )
    for advice in advisor.advise(profile):
        print(f"[{advice.severity.value:9s}] {advice.code}: {advice.message}")
    return 0


def _cmd_faults_list(args: argparse.Namespace) -> int:
    from .analysis import ascii_table
    from .faults import SCENARIOS

    rows = [
        (s.name, "transient" if s.transient else "permanent", s.description)
        for s in SCENARIOS.values()
    ]
    print(ascii_table(["scenario", "kind", "description"], rows,
                      title="Fault scenarios (RAS layer)"))
    return 0


def _cmd_faults_run(args: argparse.Namespace) -> int:
    import json

    from .analysis import ascii_table
    from .faults import FAULT_APPS, SCENARIOS, fault_sweep_spec
    from .parallel import run_sweep

    if args.backend == "analytic":
        # The fault catalog has no fast path; ``auto`` keeps it on the DES.
        from .analytic.select import require_analytic

        require_analytic("faults")
    if args.scenario not in SCENARIOS:
        print(f"error: unknown fault scenario {args.scenario!r}; expected one "
              f"of {sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    apps = sorted(FAULT_APPS) if args.app == "all" else [args.app]
    spec = fault_sweep_spec(
        args.scenario, apps=apps, seed=args.seed, quick=args.quick
    )
    sweep = run_sweep(spec, workers=args.workers, cache=_open_cache(args),
                      supervise=_supervise(args))
    if sweep.runner_health.any:
        # Robustness telemetry only when eventful: a clean run prints
        # nothing beyond its tables.
        print(f"[faults {args.scenario}] health: "
              f"{sweep.runner_health.summary()}", file=sys.stderr, flush=True)
    for failure in sweep.failures():
        print(f"error: point {failure.key!r} failed: "
              f"{failure.error.type}: {failure.error.message}", file=sys.stderr)
    if not sweep.ok:
        return 1
    payload = []
    for pr in sweep.results:
        summary = pr.value
        if args.json:
            payload.append(summary.as_dict())
            continue
        print(ascii_table(
            ["quantity", "value"], summary.rows(),
            title=f"\n{pr.key} under {args.scenario} (seed {args.seed})",
        ))
        if summary.trace:
            print("fault trace:")
            for line in summary.trace:
                print(f"  {line}")
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


def _cmd_overload_faults(args: argparse.Namespace) -> int:
    import json

    from .analysis import ascii_table
    from .overload import run_fault_comparison

    out = run_fault_comparison(
        scenario=args.scenario,
        duration_ns=20e6 if args.quick else 40e6,
        record_count=4096 if args.quick else 16_384,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps({k: s.as_dict() for k, s in out.items()}, indent=2))
        return 0
    for label, summary in out.items():
        print(ascii_table(
            ["quantity", "value"], summary.rows(),
            title=f"\n{label} under {args.scenario}",
        ))
    return 0


def _observed_run(args: argparse.Namespace, tracing: bool):
    from .obs import run_observed_keydb

    record_count, total_ops = (1_024, 1_500) if args.quick else (4_096, 6_000)
    return run_observed_keydb(
        config=args.config,
        workload=args.workload,
        record_count=record_count,
        total_ops=total_ops,
        seed=args.seed,
        tracing=tracing,
    )


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .analysis import ascii_table

    observed = _observed_run(args, tracing=False)
    registry = observed.registry
    if args.json:
        print(registry.to_json())
        return 0
    if args.csv:
        print(registry.to_csv(), end="")
        return 0
    rows = []
    for sample in registry.samples():
        labels = ";".join(f"{k}={v}" for k, v in sorted(sample.labels.items()))
        value = sample.value
        rows.append(
            (sample.name, sample.kind, labels,
             "nan" if value != value else f"{value:,.6g}")
        )
    print(ascii_table(
        ["name", "kind", "labels", "value"], rows,
        title=f"Metrics snapshot ({args.config} YCSB-{args.workload}, "
              f"{observed.result.ops} ops)",
    ))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .analysis import ascii_table

    if args.limit < 0:
        print("error: --limit must be >= 0", file=sys.stderr)
        return 2
    observed = _observed_run(args, tracing=True)
    tracer = observed.tracer
    if args.json:
        print(json.dumps(tracer.as_dict(limit=args.limit), indent=2))
        return 0
    duration_total = sum(op.duration_ns for op in tracer.ops)
    rows = [
        (layer, f"{count}", f"{ns / 1e6:.3f}",
         f"{100.0 * ns / duration_total:.1f}%" if duration_total else "n/a")
        for layer, (count, ns) in sorted(tracer.layer_totals().items())
    ]
    print(ascii_table(
        ["layer", "spans", "total ms", "share"], rows,
        title=f"Per-layer latency breakdown ({args.config} "
              f"YCSB-{args.workload}, {len(tracer.ops)} traced ops)",
    ))
    check = tracer.validate()
    mark = "ok" if check["within_tolerance"] else "FAIL"
    print(f"\n[{mark}] span sums vs end-to-end latency: "
          f"max relative error {check['max_rel_error']:.2e} "
          f"over {check['ops_checked']} ops")
    return 1 if not check["within_tolerance"] else 0


def _sweep_progress(done: int, total: int, result) -> None:
    if result.ok:
        status = "cached" if result.cached else f"ok ({result.elapsed_s:.2f}s)"
    else:
        status = f"FAIL ({result.error.type})"
    print(f"[{done}/{total}] {result.key}: {status}",
          file=sys.stderr, flush=True)


#: Stock targets of ``repro sweep`` (one spawn-importable task each).
SWEEP_TARGETS = ("fig3", "fig4", "fig5", "fig7", "fig8", "fig10", "overload")


def stock_sweep_spec(
    target: str,
    quick: bool = False,
    seed: int = 0xC0FFEE,
    mode: str = "controlled",
    backend: str = "des",
):
    """The sweep spec for one stock target, at a scale.

    Shared by ``repro sweep``, ``repro serve`` job specs and the chaos
    harness (``python -m repro.parallel.chaos``) so all execute the
    exact same points — which is what makes their exports
    byte-comparable.  ``backend`` picks the KeyDB model of each fig5/fig8
    point (written into its params); fig3/fig4 accept it and run their
    one path.  Forcing ``analytic`` on any other target is a
    configuration error, while ``auto`` quietly keeps transient-shaped
    targets on the DES.
    """
    if backend not in ("des", "analytic", "auto"):
        raise ConfigurationError(
            f"unknown backend {backend!r}; expected one of "
            f"('des', 'analytic', 'auto')"
        )
    if backend == "analytic":
        from .analytic.select import require_analytic

        require_analytic(target)
    if target == "fig3":
        from .analysis.figures import fig3_sweep_spec

        return fig3_sweep_spec(load_points=8 if quick else 24,
                               seed=seed, backend=backend)
    if target == "fig4":
        from .analysis.figures import fig4_sweep_spec

        return fig4_sweep_spec(load_points=8 if quick else 24,
                               seed=seed, backend=backend)
    if target == "fig5":
        from .analysis.figures import fig5_sweep_spec

        scale = (16_384, 20_000) if quick else (65_536, 100_000)
        return fig5_sweep_spec(record_count=scale[0], total_ops=scale[1],
                               seed=seed, backend=backend)
    if target == "fig7":
        from .analysis.figures import fig7_sweep_spec

        return fig7_sweep_spec(seed=seed)
    if target == "fig8":
        from .analysis.figures import fig8_sweep_spec

        scale = (20_480, 20_000) if quick else (102_400, 150_000)
        return fig8_sweep_spec(record_count=scale[0], total_ops=scale[1],
                               seed=seed, backend=backend)
    if target == "fig10":
        from .analysis.figures import fig10_sweep_spec

        return fig10_sweep_spec(
            backend_counts=(1, 2, 3) if quick else (1, 2, 3, 4, 5, 6),
            seed=seed,
        )
    if target == "overload":
        from .overload.runner import offered_load_sweep_spec

        return offered_load_sweep_spec(
            controlled=mode == "controlled",
            duration_ns=20e6 if quick else 40e6,
            record_count=4096 if quick else 16_384,
            seed=seed,
        )
    raise ConfigurationError(
        f"unknown sweep target {target!r}; expected one of {SWEEP_TARGETS}"
    )


# -- the paper's tables ------------------------------------------------------
#
# One printer per ``repro sweep`` target: the figure's assembler in
# repro.analysis.figures (or repro.overload.runner) rebuilds the figure
# from each point's ``value["result"]``, and the printer renders it the way
# the paper reports it.


def _print_fig3(args: argparse.Namespace, spec, sweep) -> None:
    from .analysis import ascii_table
    from .analysis.figures import fig3_from_sweep

    for panel, curves in fig3_from_sweep(spec, sweep).items():
        rows = [
            (mix, f"{c.idle_latency_ns:.1f}", f"{c.peak_bandwidth_gbps:.1f}")
            for mix, c in curves.items()
        ]
        print(ascii_table(["mix", "idle ns", "peak GB/s"], rows,
                          title=f"\nFig. 3 [{panel}]"))


def _print_fig4(args: argparse.Namespace, spec, sweep) -> None:
    from .analysis import ascii_table
    from .analysis.figures import fig4_from_sweep

    for pattern, per_mix in fig4_from_sweep(spec, sweep).items():
        rows = [
            (mix, panel, f"{curve.idle_latency_ns:.1f}",
             f"{curve.peak_bandwidth_gbps:.1f}")
            for mix, panels in per_mix.items()
            for panel, curve in panels.items()
        ]
        print(ascii_table(
            ["mix", "path", "idle ns", "peak GB/s"], rows,
            title=f"\nFig. 4 [{pattern}]",
        ))


def _print_fig5(args: argparse.Namespace, spec, sweep) -> None:
    from .analysis import ascii_table
    from .analysis.figures import fig5_from_sweep

    rows = [
        [config] + [f"{per_wl[w]:.0f}" for w in ("A", "B", "C", "D")]
        for config, per_wl in fig5_from_sweep(spec, sweep).throughput_table()
    ]
    print(ascii_table(["config", "A kops", "B kops", "C kops", "D kops"], rows,
                      title="Fig. 5(a): KeyDB YCSB throughput"))


def _print_fig7(args: argparse.Namespace, spec, sweep) -> None:
    from .analysis import ascii_table
    from .analysis.figures import fig7_from_sweep

    results = fig7_from_sweep(spec, sweep)
    base = {q: r.total_ns for q, r in results["mmem"].items()}
    rows = [
        [name]
        + [f"{per_query[q].total_ns / base[q]:.2f}" for q in sorted(base)]
        + [f"{per_query['Q9'].shuffle_fraction * 100:.0f}%"]
        for name, per_query in results.items()
    ]
    print(ascii_table(["config"] + sorted(base) + ["Q9 shuffle"], rows,
                      title="Fig. 7: Spark TPC-H (normalized to mmem)"))


def _print_fig8(args: argparse.Namespace, spec, sweep) -> None:
    from .analysis import ascii_table
    from .analysis.figures import fig8_from_sweep

    pair = fig8_from_sweep(spec, sweep)
    print(
        ascii_table(
            ["quantity", "value"],
            [
                ("mmem throughput", f"{pair.mmem.throughput_ops_per_s / 1e3:.0f} kops/s"),
                ("cxl throughput", f"{pair.cxl.throughput_ops_per_s / 1e3:.0f} kops/s"),
                ("throughput drop", f"{pair.throughput_drop * 100:.1f}%"),
                ("p50 latency penalty", f"{pair.latency_penalty(50) * 100:.1f}%"),
                ("p99 latency penalty", f"{pair.latency_penalty(99) * 100:.1f}%"),
            ],
            title="Fig. 8: KeyDB bound to CXL vs MMEM (§4.3)",
        )
    )


def _print_fig10(args: argparse.Namespace, spec, sweep) -> None:
    from .analysis import ascii_table
    from .analysis.figures import fig10_from_sweep

    result = fig10_from_sweep(spec, sweep)
    configs = list(result.serving)
    rows = [
        [point.threads]
        + [f"{result.rate(c, point.threads):.0f}" for c in configs]
        for point in result.serving["mmem"]
    ]
    print(ascii_table(["threads"] + configs, rows,
                      title="Fig. 10(a): LLM serving rate (tokens/s)"))
    print("\nFig. 10(b) (threads, GB/s):", result.fig10b)
    print("Fig. 10(c) (KV GiB, GB/s):", result.fig10c)


def _print_overload(args: argparse.Namespace, spec, sweep) -> None:
    from .analysis import ascii_table
    from .overload.runner import offered_load_from_sweep

    rows = [
        (
            f"{s.load_factor:.2f}x",
            f"{s.offered}",
            f"{s.goodput_ops_per_s / 1e3:.0f}",
            f"{s.throughput_ops_per_s / 1e3:.0f}",
            f"{s.shed_rate * 100:.1f}%",
            f"{s.deadline_miss_rate * 100:.1f}%",
            "n/a" if s.p99_ns != s.p99_ns else f"{s.p99_ns / 1e3:.1f}",
        )
        for s in offered_load_from_sweep(spec, sweep)
    ]
    print(ascii_table(
        ["load", "offered", "goodput k/s", "tput k/s", "shed", "miss", "p99 us"],
        rows,
        title=f"\nOffered load vs goodput ({args.mode}, open-loop KeyDB)",
    ))


#: The table printer of each ``repro sweep`` target.
_TABLES = {
    "fig3": _print_fig3,
    "fig4": _print_fig4,
    "fig5": _print_fig5,
    "fig7": _print_fig7,
    "fig8": _print_fig8,
    "fig10": _print_fig10,
    "overload": _print_overload,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .parallel import merge_metrics_documents, run_sweep

    spec = stock_sweep_spec(args.target, quick=args.quick, seed=args.seed,
                            mode=args.mode, backend=args.backend)
    sweep = run_sweep(spec, workers=args.workers,
                      progress=None if args.no_progress else _sweep_progress,
                      cache=_open_cache(args), supervise=_supervise(args))
    for failure in sweep.failures():
        print(f"error: point {failure.key!r} failed: "
              f"{failure.error.type}: {failure.error.message}", file=sys.stderr)
    print(f"[sweep {spec.name}] {len(sweep.results)} points, "
          f"{sweep.workers} worker(s), {sweep.elapsed_s:.1f}s",
          file=sys.stderr, flush=True)
    print(f"[sweep {spec.name}] health: {sweep.runner_health.summary()}",
          file=sys.stderr, flush=True)
    if not sweep.ok:
        return 1
    cs = sweep.cache_stats
    if cs is not None:
        print(f"[sweep {spec.name}] cache: {cs.hits} hits, "
              f"{cs.misses} misses, {cs.evictions} evictions, "
              f"{cs.resumed} resumed", file=sys.stderr, flush=True)
    if args.backend == "auto":
        from .analytic.select import routing_summary, select_backend

        line = routing_summary(select_backend(args.target, point.params)
                               for point in spec.points)
        print(f"[sweep {spec.name}] {line}", file=sys.stderr, flush=True)
    if args.json:
        merged = merge_metrics_documents(
            [(pr.key, pr.value["metrics"]) for pr in sweep.results],
            generated_by=f"repro sweep {args.target}",
        )
        print(json.dumps(merged, indent=2))
        return 0
    _TABLES[args.target](args, spec, sweep)
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from .analysis import ascii_table
    from .cache import SweepCache, code_fingerprint, register_store_snapshot

    cache = SweepCache()
    if args.json:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
        register_store_snapshot(registry, cache)
        print(registry.to_json())
        return 0
    snap = cache.stats_snapshot()
    print(ascii_table(
        ["quantity", "value"],
        [
            ("root", snap["root"]),
            ("entries", f"{snap['entries']}"),
            ("total bytes", f"{snap['total_bytes']:,}"),
            ("size cap", f"{snap['max_bytes']:,}"),
            ("code fingerprint", code_fingerprint()[:16]),
        ],
        title="Sweep result cache",
    ))
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    from .cache import SweepCache

    cache = SweepCache()
    removed = cache.clear()
    print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.root}")
    return 0


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from .cache import SweepCache

    cache = SweepCache()
    report = cache.verify(purge=args.purge)
    for fingerprint, reason in report.bad:
        print(f"BAD {fingerprint}: {reason}"
              + (" (removed)" if args.purge else ""), file=sys.stderr)
    print(f"{report.checked - len(report.bad)}/{report.checked} entries ok "
          f"in {cache.root}")
    # Nonzero exit on any corrupt entry, so CI can gate on an integrity
    # scan.
    return 1 if report.bad else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, serve_forever

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers if args.workers is not None else 1,
        max_running=args.max_running,
        queue_depth=args.queue_depth,
        rate_per_s=args.rate,
        burst=args.burst,
        table_limit=args.table_limit,
        default_deadline_s=args.deadline,
        drain_budget_s=args.drain_budget,
        request_timeout_s=args.request_timeout,
    )
    return serve_forever(config)


def _nonnegative_seed(text: str) -> int:
    value = int(text, 0)  # accepts decimal and 0x-hex
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _positive_workers(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return value


def _nonnegative_retries(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("retries must be >= 0")
    return value


def _positive_timeout(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            "point timeout must be a finite number of seconds > 0"
        )
    return value


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_positive_workers, default=None, metavar="N",
        help="worker processes for independent sweep points "
             "(default: $REPRO_WORKERS, else 1; parallel results are "
             "bit-identical to serial)",
    )
    parser.add_argument(
        "--backend", choices=("des", "analytic", "auto"), default="des",
        help="KeyDB execution model (fig5/fig8): the discrete-event "
             "simulator, the calibrated analytical fast path, or "
             "per-point auto-routing (steady states -> analytic, "
             "transients -> des); fig3/fig4 accept every value and run "
             "their one allocator path; other targets reject analytic",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the content-addressed result cache "
             "($REPRO_CACHE_DIR, default ~/.cache/repro/sweeps)",
    )
    parser.add_argument(
        "--point-timeout", type=_positive_timeout, default=None, metavar="S",
        help="per-attempt wall-clock deadline in seconds; a point past "
             "it is killed and retried (default: none)",
    )
    parser.add_argument(
        "--retries", type=_nonnegative_retries, default=2, metavar="N",
        help="extra attempts for a point after a retryable failure — "
             "crash, deadline kill, transient error (default: 2)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop dispatching new points after the first point "
             "exhausts its attempts (in-flight points still land)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the EuroSys'24 ASIC CXL paper's artifacts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="Tables 1/2/3/4")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("cost", help="Abstract Cost Model (§6)")
    p.add_argument("--r-d", type=float, default=10.0)
    p.add_argument("--r-c", type=float, default=8.0)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--r-t", type=float, default=1.1)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("validate", help="check every fast calibration anchor")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("faults", help="fault injection & RAS scenarios")
    fsub = p.add_subparsers(dest="faults_command", required=True)
    fp = fsub.add_parser("list", help="show the scenario catalog")
    fp.set_defaults(func=_cmd_faults_list)
    fp = fsub.add_parser("run", help="run one scenario against an app")
    fp.add_argument("scenario", help="scenario name (see 'faults list')")
    fp.add_argument(
        "--app", choices=("keydb", "llm", "spark", "all"), default="all",
        help="which application to fault (default: all)",
    )
    fp.add_argument(
        "--seed", type=_nonnegative_seed, default=0xC0FFEE,
        help="RNG seed (decimal or 0x-hex; same seed, same fault trace)",
    )
    fp.add_argument("--quick", action="store_true", help="small, fast run")
    fp.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON instead of tables")
    _add_workers(fp)
    fp.set_defaults(func=_cmd_faults_run)

    p = sub.add_parser("overload", help="admission control & goodput (overload layer)")
    osub = p.add_subparsers(dest="overload_command", required=True)
    op = osub.add_parser("faults", help="SLO-aware shedding vs uncontrolled under a fault")
    op.add_argument(
        "--scenario", default="link-degrade",
        help="fault scenario name (see 'faults list')",
    )
    op.add_argument("--seed", type=_nonnegative_seed, default=0xC0FFEE)
    op.add_argument("--quick", action="store_true", help="small, fast run")
    op.add_argument("--json", action="store_true",
                    help="emit machine-readable JSON instead of tables")
    op.set_defaults(func=_cmd_overload_faults)

    for name, func, doc in (
        ("metrics", _cmd_metrics, "metrics-registry snapshot of a YCSB run"),
        ("trace", _cmd_trace, "per-layer latency trace of a YCSB run"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", default="1:1",
                       help="Table 1 configuration (default: 1:1)")
        p.add_argument("--workload", default="A", choices=("A", "B", "C", "D"),
                       help="YCSB workload (default: A)")
        p.add_argument("--seed", type=_nonnegative_seed, default=0xC0FFEE)
        p.add_argument("--quick", action="store_true", help="small, fast run")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of tables")
        if name == "metrics":
            p.add_argument("--csv", action="store_true",
                           help="emit the snapshot as CSV")
        else:
            p.add_argument("--limit", type=int, default=16,
                           help="ops to include in --json output (default: 16)")
        p.set_defaults(func=func)

    p = sub.add_parser(
        "sweep", help="run a paper figure's sweep and print its table"
    )
    p.add_argument(
        "target", choices=SWEEP_TARGETS,
        help="which stock sweep to run: fig3/fig4 loaded latency (§3), "
             "fig5/fig8 KeyDB (§4.1/§4.3), fig7 Spark TPC-H (§4.2), "
             "fig10 LLM serving (§5), overload offered load vs goodput",
    )
    p.add_argument(
        "--mode", choices=("controlled", "uncontrolled"), default="controlled",
        help="admission control on or off (overload target only)",
    )
    p.add_argument("--seed", type=_nonnegative_seed, default=0xC0FFEE)
    p.add_argument("--quick", action="store_true", help="small, fast run")
    p.add_argument("--json", action="store_true",
                   help="print the merged repro.metrics/v1 document "
                        "instead of the paper's table")
    p.add_argument("--no-progress", action="store_true",
                   help="suppress per-point progress lines on stderr")
    _add_workers(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("cache", help="sweep result cache maintenance")
    csub = p.add_subparsers(dest="cache_command", required=True)
    cp = csub.add_parser("stats", help="entry count, bytes, cap, location")
    cp.add_argument("--json", action="store_true",
                    help="emit a repro.metrics/v1 snapshot")
    cp.set_defaults(func=_cmd_cache_stats)
    cp = csub.add_parser("clear", help="remove every cached result")
    cp.set_defaults(func=_cmd_cache_clear)
    cp = csub.add_parser("verify", help="integrity-scan every entry")
    cp.add_argument("--purge", action="store_true",
                    help="delete entries that fail verification")
    cp.set_defaults(func=_cmd_cache_verify)

    p = sub.add_parser(
        "serve",
        help="crash-tolerant HTTP service for sweep-shaped what-if jobs",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023,
                   help="listen port; 0 binds an ephemeral one (default: 8023)")
    p.add_argument("--workers", type=_positive_workers, default=None,
                   metavar="N",
                   help="sweep worker processes per job (default: 1)")
    p.add_argument("--max-running", type=int, default=2, metavar="N",
                   help="jobs executing concurrently (default: 2)")
    p.add_argument("--queue-depth", type=int, default=8, metavar="N",
                   help="bounded admission queue; beyond it submissions "
                        "are shed with 503 + Retry-After (default: 8)")
    p.add_argument("--rate", type=float, default=None, metavar="R",
                   help="token-bucket submissions/s; beyond it 429 + "
                        "Retry-After (default: unlimited)")
    p.add_argument("--burst", type=float, default=None, metavar="B",
                   help="token-bucket burst (default: derived from --rate)")
    p.add_argument("--table-limit", type=int, default=64, metavar="N",
                   help="job-table bound; oldest finished records are "
                        "evicted past it (default: 64)")
    p.add_argument("--deadline", type=float, default=600.0, metavar="S",
                   help="default per-job wall-clock deadline in seconds; "
                        "0 disables (default: 600)")
    p.add_argument("--drain-budget", type=float, default=10.0, metavar="S",
                   help="SIGTERM drain budget: checkpoint in-flight jobs "
                        "and exit 0 within this (default: 10)")
    p.add_argument("--request-timeout", type=float, default=30.0, metavar="S",
                   help="per-request read timeout in seconds (default: 30)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("advise", help="configuration advisor (§3.4/§5.3)")
    p.add_argument("--demand-gbps", type=float, default=50.0)
    p.add_argument("--write-fraction", type=float, default=0.0)
    p.add_argument("--working-set-gib", type=float, default=0.0)
    p.add_argument("--locality", type=float, default=1.0)
    p.add_argument("--spans-sockets", action="store_true")
    p.set_defaults(func=_cmd_advise)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: the command's exit code.

    2 for bad user input (one ``error: ...`` line), 130 for a drained
    sweep, whose ``interrupted: ...`` line is the drain line.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # Bad user input (flag values, $REPRO_WORKERS, unknown names)
        # surfaces as a one-line error, never a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        # A drained sweep: completed points are already persisted and
        # the exception carries the drain line; rerunning the command
        # picks up there.
        note = f": {exc}" if str(exc) else ""
        print(f"interrupted{note}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
