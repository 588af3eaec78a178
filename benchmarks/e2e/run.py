"""End-to-end benchmark of the figure sweeps: host time to regenerate a figure.

Each workload is one closed-loop client: a batch ``repro sweep`` run as a
fresh interpreter through ``driver.py``, one command after another, never
more than two processes at once.  Every repetition is checked against the
golden digests in ``golden.json`` (and, on the cache workloads, against
the cache invariants); a mismatch counts as a failed operation.  Times
are host seconds; simulated statistics are deterministic, so they serve
as correctness checks only.  See README.md for the metrics and why each
workload exists.

Usage, from the repository root::

    # one workload for a fixed time; the last stdout line is the result
    python benchmarks/e2e/run.py --workload fig5-des --seed 3 --seconds 12 --trace 0

    # one set: every workload, K repetitions each, round-robin; writes
    # DIR/result.json (--append adds the set to the sets already there)
    python benchmarks/e2e/run.py --seed 0xC0FFEE --out .bench_e2e [--trace] [--append]

    # first set of A against last set of B, with a verdict per metric and workload
    python benchmarks/e2e/run.py --compare A.json B.json

    # regenerate golden.json (only after a deliberate model-version bump)
    python benchmarks/e2e/run.py --write-golden
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DRIVER = HERE / "driver.py"
GOLDEN_PATH = HERE / "golden.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / ".bench_e2e"

#: Seeds with golden digests.  ``--seed`` picks one of them, so every
#: run is checked against a reference; 0xC0FFEE is the CLI default and 7
#: is held out from anything tuned by hand.
GOLDEN_SEEDS = (0xC0FFEE, 7, 11, 42, 1009, 65537)

#: Set-up samples per command and run: launches that stop at the call
#: into ``run_sweep`` top up the timed repetitions to this many.
SETUP_SAMPLES = 10

QUICK_DES = ("--quick", "--backend", "des", "--no-cache")
FIG5_AUTO = ("fig5", "--quick", "--backend", "auto", "--workers", "2")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: driver commands run back to back."""

    commands: Tuple[Tuple[str, ...], ...]
    #: ``None`` runs ``--no-cache``; ``"cold"`` starts every repetition
    #: from an empty cache directory; ``"warm"`` from one a cold run filled.
    cache: Optional[str]
    #: Repetitions per workload in a full (``--out``) set.
    k: int
    #: Report ``sim_ops_per_s``: simulated operations (Σ keydb_run ops
    #: plus Σ overload_offered_total) per second of ``run_sweep``.
    sim_ops: bool = False


WORKLOADS: Dict[str, Workload] = {
    # The ROADMAP baseline: per-op YCSB generation, kvstore pricing, mem tiering.
    "fig5-des": Workload((("fig5",) + QUICK_DES,), None, 2, sim_ops=True),
    # The only workload on the event-driven engine (sim, overload layers);
    # its spec build includes a parent-side capacity calibration run.
    "overload": Workload(
        (("overload", "--mode", "controlled", "--no-cache"),), None, 4, sim_ops=True,
    ),
    # Start-up dominated: interpreter start, imports, the hw allocator.
    "figs-light": Workload(
        tuple((target,) + QUICK_DES
              for target in ("fig3", "fig4", "fig7", "fig8", "fig10")),
        None, 8,
    ),
    # The supervised spawn pool, pickling over pipes and the cache write path.
    "fig5-cold": Workload((FIG5_AUTO,), "cold", 6),
    # Cache reads, merge and export only: no point executes.
    "fig5-warm": Workload((FIG5_AUTO,), "warm", 20),
}

#: Metrics the full report prints beside the ones BENCHMARK.json bounds:
#: (unit, better, bound).  BENCHMARK.json holds only metrics that exist,
#: and are never zero, on every workload: ``sim_ops_per_s`` exists only
#: where a workload counts simulated operations, ``error_rate`` is zero
#: on a correct run and may not rise at all, and ``sweep_s`` (seconds
#: inside ``run_sweep``) is the denominator of ``sim_ops_per_s``.
EXTRA_METRICS = {
    "sweep_s": ("s", "lower", 0.25),
    "sim_ops_per_s": ("ops/s", "higher", 0.25),
    "error_rate": ("fraction", "lower", 0.0),
}


class BenchError(RuntimeError):
    """A command that did not run to completion."""


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


def sim_seed(seed: int) -> int:
    """The simulation seed a ``--seed`` selects (always a golden one)."""
    return seed if seed in GOLDEN_SEEDS else GOLDEN_SEEDS[seed % len(GOLDEN_SEEDS)]


def golden_key(argv: Tuple[str, ...]) -> str:
    """A command's identity for golden digests.

    Worker count and caching never change a sweep's bytes, so cold and
    warm runs share the digests of the plain command.
    """
    out: List[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
        elif arg == "--workers":
            skip = True
        elif arg != "--no-cache":
            out.append(arg)
    return " ".join(out)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(export: bytes) -> Tuple[str, Dict[str, str]]:
    """The export's sha256 and one sha256 per point.

    A point's digest covers its own ``repro.metrics/v1`` document: the
    merged samples carrying its ``point`` label, with that label removed,
    serialized as canonical JSON (sorted keys, no whitespace).
    """
    doc = json.loads(export)
    groups: Dict[str, list] = {}
    for sample in doc["metrics"]:
        labels = dict(sample["labels"])
        key = labels.pop("point")
        groups.setdefault(key, []).append({**sample, "labels": labels})
    points = {
        key: _sha256(json.dumps(
            {"schema": doc["schema"], "metrics": samples},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8"))
        for key, samples in groups.items()
    }
    return _sha256(export), points


def _sample_sum(export_doc: dict, name: str, quantity: Optional[str] = None) -> float:
    return sum(
        s["value"] for s in export_doc["metrics"]
        if s["name"] == name
        and (quantity is None or s["labels"].get("quantity") == quantity)
    )


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*.rsc"))


def _launch(argv: Tuple[str, ...], seed: int, workdir: Path, cache_dir: Path,
            extra: List[str]):
    """Run the driver once; (launch time, exit time, rusage, its report).

    Wall time runs from just before the launch to the reaping of the
    process; the rusage comes from ``wait4`` and covers the driver and
    every worker it waited for.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    tmp = workdir / "tmp"
    tmp.mkdir(exist_ok=True)
    cmd = [sys.executable, str(DRIVER), *argv, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(cache_dir),
               TMPDIR=str(tmp))
    env.pop("REPRO_WORKERS", None)
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / "stderr").read_text(errors="replace").strip()[-2000:]
        raise BenchError(f"driver {' '.join(argv)} exited {proc.returncode}: {tail}")
    report = json.loads((workdir / "stdout").read_text().strip().splitlines()[-1])
    return launch, end, usage, report


def setup_sample(argv: Tuple[str, ...], seed: int, workdir: Path,
                 cache_dir: Path) -> float:
    """Seconds from launch to the call into ``run_sweep`` (which is skipped)."""
    extra = ["--setup-only", "--export", str(workdir / "export.json")]
    launch, _, _, report = _launch(argv, seed, workdir, cache_dir, extra)
    return report["sweep_call"] - launch


def run_command(argv: Tuple[str, ...], seed: int, workdir: Path,
                cache_dir: Path, traced: bool) -> dict:
    """Run one driver command in a fresh interpreter, time and digest it."""
    export = workdir / "export.json"
    trace = workdir / "trace.json"
    extra = ["--export", str(export)] + (["--trace", str(trace)] if traced else [])
    launch, end, usage, report = _launch(argv, seed, workdir, cache_dir, extra)
    data = export.read_bytes()
    export_sha, point_shas = digests(data)
    doc = json.loads(data)
    return {
        "argv": list(argv),
        "wall_s": end - launch,
        "to_done_s": report["done"] - launch,
        "setup_s": report["sweep_call"] - launch,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "report": report,
        "export_sha": export_sha,
        "point_shas": point_shas,
        "offered": _sample_sum(doc, "overload_offered_total"),
        "good": _sample_sum(doc, "overload_good_total"),
        "ops": _sample_sum(doc, "keydb_run", "ops")
        + _sample_sum(doc, "overload_offered_total"),
        "cache_bytes": _dir_bytes(cache_dir),
        "trace": json.loads(trace.read_text()) if traced else None,
    }


class Session:
    """Repetitions of workloads at one seed, each checked for correctness."""

    def __init__(self, out: Path, seed: int, golden: dict) -> None:
        self.out = out
        self.seed = seed
        self.golden = golden.get(str(seed))
        self.attempted: Dict[str, int] = {name: 0 for name in WORKLOADS}
        self.errors: Dict[str, List[str]] = {name: [] for name in WORKLOADS}
        self._warm_sha: Dict[str, str] = {}
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        # Every later interpreter then starts from compiled bytecode, as
        # a user's second run does.
        compileall.compile_dir(str(SRC / "repro"), quiet=1)

    def _cache_dir(self, name: str) -> Path:
        return self.out / name / "cache"

    def prepare(self, name: str) -> None:
        """Fill the warm workload's cache with one checked cold run."""
        if WORKLOADS[name].cache == "warm":
            rep = self._run(name, traced=False, fresh_cache=True)
            self.check(name, rep, cache_mode="cold")
            self._warm_sha = {r["argv"][0]: r["export_sha"] for r in rep}

    def _run(self, name: str, traced: bool, fresh_cache: bool) -> List[dict]:
        cache_dir = self._cache_dir(name)
        if fresh_cache and cache_dir.exists():
            shutil.rmtree(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        return [
            run_command(argv, self.seed, self.out / name / f"cmd{i}",
                        cache_dir, traced)
            for i, argv in enumerate(WORKLOADS[name].commands)
        ]

    def rep(self, name: str, traced: bool = False) -> List[dict]:
        """One checked repetition of a workload: every command once."""
        workload = WORKLOADS[name]
        rep = self._run(name, traced, fresh_cache=workload.cache == "cold")
        self.check(name, rep, cache_mode=workload.cache)
        return rep

    def setup_samples(self, name: str, count: int) -> List[List[float]]:
        """``count`` extra set-up times of every command of a workload."""
        cache_dir = self._cache_dir(name)
        return [
            [setup_sample(argv, self.seed, self.out / name / f"setup{i}", cache_dir)
             for i, argv in enumerate(WORKLOADS[name].commands)]
            for _ in range(count)
        ]

    def check(self, name: str, rep: List[dict], cache_mode: Optional[str]) -> None:
        """Count the points of one repetition and record its errors."""
        errors: List[str] = []
        for result in rep:
            report = result["report"]
            points = report["points"]
            self.attempted[name] += points
            label = f"{name} [{' '.join(result['argv'])}]"
            errors += [f"{label}: point failed"] * report["failed"]
            errors += self._golden_errors(label, result)
            cache = report["cache"] or {}
            executed = len(report["executed_elapsed_s"])
            if cache_mode == "cold":
                if (cache.get("hits"), cache.get("misses"), cache.get("stores")) != (
                        0, points, points):
                    errors.append(f"{label}: cold cache not {points} misses and "
                                  f"{points} stores: {cache}")
            elif cache_mode == "warm":
                if cache.get("hits") != points:
                    errors.append(f"{label}: warm cache not {points} hits: {cache}")
                if executed:
                    errors.append(f"{label}: warm run executed {executed} points")
                if result["export_sha"] != self._warm_sha.get(result["argv"][0]):
                    errors.append(f"{label}: warm export differs from the cold one")
        self.errors[name] += errors

    def _golden_errors(self, label: str, result: dict) -> List[str]:
        if self.golden is None:
            return [f"{label}: no golden digests for seed {self.seed}"]
        golden = self.golden.get(golden_key(tuple(result["argv"])))
        if golden is None:
            return [f"{label}: no golden digests for this command"]
        if result["export_sha"] == golden["export"]:
            return []
        got, want = result["point_shas"], golden["points"]
        bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        return [f"{label}: point {k!r} differs from golden" for k in bad] or [
            f"{label}: export differs from golden"
        ]

    def failed(self, name: str) -> int:
        """Failed points, golden mismatches and cache-invariant violations."""
        return min(len(self.errors[name]), self.attempted[name])


# -- statistics ------------------------------------------------------------


def _stat(value: float, unit: str, samples: List[float]) -> dict:
    """A metric's value with the median and quartiles of its K samples."""
    q1 = median = q3 = samples[0]
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"value": value, "unit": unit, "k": len(samples), "median": median,
            "q1": q1, "q3": q3, "values": samples}


def _best_of(rows: List[List[float]], unit: str) -> dict:
    """Best-of-K per command, summed over commands.

    ``rows`` holds one sample per command per repetition.  The median
    and quartiles beside the value are those of the per-repetition sums.
    """
    best = sum(min(row[i] for row in rows) for i in range(len(rows[0])))
    return _stat(best, unit, [sum(row) for row in rows])


def end_to_end(name: str, reps: List[List[dict]], session: Session,
               setups: List[List[float]] = ()) -> dict:
    """Every end-to-end metric of one workload from its untraced reps.

    ``setups`` holds extra set-up samples (one per command per row) from
    launches that stop at the call into ``run_sweep``.
    """
    sweep = _best_of([[r["report"]["run_sweep_s"] for r in rep] for rep in reps], "s")
    rss_reps = [max(r["rss_mb"] for r in rep) for rep in reps]
    metrics = {
        "wall_s": _best_of([[r["wall_s"] for r in rep] for rep in reps], "s"),
        "setup_s": _best_of(
            [[r["setup_s"] for r in rep] for rep in reps] + list(setups), "s"),
        "sweep_s": sweep,
        "peak_rss_mb": _stat(statistics.median(rss_reps), "MB", rss_reps),
        "error_rate": {"value": session.failed(name) / max(1, session.attempted[name]),
                       "unit": "fraction", "errors": session.failed(name),
                       "attempted": session.attempted[name]},
    }
    if WORKLOADS[name].sim_ops:
        ops = sum(r["ops"] for r in reps[0])
        metrics["sim_ops_per_s"] = {
            **_stat(ops / sweep["value"], "ops/s", [ops / s for s in sweep["values"]]),
            "ops": ops,
        }
    return metrics


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def per_layer(reps: List[List[dict]], traced: List[List[dict]]) -> dict:
    """Per-layer metrics: phases from untraced reps, the rest from traced ones."""
    med = statistics.median

    def phase(field):
        return med([sum(r["report"][field] for r in rep) for rep in reps])

    def span_s(rep, name):
        return sum(s["end_s"] - s["start_s"]
                   for r in rep for s in r["trace"]["spans"] if s["name"] == name)

    metrics: Dict[str, Tuple[float, str]] = {}
    layers = traced[0][0]["trace"]["layers"]
    for layer in layers:
        metrics[f"{layer}.self_s"] = (med([
            sum(r["trace"]["layers"][layer]["self_s"] for r in rep) for rep in traced
        ]), "s")
        metrics[f"{layer}.calls"] = (float(sum(
            r["trace"]["layers"][layer]["calls"] for r in traced[0])), "count")
    first = traced[0]
    metrics["workloads.ycsb_ops"] = (float(sum(r["trace"]["ycsb_ops"] for r in first)), "count")
    offered = sum(r["offered"] for r in reps[0])
    metrics["overload.goodput_ratio"] = (
        sum(r["good"] for r in reps[0]) / offered if offered else 0.0, "ratio")
    for backend in ("analytic", "des"):
        metrics[f"{backend}.points"] = (float(sum(
            r["trace"]["backend_points"][backend] for r in first)), "count")
    metrics["import.s"] = (phase("import_s"), "s")
    metrics["spec.s"] = (phase("spec_s"), "s")
    metrics["parallel.run_sweep_s"] = (phase("run_sweep_s"), "s")
    metrics["parallel.overhead_s"] = (med([
        sum(r["report"]["run_sweep_s"]
            - sum(r["report"]["executed_elapsed_s"]) / r["report"]["workers"]
            for r in rep)
        for rep in reps
    ]), "s")
    points_ms = [1e3 * e for rep in reps for r in rep
                 for e in r["report"]["executed_elapsed_s"]]
    metrics["parallel.point_p50_ms"] = (_percentile(points_ms, 0.5), "ms")
    metrics["parallel.point_p90_ms"] = (_percentile(points_ms, 0.9), "ms")
    metrics["parallel.point_samples"] = (float(len(points_ms)), "count")
    for field in ("retries", "worker_restarts"):
        metrics[f"parallel.{field}"] = (float(sum(
            r["report"][field] for rep in reps + traced for r in rep)), "count")
    for method in ("key_for", "lookup", "put"):
        short = "key" if method == "key_for" else method
        metrics[f"cache.{short}_s"] = (
            med([span_s(rep, f"cache.{method}") for rep in traced]), "s")
    for field in ("hits", "misses", "stores"):
        metrics[f"cache.{field}"] = (float(sum(
            (r["report"]["cache"] or {}).get(field, 0) for r in reps[0])), "count")
    metrics["cache.bytes"] = (float(sum(r["cache_bytes"] for r in reps[0])), "bytes")
    metrics["merge.s"] = (phase("merge_s"), "s")
    metrics["export.s"] = (phase("export_s"), "s")
    metrics["export.bytes"] = (float(sum(r["report"]["export_bytes"] for r in reps[0])), "bytes")
    untraced_s = med([sum(r["to_done_s"] for r in rep) for rep in reps])
    traced_s = med([sum(r["to_done_s"] for r in rep) for rep in traced])
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# -- modes -----------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 golden: dict, out: Path = DEFAULT_OUT / "run") -> dict:
    """Repeat one workload for ``seconds``; the one-line contract result.

    An untraced run repeats at least twice, so its best-of-K never rests
    on one sample.  A traced run alternates untraced and traced
    repetitions, at least one of each; ``fig5-des`` under cProfile takes
    about three times its untraced wall time.
    """
    session = Session(out, sim_seed(seed), golden)
    session.prepare(name)
    deadline = time.monotonic() + seconds
    min_reps = 1 if trace else 2
    reps: List[List[dict]] = []
    traced: List[List[dict]] = []
    while len(reps) < min_reps or time.monotonic() < deadline:
        reps.append(session.rep(name))
        if trace:
            traced.append(session.rep(name, traced=True))
    spec = load_spec()
    if trace:
        measured = per_layer(reps, traced)
        wanted = spec["per_layer"]
        _write_trace(out / name / "trace.json", {name: traced})
    else:
        setups = session.setup_samples(name, SETUP_SAMPLES - len(reps))
        measured = end_to_end(name, reps, session, setups)
        wanted = spec["end_to_end"]
    return {
        "correct": not session.errors[name],
        "attempted": session.attempted[name],
        "failed": session.failed(name),
        "metrics": {
            m["name"]: {key: measured[m["name"]][key] for key in ("value", "unit")}
            for m in wanted
        },
        "errors": session.errors[name][:20],
    }


def _write_trace(path: Path, traced: Dict[str, List[List[dict]]]) -> None:
    """Spans and layer totals of every traced rep, per workload."""
    doc = {
        name: [[{"argv": r["argv"], **r["trace"]} for r in rep] for rep in reps]
        for name, reps in traced.items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def yardstick_ops_per_s(iters: int = 400_000) -> float:
    """Ops/s of a fixed pure-Python loop: a machine-speed diagnostic only."""
    table: dict = {}
    start = time.perf_counter()
    total = 0
    for i in range(iters):
        table[i & 1023] = i
        total += i + 1
    return iters / (time.perf_counter() - start)


def run_all(seed: int, out: Path, trace: bool, golden: dict) -> dict:
    """One set: every workload, K reps each, round-robin."""
    session = Session(out / "work", sim_seed(seed), golden)
    yardstick = [yardstick_ops_per_s()]
    for name in WORKLOADS:
        session.prepare(name)
    reps: Dict[str, List[List[dict]]] = {name: [] for name in WORKLOADS}
    for round_ in range(max(w.k for w in WORKLOADS.values())):
        for name, workload in WORKLOADS.items():
            if round_ < workload.k:
                reps[name].append(session.rep(name))
    setups = {name: session.setup_samples(name, SETUP_SAMPLES - len(reps[name]))
              for name in WORKLOADS}
    yardstick.append(yardstick_ops_per_s())
    traced: Dict[str, List[List[dict]]] = {}
    if trace:
        traced = {name: [session.rep(name, traced=True)] for name in WORKLOADS}
        _write_trace(out / "trace.json", traced)
    return {
        "seed": seed,
        "sim_seed": session.seed,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "yardstick_ops_per_s": yardstick,
        "k": {name: w.k for name, w in WORKLOADS.items()},
        "errors": session.errors,
        "workloads": {
            name: {
                "metrics": end_to_end(name, reps[name], session, setups[name]),
                **({"per_layer": per_layer(reps[name], traced[name])} if trace else {}),
            }
            for name in WORKLOADS
        },
    }


def write_result(path: Path, result: dict, append: bool) -> None:
    """Write a result document; ``append`` adds the set to an existing one."""
    doc = {"schema": "repro.e2e-bench/v1", "sets": []}
    if append and path.exists():
        doc = json.loads(path.read_text())
    doc["sets"].append(result)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def print_result(result: dict) -> None:
    print(f"{'workload':11s} {'metric':14s} {'value':>12s} {'unit':8s} "
          f"{'median':>10s} {'q1':>10s} {'q3':>10s} {'k':>3s}")
    for name, data in result["workloads"].items():
        for metric, m in data["metrics"].items():
            extra = "".join(f" {m[f]:10.4g}" for f in ("median", "q1", "q3")) \
                if "median" in m else " " * 33
            k = f" {m['k']:3d}" if "k" in m else ""
            print(f"{name:11s} {metric:14s} {m['value']:12.6g} {m['unit']:8s}{extra}{k}")
    for name, data in result["workloads"].items():
        for metric, m in data.get("per_layer", {}).items():
            print(f"{name:11s} {metric:28s} {m['value']:14.6g} {m['unit']}")
    for errors in result["errors"].values():
        for error in errors[:20]:
            print(f"error: {error}")


def _metric_defs() -> Dict[str, Tuple[str, str, float]]:
    defs = {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in load_spec()["end_to_end"]}
    for name, value in EXTRA_METRICS.items():
        defs.setdefault(name, value)
    return defs


def _load_sets(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["sets"]


def compare(path_a: str, path_b: str) -> List[dict]:
    """One row per (metric, workload): A, B, delta, bound and verdict.

    A is the first set of its file and B the last set of its file, so
    one file with two sets compares with itself.  The verdict is
    ``unresolved`` when either side's own spread (q3 - q1 over the
    median of its K reps) exceeds the bound; else ``worse`` or
    ``better`` when B moved past the bound, and ``same`` otherwise.
    """
    a, b = _load_sets(path_a)[0], _load_sets(path_b)[-1]
    rows = []
    for metric, (unit, better, bound) in _metric_defs().items():
        for name in a["workloads"]:
            ma = a["workloads"][name]["metrics"].get(metric)
            mb = b["workloads"].get(name, {}).get("metrics", {}).get(metric)
            if ma is None or mb is None:
                continue
            va, vb = ma["value"], mb["value"]
            if va:
                delta = (vb - va) / va
            else:
                delta = 0.0 if vb == va else float("inf")
            gain = -delta if better == "lower" else delta
            spread = max(
                (m["q3"] - m["q1"]) / m["median"] if m.get("median") else 0.0
                for m in (ma, mb)
            )
            if bound == 0.0:
                verdict = "worse" if gain < 0 else "better" if gain > 0 else "same"
            elif spread > bound:
                verdict = "unresolved"
            elif gain < -bound:
                verdict = "worse"
            elif gain > bound:
                verdict = "better"
            else:
                verdict = "same"
            rows.append({"metric": metric, "workload": name, "unit": unit,
                         "a": va, "b": vb, "delta": delta, "bound": bound,
                         "spread": spread, "verdict": verdict})
    return rows


def write_golden(out: Path) -> dict:
    """Digests of every distinct command at every golden seed."""
    commands = {}
    for workload in WORKLOADS.values():
        for argv in workload.commands:
            commands.setdefault(golden_key(argv), argv)
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    seeds = {}
    for seed in GOLDEN_SEEDS:
        entry = {}
        for key, argv in commands.items():
            work = out / "golden" / str(seed) / key.replace(" ", "_")
            cache_dir = work / "cache"
            if cache_dir.exists():
                shutil.rmtree(cache_dir)
            result = run_command(argv, seed, work, cache_dir, traced=False)
            if result["report"]["failed"]:
                raise BenchError(f"seed {seed} {key}: points failed")
            entry[key] = {"export": result["export_sha"], "points": result["point_shas"]}
            print(f"seed {seed:>8d} {key:40s} {result['export_sha'][:12]}",
                  file=sys.stderr)
        seeds[str(seed)] = entry
    doc = {"schema": "repro.e2e-golden/v1", "seeds": seeds}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload for --seconds (one-line result)")
    parser.add_argument("--seed", type=lambda text: int(text, 0), default=0xC0FFEE)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics from a cProfile run of the driver")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="output directory of a full run")
    parser.add_argument("--append", action="store_true",
                        help="add this full run as one more set to OUT/result.json")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="first set of result file A against last set of B")
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        for row in compare(*args.compare):
            print(f"{row['workload']:11s} {row['metric']:14s} {row['a']:12.6g} "
                  f"{row['b']:12.6g} {row['delta']:+8.2%} bound {row['bound']:.0%} "
                  f"spread {row['spread']:6.1%}  {row['verdict']}")
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.write_golden:
            write_golden(args.out)
            return 0
        golden = load_golden()
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), golden)
            for error in result.pop("errors"):
                print(f"error: {error}", file=sys.stderr)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        result = run_all(args.seed, args.out, bool(args.trace), golden)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_result(args.out / "result.json", result, args.append)
    print_result(result)
    print(f"wrote {args.out / 'result.json'}")
    return 1 if any(result["errors"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
