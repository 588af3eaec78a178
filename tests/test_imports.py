"""The import contract: each command loads only the modules it runs.

Package ``__init__``s resolve their exports on first access
(:mod:`repro._lazy`), the CLI imports a subcommand's stack on dispatch,
the objects a cache hit unpickles live in numpy-free modules, and only
the modules that build arrays import numpy.  Each check runs in a fresh
interpreter, since this process has long since imported everything.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
PACKAGES = sorted(
    "repro" + dirpath[len(os.path.join(SRC, "repro")):].replace(os.sep, ".")
    for dirpath, _, filenames in os.walk(os.path.join(SRC, "repro"))
    if "__init__.py" in filenames
)


def _run(code: str, timeout: float = 60.0) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_application_stack():
    loaded = _run("""
        import json, sys
        import repro.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "numpy" not in loaded
    for package in ("repro.apps", "repro.analytic", "repro.serve",
                    "repro.faults", "repro.hw"):
        assert not [m for m in loaded if m == package or m.startswith(package + ".")]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="concurrent.futures.TimeoutError is the builtin from 3.11 on")
def test_cli_import_loads_no_thread_or_logging_stack():
    """``repro.errors`` names the futures timeout without importing it,
    which would load logging and threading into every interpreter."""
    loaded = _run("""
        import json, sys
        import repro.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    assert "concurrent.futures" not in loaded
    assert "logging" not in loaded


@pytest.mark.parametrize("package", PACKAGES)
def test_package_import_loads_none_of_its_submodules(package):
    loaded = _run(f"""
        import json, sys
        import {package}
        print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
    """)
    parts = package.split(".")
    chain = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    assert set(loaded) == chain | {"repro._lazy"}


def test_every_export_resolves_and_is_listed():
    assert {"repro", "repro.apps.kvstore", "repro.mem.tiering"} <= set(PACKAGES)
    missing = _run(f"""
        import importlib, json
        from repro import paper_cxl_platform
        assert paper_cxl_platform().cxl_nodes()
        missing = []
        for name in {PACKAGES!r}:
            package = importlib.import_module(name)
            listing = dir(package)
            for export in package.__all__:
                getattr(package, export)
                if export not in listing:
                    missing.append(name + "." + export)
        print(json.dumps(missing))
    """, timeout=120.0)
    assert missing == []


def test_unknown_name_is_an_attribute_error():
    import repro.sim as sim

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        sim.Nope  # noqa: B018


@pytest.mark.parametrize("package, name", [
    ("repro", "Simulator"), ("repro.sim", "Simulator"),
    ("repro.sim", "Resource"), ("repro.obs", "EngineProfile"),
])
def test_the_event_engine_is_not_exported(package, name):
    import importlib

    with pytest.raises(AttributeError):
        getattr(importlib.import_module(package), name)


def test_warm_fig5_sweep_loads_no_numpy(tmp_path):
    from repro.cache import SweepCache
    from repro.cli import stock_sweep_spec
    from repro.parallel import merge_metrics_documents, run_sweep

    spec = stock_sweep_spec("fig5", quick=True, backend="auto")
    cold = run_sweep(spec, workers=1, cache=SweepCache(root=str(tmp_path)))
    cold_export = json.dumps(merge_metrics_documents(
        [(pr.key, pr.value["metrics"]) for pr in cold.results],
        generated_by="repro sweep fig5",
    ), indent=2)
    warm = _run(f"""
        import json, sys
        from repro.cache import SweepCache
        from repro.cli import stock_sweep_spec
        from repro.parallel import merge_metrics_documents, run_sweep

        spec = stock_sweep_spec("fig5", quick=True, backend="auto")
        sweep = run_sweep(spec, workers=1, cache=SweepCache(root={str(tmp_path)!r}))
        doc = merge_metrics_documents(
            [(pr.key, pr.value["metrics"]) for pr in sweep.results],
            generated_by="repro sweep fig5",
        )
        assert all(pr.value["result"].ops > 0 for pr in sweep.results)
        print(json.dumps({{
            "hits": sweep.cache_stats.hits,
            "misses": sweep.cache_stats.misses,
            "numpy": "numpy" in sys.modules,
            "export": json.dumps(doc, indent=2),
        }}))
    """)
    assert (warm["hits"], warm["misses"]) == (28, 0)
    assert not warm["numpy"]
    assert warm["export"] == cold_export


@pytest.mark.parametrize("target", ["fig3", "fig4", "fig7", "fig10"])
def test_light_figure_sweep_loads_no_numpy(target):
    """The MLC, Spark and LLM sweeps build no arrays: running one, cold
    and uncached, imports no numpy and exports the same bytes."""
    from repro.cli import stock_sweep_spec
    from repro.parallel import merge_metrics_documents, run_sweep

    spec = stock_sweep_spec(target, quick=True, backend="des")
    sweep = run_sweep(spec, workers=1).raise_failures()
    export = json.dumps(merge_metrics_documents(
        [(pr.key, pr.value["metrics"]) for pr in sweep.results],
        generated_by=f"repro sweep {target}",
    ), indent=2)
    report = _run(f"""
        import json, sys
        from repro.cli import stock_sweep_spec
        from repro.parallel import merge_metrics_documents, run_sweep

        spec = stock_sweep_spec({target!r}, quick=True, backend="des")
        sweep = run_sweep(spec, workers=1).raise_failures()
        doc = merge_metrics_documents(
            [(pr.key, pr.value["metrics"]) for pr in sweep.results],
            generated_by="repro sweep {target}",
        )
        print(json.dumps({{
            "numpy": "numpy" in sys.modules,
            "export": json.dumps(doc, indent=2),
        }}))
    """)
    assert not report["numpy"]
    assert report["export"] == export


def test_numpy_is_imported_at_module_top_only_by_array_modules():
    """Only the modules that build arrays import numpy at module top;
    the rest reach them under ``TYPE_CHECKING`` or inside a function."""
    root = os.path.join(SRC, "repro")
    importers = set()
    for dirpath, _, filenames in os.walk(root):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in tree.body:
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n == "numpy" or n.startswith("numpy.") for n in names):
                    importers.add(os.path.relpath(path, root)[:-3].replace(os.sep, "/"))
    assert importers == {
        "analytic/keydb",
        "apps/kvstore/des_server", "apps/kvstore/flash",
        "apps/kvstore/server", "apps/kvstore/store",
        "core/pooling",
        "faults/injector",
        "sim/rng",
        "workloads/distributions", "workloads/llm_trace",
        "workloads/trace", "workloads/ycsb",
    }


def test_racing_threads_resolve_identical_objects():
    """Eight threads read the same unresolved names at once; each name
    must resolve to one object, the one the package finally holds."""
    report = _run("""
        import importlib, json, sys, threading

        NAMES = [
            ("repro", "paper_cxl_platform"), ("repro", "RngFactory"),
            ("repro.sim", "DEFAULT_SEED"), ("repro.sim", "LatencyHistogram"),
            ("repro.hw", "Platform"), ("repro.parallel", "tasks"),
            ("repro.parallel", "run_sweep"), ("repro.apps", "kvstore"),
            ("repro.apps.kvstore", "KeyDbResult"), ("repro.mem", "TppDaemon"),
            ("repro.analysis", "ascii_table"), ("repro.core", "AbstractCostModel"),
        ]
        THREADS = 8
        barrier = threading.Barrier(THREADS)
        seen = [None] * THREADS
        errors = []

        def worker(index):
            try:
                barrier.wait(timeout=30)
                seen[index] = [
                    id(getattr(importlib.import_module(p), n)) for p, n in NAMES
                ]
            except Exception as exc:
                errors.append(repr(exc))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        final = [id(getattr(sys.modules[p], n)) for p, n in NAMES]
        print(json.dumps({
            "alive": sum(t.is_alive() for t in threads),
            "errors": errors,
            "agree": all(ids == final for ids in seen),
        }))
    """, timeout=120.0)
    assert report == {"alive": 0, "errors": [], "agree": True}
