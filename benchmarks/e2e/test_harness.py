"""Self-test of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (about three
minutes: it runs every workload once, traced and untraced).
"""

from __future__ import annotations

import copy
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "e2e_run", Path(__file__).resolve().parent / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench  # dataclasses look their module up here
_spec.loader.exec_module(bench)

SEED = 0xC0FFEE


def _env(tmp_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(bench.SRC),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env.pop("REPRO_WORKERS", None)
    return env


@pytest.mark.parametrize("argv", [
    *[(target, "--quick", "--backend", "des", "--no-cache")
      for target in ("fig3", "fig4", "fig7", "fig8", "fig10")],
    ("overload", "--quick", "--mode", "controlled", "--no-cache"),
])
def test_driver_export_is_the_cli_export(argv, tmp_path):
    """The benchmark measures the program users run: same bytes as the CLI."""
    export = tmp_path / "export.json"
    subprocess.run(
        [sys.executable, str(bench.DRIVER), *argv, "--seed", str(SEED),
         "--export", str(export)],
        check=True, env=_env(tmp_path), stdout=subprocess.DEVNULL,
    )
    cli = subprocess.run(
        [sys.executable, "-m", "repro.cli", "sweep", *argv, "--seed", str(SEED),
         "--json", "--no-progress"],
        check=True, env=_env(tmp_path), capture_output=True,
    )
    assert export.read_bytes() == cli.stdout


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_benchmark_metric_is_reported(name, tmp_path):
    """Each metric of BENCHMARK.json appears, with its unit, on every workload."""
    spec = bench.load_spec()
    golden = bench.load_golden()
    for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        result = bench.run_workload(name, SEED, 0.0, trace, golden, out=tmp_path)
        assert result["correct"], result["errors"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert {
            m: v["unit"] for m, v in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in wanted}
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_tampered_golden_digest_counts_as_error(tmp_path):
    golden = copy.deepcopy(bench.load_golden())
    entry = golden[str(SEED)]["fig8 --quick --backend des"]
    entry["export"] = "0" * 64
    entry["points"]["cxl"] = "0" * 64
    session = bench.Session(tmp_path, SEED, golden)
    reps = [session.rep("figs-light")]
    metrics = bench.end_to_end("figs-light", reps, session)
    assert metrics["error_rate"]["value"] > 0
    assert any("'cxl'" in error for error in session.errors["figs-light"])
