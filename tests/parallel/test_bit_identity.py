"""Serial-vs-parallel bit-identity of real experiment sweeps.

The acceptance contract of the parallel runner: fanning a sweep across
worker processes changes wall-clock only.  These tests run scaled-down
fig5 and overload sweeps at 1 and 2 workers and require the merged
``repro.metrics/v1`` JSON exports to be **byte-identical**.
"""

import pytest

from repro.analysis.figures import fig5_sweep_spec
from repro.overload.runner import offered_load_sweep_spec
from repro.parallel import merged_metrics_json, run_sweep


def _merged_json(spec, workers):
    sweep = run_sweep(spec, workers=workers).raise_failures()
    return merged_metrics_json(
        [(pr.key, pr.value["metrics"]) for pr in sweep.results]
    )


@pytest.mark.slow
class TestFig5BitIdentity:
    def test_merged_export_identical_across_worker_counts(self):
        spec = fig5_sweep_spec(
            workloads=("A",),
            configs=("mmem", "1:1"),
            record_count=1_024,
            total_ops=1_500,
        )
        serial = _merged_json(spec, workers=1)
        parallel = _merged_json(spec, workers=2)
        assert serial == parallel
        assert '"point": "A/mmem"' in serial


@pytest.mark.slow
class TestOverloadBitIdentity:
    def test_merged_export_identical_across_worker_counts(self):
        spec = offered_load_sweep_spec(
            factors=[0.8, 1.25],
            controlled=True,
            duration_ns=10e6,
            record_count=2_048,
        )
        serial = _merged_json(spec, workers=1)
        parallel = _merged_json(spec, workers=2)
        assert serial == parallel
        assert '"point": "controlled@0.80x"' in serial
