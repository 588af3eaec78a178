"""The execution backend of a point is one of its params.

Analytic and DES runs of the *same* cell answer the same question to
different accuracy — they must never alias in the content-addressed
store.  The fig5/fig8 spec builders write the resolved model into each
point's ``backend`` param (``auto`` resolved per point), so the cache
keys follow from the params alone, and a wrapped task (the chaos
harness) keeps them apart too.
"""

from repro.analysis.figures import fig5_sweep_spec, fig8_sweep_spec
from repro.cache import point_fingerprint
from repro.cache.store import SweepCache
from repro.cli import stock_sweep_spec
from repro.parallel.chaos import ChaosPlan, chaos_wrap

PARAMS = {"config": "mmem", "workload": "A", "record_count": 1_024,
          "total_ops": 20_000}


def _backends(spec):
    return {point.key: point.params["backend"] for point in spec.points}


def _assert_keys_follow_backend(tmp_path, chaos=None):
    """des != analytic per cell; auto shares its routed backend's key."""
    cache = SweepCache(str(tmp_path))
    keys = {}
    for backend in ("des", "analytic", "auto"):
        spec = fig5_sweep_spec(
            workloads=("A",), configs=("mmem", "hot-promote"),
            record_count=1_024, total_ops=1_500, backend=backend,
        )
        if chaos is not None:
            spec = chaos_wrap(spec, chaos)
        keys[backend] = {
            point.key: cache.key_for(spec.task, point.params, point.seed)
            for point in spec.points
        }
    des, ana, auto = keys["des"], keys["analytic"], keys["auto"]
    for key in des:
        assert des[key] != ana[key]
    assert auto["A/hot-promote"] == des["A/hot-promote"]
    assert auto["A/mmem"] == ana["A/mmem"]


class TestBackendIdentity:
    def test_unmarked_task_is_des(self):
        # A stock spec built without a backend runs every fig5/fig8 point
        # on the DES.  fig3 has one allocator path and no backend param,
        # so every backend flag builds the same points.
        for target in ("fig5", "fig8"):
            spec = stock_sweep_spec(target, quick=True)
            assert set(_backends(spec).values()) == {"des"}
        fig3 = [stock_sweep_spec("fig3", quick=True, backend=backend).points
                for backend in ("des", "analytic", "auto")]
        assert all("backend" not in point.params for point in fig3[0])
        assert fig3[0] == fig3[1] == fig3[2]

    def test_forced_backend_fills_every_point(self):
        for backend in ("des", "analytic"):
            spec = stock_sweep_spec("fig5", quick=True, backend=backend)
            assert len(spec.points) == 28
            assert set(_backends(spec).values()) == {backend}

    def test_auto_resolves_per_point(self):
        spec = stock_sweep_spec("fig5", quick=True, backend="auto")
        routed = _backends(spec)
        des = sorted(key for key, backend in routed.items() if backend == "des")
        assert des == [f"{w}/hot-promote" for w in "ABCD"]
        assert list(routed.values()).count("analytic") == 24

    def test_fig8_auto_is_analytic(self):
        spec = stock_sweep_spec("fig8", quick=True, backend="auto")
        assert _backends(spec) == {"mmem": "analytic", "cxl": "analytic"}


class TestFingerprintSeparation:
    def test_backends_never_alias(self):
        des = point_fingerprint("fig5_cell", {**PARAMS, "backend": "des"}, 7)
        ana = point_fingerprint("fig5_cell", {**PARAMS, "backend": "analytic"}, 7)
        assert des != ana

    def test_default_backend_is_des(self):
        assert set(_backends(fig5_sweep_spec()).values()) == {"des"}
        assert set(_backends(fig8_sweep_spec()).values()) == {"des"}

    def test_model_version_bumps_invalidate(self):
        # The code fingerprint hashes every model source, so editing the
        # analytic model re-addresses its points.
        params = {**PARAMS, "backend": "analytic"}
        before = point_fingerprint("fig5_cell", params, 7, code_fp="a" * 64)
        after = point_fingerprint("fig5_cell", params, 7, code_fp="b" * 64)
        assert before != after

    def test_cache_keys_diverge_per_backend(self, tmp_path):
        _assert_keys_follow_backend(tmp_path)

    def test_chaos_wrapped_backends_never_alias(self, tmp_path):
        # Every wrapped point runs chaos_task; the backend travels inside
        # the wrapped params, so wrapping keeps the same separation.
        _assert_keys_follow_backend(tmp_path, chaos=ChaosPlan(seed=1))
