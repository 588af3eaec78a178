"""The cache store's shape surfaced through the repro.obs registry."""

from repro.cache import SweepCache, register_store_snapshot
from repro.obs import MetricsRegistry
from repro.parallel import SweepPoint, SweepSpec, run_sweep, tasks


def _spec(n=3):
    return SweepSpec(
        name="demo",
        task=tasks.demo_point,
        points=tuple(
            SweepPoint(key=f"p{i}", params={"draws": 16, "poison": False},
                       seed=i)
            for i in range(n)
        ),
    )


def _by_name(registry):
    out = {}
    for s in registry.samples():
        out.setdefault(s.name, []).append(s)
    return out


def test_store_snapshot_collector(tmp_path):
    cache = SweepCache(root=str(tmp_path))
    run_sweep(_spec(), workers=1, cache=cache)
    registry = MetricsRegistry()
    register_store_snapshot(registry, cache)
    named = _by_name(registry)
    assert named["sweep_cache_entries"][0].value == 3.0
    assert named["sweep_cache_bytes"][0].value > 0
    assert named["sweep_cache_max_bytes"][0].value == float(cache.max_bytes)
    assert named["sweep_cache_entries"][0].kind == "gauge"
