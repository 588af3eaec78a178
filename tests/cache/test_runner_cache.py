"""Cache-aware sweeps: warm hits, crash resume, failure exclusion."""

import os
import pickle

import pytest

from repro.cache import SweepCache
from repro.parallel import SweepPoint, SweepSpec, run_sweep, tasks


def logging_point(params, seed):
    """Module-level (spawn-importable): records each execution on disk."""
    log_dir = params["log_dir"]
    marker = os.path.join(log_dir, f"{params['name']}.{seed}")
    with open(marker, "a") as fh:
        fh.write("x\n")
    return {"name": params["name"], "seed": seed}


def failing_point(params, seed):
    if params["poison"]:
        raise RuntimeError("poisoned")
    return seed


def _logging_spec(log_dir, n=5):
    return SweepSpec(
        name="logged",
        task=logging_point,
        points=tuple(
            SweepPoint(
                key=f"p{i}",
                params={"name": f"p{i}", "log_dir": str(log_dir)},
                seed=100 + i,
            )
            for i in range(n)
        ),
    )


def _executions(log_dir):
    return sum(
        sum(1 for _ in open(os.path.join(log_dir, fn)))
        for fn in os.listdir(log_dir)
    )


class TestWarmRuns:
    def test_warm_run_serves_every_point(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        log = tmp_path / "log"
        log.mkdir()
        spec = _logging_spec(log)

        cold = run_sweep(spec, workers=1, cache=cache)
        assert cold.cache_stats.misses == 5 and cold.cache_stats.stores == 5
        assert cold.cache_stats.hits == 0 and cold.cache_stats.resumed == 0
        assert not any(pr.cached for pr in cold.results)
        assert _executions(str(log)) == 5

        warm = run_sweep(spec, workers=1, cache=cache)
        assert warm.cache_stats.hits == 5 and warm.cache_stats.misses == 0
        assert all(pr.cached for pr in warm.results)
        assert all(pr.elapsed_s == 0.0 for pr in warm.results)
        # A full-hit run is not a "resume" — nothing executed.
        assert warm.cache_stats.resumed == 0
        assert _executions(str(log)) == 5  # nothing re-ran
        assert [pr.value for pr in warm.results] == [
            pr.value for pr in cold.results
        ]
        assert [pr.key for pr in warm.results] == [pr.key for pr in cold.results]

    def test_progress_fires_for_cached_points(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        log = tmp_path / "log"
        log.mkdir()
        spec = _logging_spec(log, n=3)
        run_sweep(spec, workers=1, cache=cache)
        calls = []
        run_sweep(
            spec, workers=1, cache=cache,
            progress=lambda done, total, pr: calls.append(
                (done, total, pr.key, pr.cached)
            ),
        )
        assert calls == [(1, 3, "p0", True), (2, 3, "p1", True), (3, 3, "p2", True)]

    def test_no_cache_keeps_stats_none(self):
        sweep = run_sweep(_demo_spec(), workers=1)
        assert sweep.cache_stats is None
        assert not any(pr.cached for pr in sweep.results)


def _demo_spec(n=4, poison=()):
    return SweepSpec(
        name="demo",
        task=tasks.demo_point,
        points=tuple(
            SweepPoint(
                key=f"p{i}",
                params={"draws": 32, "poison": i in poison},
                seed=100 + i,
            )
            for i in range(n)
        ),
    )


class TestResume:
    def test_interrupted_sweep_resumes_from_last_completed(self, tmp_path):
        cache = SweepCache(root=str(tmp_path / "cache"))
        log = tmp_path / "log"
        log.mkdir()
        spec = _logging_spec(log, n=5)

        def kill_after_two(done, total, pr):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=1, cache=cache, progress=kill_after_two)
        assert _executions(str(log)) == 2  # both persisted before the kill

        resumed = run_sweep(spec, workers=1, cache=cache)
        assert _executions(str(log)) == 5  # only the remaining 3 executed
        assert resumed.cache_stats.hits == 2
        assert resumed.cache_stats.misses == 3
        assert resumed.cache_stats.resumed == 2  # hits alongside executions
        assert [pr.cached for pr in resumed.results] == [
            True, True, False, False, False,
        ]
        assert resumed.ok and len(resumed.results) == 5

    def test_failed_points_never_cached(self, tmp_path):
        cache = SweepCache(root=str(tmp_path))
        spec = SweepSpec(
            name="flaky",
            task=failing_point,
            points=tuple(
                SweepPoint(key=f"p{i}", params={"poison": i == 1}, seed=i)
                for i in range(3)
            ),
        )
        first = run_sweep(spec, workers=1, cache=cache)
        assert not first.ok
        assert first.cache_stats.stores == 2  # only the ok points persisted
        second = run_sweep(spec, workers=1, cache=cache)
        assert second.cache_stats.hits == 2 and second.cache_stats.misses == 1
        assert not second.results[1].ok  # the poisoned point re-executed


class TestParallelWithCache:
    def test_pool_run_populates_and_serves(self, tmp_path):
        cache = SweepCache(root=str(tmp_path))
        spec = _demo_spec(n=6)
        cold = run_sweep(spec, workers=2, cache=cache)
        assert cold.workers == 2
        assert cold.cache_stats.misses == 6 and cold.cache_stats.stores == 6
        warm = run_sweep(spec, workers=2, cache=cache)
        # All points hit, so no pool is spun up at all.
        assert warm.workers == 1
        assert warm.cache_stats.hits == 6
        assert [pr.value for pr in warm.results] == [
            pr.value for pr in cold.results
        ]
        serial = run_sweep(spec, workers=1)
        assert [pr.value for pr in warm.results] == [
            pr.value for pr in serial.results
        ]


class TestFigureRunnerSharesSweepEntries:
    """A stock sweep served from the cache and a fresh run of the same
    grid assemble the same figure."""

    def test_fig5_runner_after_stock_sweep_executes_nothing(self, tmp_path):
        from repro.analysis.figures import fig5_from_sweep, fig5_sweep_spec
        from repro.cli import stock_sweep_spec

        # auto mixes both models: 4 DES cells, 24 analytic ones.
        root = str(tmp_path / "cache")
        spec = stock_sweep_spec("fig5", quick=True, backend="auto")
        swept = run_sweep(spec, workers=1, cache=SweepCache(root=root))
        assert swept.cache_stats.stores == len(spec.points) == 28

        # `repro sweep fig5 --quick --backend auto` again: all hits.
        again = run_sweep(spec, workers=1, cache=SweepCache(root=root))
        assert again.cache_stats.hits == 28 and again.cache_stats.misses == 0
        warm = fig5_from_sweep(spec, again)

        # The grid built again at the same scale, executing every cell
        # afresh without a cache.
        fresh = fig5_sweep_spec(record_count=16_384, total_ops=20_000,
                                backend="auto")
        cold = fig5_from_sweep(fresh, run_sweep(fresh, workers=1).raise_failures())
        # Pickled bytes compare every field (histogram buckets, Welford
        # state, counters) of the cached and the freshly computed results.
        for workload, per_config in cold.results.items():
            for config, result in per_config.items():
                assert pickle.dumps(warm.results[workload][config]) == (
                    pickle.dumps(result)
                )
