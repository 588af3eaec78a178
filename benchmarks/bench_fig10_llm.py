"""Fig. 10: CPU LLM inference serving under SNC-4 bandwidth starvation.

Regenerates all three panels and checks the §5.2 anchors: near-linear
scaling to 48 threads, 3:1 ~95 % over MMEM-only at 60 threads, MMEM-only
losing to 1:3 beyond 64 threads, the 24.2 GB/s single-backend plateau,
and the ~12 → ~21 GB/s KV-cache bandwidth ramp.

The figure is built as ``repro sweep fig10`` builds it: the stock spec,
``run_sweep``, ``fig10_from_sweep``.  Its independent cells fan out across
processes when $REPRO_WORKERS is set (parallel results are bit-identical
to serial; see docs/architecture.md).
"""

import pytest

from repro.analysis import ascii_series, ascii_table
from repro.analysis.figures import fig10_from_sweep, fig10_sweep_spec
from repro.apps.llm import LLM_CONFIGS
from repro.cli import stock_sweep_spec
from repro.parallel import run_sweep


@pytest.fixture(scope="module")
def fig10():
    spec = stock_sweep_spec("fig10")
    return fig10_from_sweep(spec, run_sweep(spec).raise_failures())


def test_fig10a_serving_rate(benchmark, fig10, report):
    spec = fig10_sweep_spec(backend_counts=(1, 5))
    benchmark.pedantic(
        lambda: fig10_from_sweep(spec, run_sweep(spec).raise_failures()),
        rounds=1,
    )
    thread_counts = [p.threads for p in fig10.serving["mmem"]]
    rows = []
    for threads in thread_counts:
        rows.append(
            [threads] + [f"{fig10.rate(c, threads):.0f}" for c in LLM_CONFIGS]
        )
    report(
        "fig10a_llm_serving_rate",
        ascii_table(["threads"] + list(LLM_CONFIGS), rows),
    )

    # Near-linear to 36 threads (§5.2).
    assert fig10.rate("mmem", 36) / fig10.rate("mmem", 12) == pytest.approx(
        3.0, abs=0.2
    )
    # 3:1 surpasses MMEM-only by ~95 % at 60 threads.
    gain = fig10.rate("3:1", 60) / fig10.rate("mmem", 60)
    assert gain == pytest.approx(1.95, abs=0.25)
    # MMEM-heavy interleaves are best at 60 threads.
    assert fig10.rate("3:1", 60) > fig10.rate("1:1", 60) > fig10.rate("1:3", 60)
    # MMEM-only trails 1:3 beyond 64 threads (~14 %).
    deficit = fig10.rate("1:3", 72) / fig10.rate("mmem", 72) - 1.0
    assert 0.05 <= deficit <= 0.30


def test_fig10b_single_backend_bandwidth(benchmark, fig10, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    report(
        "fig10b_backend_bandwidth",
        ascii_series(
            [(float(t), bw) for t, bw in fig10.fig10b],
            x_label="threads",
            y_label="GB/s",
        ),
    )
    by_threads = dict(fig10.fig10b)
    # Linear growth, plateau at 24.2 GB/s from 24 threads (§5.2).
    assert by_threads[12] == pytest.approx(12.6, abs=0.5)
    assert by_threads[24] == pytest.approx(24.2, abs=0.5)
    assert by_threads[32] == pytest.approx(24.2, abs=0.5)


def test_fig10c_kv_cache_bandwidth(benchmark, fig10, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    report(
        "fig10c_kv_cache_bandwidth",
        ascii_series(
            [(float(kv), bw) for kv, bw in fig10.fig10c],
            x_label="KV GiB",
            y_label="GB/s",
        ),
    )
    values = [bw for _, bw in fig10.fig10c]
    # ~12 GB/s model-load floor, monotone ramp, ~21 GB/s plateau (§5.2).
    assert values[0] == pytest.approx(12.0, abs=2.0)
    assert values == sorted(values)
    assert values[-1] == pytest.approx(21.0, abs=1.5)
