"""Fig. 4: MMEM vs CXL across distances, mixes and access patterns.

Panels (a)-(f) sweep six read:write mixes over all four distances in
sequential order; (g)/(h) repeat read-only and write-only with random
access.  Checks the §3.3 claims: the CXL:DDR latency ratios, the
knee-point's leftward shift with write share, and pattern insensitivity.

The figure is built as ``repro sweep fig4`` builds it: the stock spec,
``run_sweep``, ``fig4_from_sweep``.  Its independent cells fan out across
processes when $REPRO_WORKERS is set (parallel results are bit-identical
to serial; see docs/architecture.md).
"""

import pytest

from repro.analysis import ascii_table
from repro.analysis.figures import fig4_from_sweep, fig4_sweep_spec
from repro.cli import stock_sweep_spec
from repro.parallel import run_sweep


@pytest.fixture(scope="module")
def data():
    spec = stock_sweep_spec("fig4")
    return fig4_from_sweep(spec, run_sweep(spec).raise_failures())


def test_fig4_sequential_mix_sweep(benchmark, data, report):
    spec = fig4_sweep_spec(patterns=("sequential",), load_points=24)
    sequential = benchmark.pedantic(
        lambda: fig4_from_sweep(spec, run_sweep(spec).raise_failures())[
            "sequential"
        ],
        rounds=1,
    )
    rows = []
    for mix, panels in sequential.items():
        for panel, curve in panels.items():
            rows.append(
                (
                    mix,
                    panel,
                    f"{curve.idle_latency_ns:.1f}",
                    f"{curve.peak_bandwidth_gbps:.1f}",
                )
            )
    report(
        "fig4_sequential",
        ascii_table(["read:write", "path", "idle ns", "peak GB/s"], rows),
    )

    # §3.3: CXL is 2.4-2.6x local DDR, 1.5-1.92x remote DDR (read mixes).
    for mix in ("1:0", "3:1", "2:1"):
        panels = sequential[mix]
        ratio_local = panels["cxl"].idle_latency_ns / panels["mmem"].idle_latency_ns
        ratio_remote = panels["cxl"].idle_latency_ns / panels["mmem-r"].idle_latency_ns
        assert 2.2 <= ratio_local <= 2.7
        # The paper quotes 1.5-1.92x for reads; mixed-write mixes run a
        # little higher because NT writes cut the remote idle latency.
        assert 1.4 <= ratio_remote <= 2.3


def test_fig4_knee_shifts_left_with_writes(benchmark, data, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    sequential = data["sequential"]
    rows = []
    knees = []
    for mix in ("1:0", "2:1", "1:1", "1:2", "0:1"):
        curve = sequential[mix]["mmem"]
        knee_gbps = curve.knee_bandwidth_fraction() * curve.peak_bandwidth_gbps
        knees.append(knee_gbps)
        rows.append((mix, f"{knee_gbps:.1f}"))
    report("fig4_knee_shift", ascii_table(["read:write", "knee GB/s"], rows))
    # Absolute knee bandwidth decreases monotonically with write share.
    assert knees == sorted(knees, reverse=True)


def test_fig4_random_pattern_no_disparity(benchmark, data, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    """§3.3: 'we do not observe any significant performance disparities'
    between sequential and random patterns."""
    rows = []
    for mix in ("1:0", "0:1"):
        for panel in ("mmem", "cxl"):
            seq = data["sequential"][mix][panel]
            rnd = data["random"][mix][panel]
            rows.append(
                (
                    mix,
                    panel,
                    f"{seq.peak_bandwidth_gbps:.1f}",
                    f"{rnd.peak_bandwidth_gbps:.1f}",
                )
            )
            assert rnd.peak_bandwidth_gbps == pytest.approx(
                seq.peak_bandwidth_gbps, rel=0.01
            )
            assert rnd.idle_latency_ns == pytest.approx(seq.idle_latency_ns, rel=0.01)
    report(
        "fig4_random_vs_sequential",
        ascii_table(["mix", "path", "seq GB/s", "rand GB/s"], rows),
    )
