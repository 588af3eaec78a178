"""Fig. 8: KeyDB YCSB-C bound entirely to CXL vs entirely to MMEM (§4.3).

Checks the spare-core anchors: ~12.5 % throughput drop and a 9-27 %
read-latency penalty (well below the raw 2.5x path-latency ratio,
because Redis processing dominates), plus the §4.3.2 revenue arithmetic.

The figure is built as ``repro sweep fig8`` builds it (102,400 records x
150k ops): the stock spec, ``run_sweep``, ``fig8_from_sweep``.  Its
independent cells fan out across processes when $REPRO_WORKERS is set
(parallel results are bit-identical to serial; see docs/architecture.md).
"""

import pytest

from repro.analysis import ascii_table
from repro.analysis.figures import fig8_from_sweep, fig8_sweep_spec
from repro.cli import stock_sweep_spec
from repro.core import SpareCoreModel
from repro.parallel import run_sweep


@pytest.fixture(scope="module")
def fig8():
    spec = stock_sweep_spec("fig8")
    return fig8_from_sweep(spec, run_sweep(spec).raise_failures())


def test_fig8a_read_latency_cdf(benchmark, fig8, report):
    benchmark.pedantic(
        lambda: run_sweep(
            fig8_sweep_spec(record_count=20_480, total_ops=20_000)
        ).raise_failures(),
        rounds=1,
    )
    lines = []
    for name, result in (("mmem", fig8.mmem), ("cxl", fig8.cxl)):
        cdf = result.read_latency.cdf(points=12)
        series = " ".join(f"({p.value / 1000:.1f}us,{p.fraction:.2f})" for p in cdf)
        lines.append(f"{name:5s} {series}")
    report("fig8a_cxl_only_cdf", "\n".join(lines))

    # §4.3.2: 9-27 % latency penalty across the distribution.
    for percentile in (50.0, 95.0, 99.0):
        penalty = fig8.latency_penalty(percentile)
        assert 0.05 <= penalty <= 0.30, percentile


def test_fig8b_throughput(benchmark, fig8, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    rows = [
        ("mmem", f"{fig8.mmem.throughput_ops_per_s / 1e3:.0f}"),
        ("cxl", f"{fig8.cxl.throughput_ops_per_s / 1e3:.0f}"),
        ("drop", f"{fig8.throughput_drop * 100:.1f}%"),
    ]
    report("fig8b_cxl_only_throughput", ascii_table(["config", "kops/s"], rows))
    # §4.3.2: "around 12.5 % less".
    assert fig8.throughput_drop == pytest.approx(0.125, abs=0.04)


def test_fig8_revenue_analysis(benchmark, fig8, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    """§4.3.2's arithmetic with the *measured* performance penalty."""
    model = SpareCoreModel(actual_ratio=3.0, target_ratio=4.0, discount=0.20)
    rows = [
        ("sellable vCPUs", f"{model.sellable_fraction * 100:.0f}%"),
        ("stranded vCPUs", f"{model.stranded_fraction * 100:.0f}%"),
        ("measured perf penalty", f"{fig8.throughput_drop * 100:.1f}%"),
        ("instance discount", f"{model.discount * 100:.0f}%"),
        ("recovered revenue", f"{model.recovered_revenue_fraction * 100:.2f}%"),
    ]
    report("fig8_revenue", ascii_table(["quantity", "value"], rows))
    assert model.recovered_revenue_fraction == pytest.approx(20 / 75, abs=1e-9)
    # The discount more than covers the measured penalty.
    assert model.discount > fig8.throughput_drop
