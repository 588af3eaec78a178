"""Fig. 7: Spark TPC-H execution time and shuffle share per config.

Regenerates both panels: (a) per-query execution time normalized to the
three-server MMEM deployment, (b) the shuffle write/read share of each
query's wall-clock.  Checks §4.2.2's bands: interleave 1.4-9.8x,
Hot-Promote >34 %, deep spill slower than any interleave and >90 %
shuffle-dominated.

The figure is built as ``repro sweep fig7`` builds it: the stock spec,
``run_sweep``, ``fig7_from_sweep``.  Its independent cells fan out across
processes when $REPRO_WORKERS is set (parallel results are bit-identical
to serial; see docs/architecture.md).
"""

import pytest

from repro.analysis import ascii_table
from repro.analysis.figures import fig7_from_sweep
from repro.apps.spark import SPARK_CONFIGS
from repro.cli import stock_sweep_spec
from repro.parallel import run_sweep
from repro.workloads import PAPER_QUERY_NAMES


@pytest.fixture(scope="module")
def results():
    spec = stock_sweep_spec("fig7")
    return fig7_from_sweep(spec, run_sweep(spec).raise_failures())


@pytest.fixture(scope="module")
def slowdowns(results):
    base = {q: r.total_ns for q, r in results["mmem"].items()}
    return {
        name: {q: r.total_ns / base[q] for q, r in per_query.items()}
        for name, per_query in results.items()
    }


def test_fig7a_normalized_execution_time(benchmark, results, slowdowns, report):
    spec = stock_sweep_spec("fig7")
    benchmark.pedantic(
        lambda: fig7_from_sweep(spec, run_sweep(spec).raise_failures()),
        rounds=1,
    )
    rows = [
        [name] + [f"{slowdowns[name][q]:.2f}" for q in PAPER_QUERY_NAMES]
        for name in SPARK_CONFIGS
    ]
    report(
        "fig7a_spark_normalized_time",
        ascii_table(["config"] + list(PAPER_QUERY_NAMES), rows),
    )

    interleave_ratios = [
        slowdowns[name][q]
        for name in ("3:1", "1:1", "1:3")
        for q in PAPER_QUERY_NAMES
    ]
    # §4.2.2: interleave slowdown ranges 1.4x ... 9.8x.
    assert min(interleave_ratios) == pytest.approx(1.4, abs=0.15)
    assert 6.0 <= max(interleave_ratios) <= 11.0
    # Hot-Promote: more than 34 % slowdown vs MMEM.
    assert all(slowdowns["hot-promote"][q] >= 1.34 for q in PAPER_QUERY_NAMES)
    # Interleaving is significantly faster than (deep) SSD spilling.
    for q in PAPER_QUERY_NAMES:
        assert slowdowns["spill-0.6"][q] > max(
            slowdowns[name][q] for name in ("3:1", "1:1", "1:3")
        )


def test_fig7b_shuffle_share(benchmark, results, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    rows = []
    for name in SPARK_CONFIGS:
        for q in PAPER_QUERY_NAMES:
            r = results[name][q]
            rows.append(
                (
                    name,
                    q,
                    f"{r.shuffle_write_ns / r.total_ns * 100:.0f}%",
                    f"{r.shuffle_read_ns / r.total_ns * 100:.0f}%",
                    f"{r.shuffle_fraction * 100:.0f}%",
                )
            )
    report(
        "fig7b_shuffle_share",
        ascii_table(["config", "query", "shuffle write", "shuffle read", "total"], rows),
    )
    # Fig. 7(b): spill intensification makes shuffle overshadow everything.
    for q in PAPER_QUERY_NAMES:
        assert results["spill-0.6"][q].shuffle_fraction > 0.9
        assert (
            results["spill-0.6"][q].shuffle_fraction
            > results["mmem"][q].shuffle_fraction
        )


def test_fig7_spill_volumes(benchmark, results, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing in sibling bench
    rows = []
    for name in ("spill-0.8", "spill-0.6"):
        total = sum(r.spilled_bytes for r in results[name].values())
        rows.append((name, f"{total / 1e9:.0f} GB"))
    report("fig7_spill_volumes", ascii_table(["config", "spilled"], rows))
    spilled_08 = sum(r.spilled_bytes for r in results["spill-0.8"].values())
    spilled_06 = sum(r.spilled_bytes for r in results["spill-0.6"].values())
    # §4.2.1: "around 320 GB and 500 GB data spilled" — same order, same
    # ordering (the model spills a bit less at 0.8 and more at 0.6).
    assert 50e9 < spilled_08 < 500e9
    assert 400e9 < spilled_06 < 1200e9
    assert spilled_06 > spilled_08
