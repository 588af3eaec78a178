"""Overload layer: offered load vs goodput, with and without control.

The acceptance contract of the overload subsystem:

* **Goodput plateau** — open-loop KeyDB swept past its capacity knee:
  with admission control, goodput at 1.5x the knee stays within 10% of
  its peak across the sweep; uncontrolled, goodput collapses and p99
  diverges (the backlog drags every response past its deadline).
* **SLO-aware fault shedding** — under the catalog's ``link-degrade``
  scenario, capacity-loss shedding keeps the deadline-miss rate
  strictly below the uncontrolled baseline's.

The curves are built as ``repro sweep overload --quick --mode MODE``
builds them: the stock spec, ``run_sweep``, ``offered_load_from_sweep``.
"""

import math

import pytest

from repro.analysis import ascii_table
from repro.cli import stock_sweep_spec
from repro.overload import run_fault_comparison
from repro.overload.runner import offered_load_from_sweep, offered_load_sweep_spec
from repro.parallel import run_sweep

SEED = 0xC0FFEE
FACTORS = [0.5, 0.75, 1.0, 1.25, 1.5]
RECORDS = 4096
DURATION_NS = 20e6


@pytest.fixture(scope="module")
def sweeps():
    out = {}
    for controlled in (True, False):
        spec = stock_sweep_spec(
            "overload", quick=True, seed=SEED,
            mode="controlled" if controlled else "uncontrolled",
        )
        assert [p.params["load_factor"] for p in spec.points] == FACTORS
        out[controlled] = offered_load_from_sweep(
            spec, run_sweep(spec).raise_failures()
        )
    return out


@pytest.fixture(scope="module")
def fault_runs():
    return run_fault_comparison(
        scenario="link-degrade",
        duration_ns=DURATION_NS,
        record_count=RECORDS,
        seed=SEED,
    )


def _sweep_rows(summaries):
    return [
        (
            f"{s.load_factor:.2f}x",
            f"{s.goodput_ops_per_s / 1e3:.0f}",
            f"{s.throughput_ops_per_s / 1e3:.0f}",
            f"{s.shed_rate * 100:.1f}%",
            f"{s.deadline_miss_rate * 100:.1f}%",
            "n/a" if math.isnan(s.p99_ns) else f"{s.p99_ns / 1e3:.1f}",
        )
        for s in summaries
    ]


def test_goodput_plateau_with_admission_control(benchmark, sweeps, report):
    benchmark.pedantic(
        lambda: run_sweep(offered_load_sweep_spec(
            factors=[1.5],
            controlled=True,
            duration_ns=DURATION_NS,
            record_count=RECORDS,
            seed=SEED,
        )).raise_failures(),
        rounds=1,
    )
    headers = ["load", "goodput k/s", "tput k/s", "shed", "miss", "p99 us"]
    report(
        "overload_goodput_curve",
        ascii_table(headers, _sweep_rows(sweeps[True]),
                    title="controlled (admission + deadlines)")
        + "\n"
        + ascii_table(headers, _sweep_rows(sweeps[False]),
                      title="uncontrolled (monitor only)"),
    )

    controlled = sweeps[True]
    peak = max(s.goodput_ops_per_s for s in controlled)
    at_150 = next(s for s in controlled if s.load_factor == 1.5)
    # Past the knee the controlled curve is flat: 1.5x offered load keeps
    # goodput within 10% of the sweep's peak.
    assert at_150.goodput_ops_per_s >= 0.9 * peak, (
        at_150.goodput_ops_per_s,
        peak,
    )
    # The excess load went somewhere visible: admission rejections.
    assert at_150.rejected > 0


def test_uncontrolled_baseline_collapses(benchmark, sweeps, report):
    benchmark.pedantic(lambda: None, rounds=1)  # artifact test; timing above
    controlled = {s.load_factor: s for s in sweeps[True]}
    uncontrolled = {s.load_factor: s for s in sweeps[False]}
    report(
        "overload_baseline_collapse",
        ascii_table(
            ["load", "goodput ctl k/s", "goodput unctl k/s",
             "p99 ctl us", "p99 unctl us"],
            [
                (
                    f"{f:.2f}x",
                    f"{controlled[f].goodput_ops_per_s / 1e3:.0f}",
                    f"{uncontrolled[f].goodput_ops_per_s / 1e3:.0f}",
                    f"{controlled[f].p99_ns / 1e3:.1f}",
                    f"{uncontrolled[f].p99_ns / 1e3:.1f}",
                )
                for f in FACTORS
            ],
        ),
    )
    # Below the knee the two modes agree (backward-compatible behaviour).
    assert uncontrolled[0.5].goodput_ops_per_s == pytest.approx(
        controlled[0.5].goodput_ops_per_s, rel=0.05
    )
    # Past the knee the uncontrolled run degrades: goodput collapses
    # while raw throughput stays high (late completions, not useful ones)
    # and p99 diverges by orders of magnitude.
    over = uncontrolled[1.5]
    assert over.goodput_ops_per_s < 0.25 * controlled[1.5].goodput_ops_per_s
    assert over.throughput_ops_per_s > 0.8 * controlled[1.5].throughput_ops_per_s
    assert over.p99_ns > 10 * controlled[1.5].p99_ns
    assert over.deadline_miss_rate > 0.5


def test_fault_shedding_beats_uncontrolled(benchmark, fault_runs, report):
    benchmark.pedantic(lambda: None, rounds=1)
    report(
        "overload_fault_shedding",
        "\n".join(
            ascii_table(["quantity", "value"], s.rows(), title=label)
            for label, s in fault_runs.items()
        ),
    )
    controlled = fault_runs["controlled"]
    uncontrolled = fault_runs["uncontrolled"]
    # SLO-aware shedding holds the deadline-miss rate strictly below the
    # uncontrolled baseline's while the link is degraded...
    assert controlled.deadline_miss_rate < uncontrolled.deadline_miss_rate
    # ...by refusing work (sheds/rejections) instead of serving it late.
    assert controlled.rejected + controlled.shed > 0
    # And the goodput it salvages exceeds the uncontrolled run's.
    assert controlled.goodput_ops_per_s > uncontrolled.goodput_ops_per_s
