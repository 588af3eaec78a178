"""Tests for the figure specs and assemblers, run as ``repro sweep``
runs them (small scales; stock runs in benchmarks/)."""

import pytest

from repro.analysis import (
    TABLE1,
    TABLE3,
    TABLE4,
    ascii_bars,
    ascii_series,
    ascii_table,
    table2_rows,
)
from repro.analysis.figures import (
    FIG3_PANELS,
    fig3_from_sweep,
    fig3_sweep_spec,
    fig4_from_sweep,
    fig4_sweep_spec,
    fig5_from_sweep,
    fig5_sweep_spec,
    fig8_from_sweep,
    fig8_sweep_spec,
    fig10_from_sweep,
    fig10_sweep_spec,
)
from repro.parallel import run_sweep


class TestTables:
    def test_table1_has_seven_configs(self):
        assert len(TABLE1) == 7
        names = [name for name, _ in TABLE1]
        assert names[0] == "mmem" and names[-1] == "hot-promote"

    def test_table2_rows(self):
        rows = table2_rows()
        assert len(rows) == 5
        assert rows[0][1] == "IceLake-SP"

    def test_table3_has_example_values(self):
        by_name = {row[0]: row[2] for row in TABLE3}
        assert by_name["R_d"] == "10"
        assert by_name["R_c"] == "8"
        assert by_name["C"] == "2"
        assert by_name["R_t"] == "1.1"

    def test_table4_tier_mapping(self):
        mapping = dict(TABLE4)
        assert mapping["Local GPU HBM"] == "Local DDR"
        assert mapping["Local CPU DDR"] == "CXL memory expansion"


class TestReportRendering:
    def test_ascii_table(self):
        text = ascii_table(["a", "bb"], [[1, 2], ["xxx", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "xxx" in text and "bb" in text

    def test_ascii_bars(self):
        text = ascii_bars(["one", "two"], [1.0, 2.0], width=10, unit="x")
        assert "one" in text and "#" in text
        with pytest.raises(ValueError):
            ascii_bars(["one"], [1.0, 2.0])

    def test_ascii_bars_zero_values(self):
        text = ascii_bars(["z"], [0.0])
        assert "0.00" in text

    def test_ascii_series(self):
        text = ascii_series([(1.0, 5.0), (2.0, 10.0)], "load", "lat")
        assert "load" in text and "*" in text


class TestFig3Runner:
    @pytest.fixture(scope="class")
    def panels(self):
        spec = fig3_sweep_spec(load_points=6)
        return fig3_from_sweep(spec, run_sweep(spec).raise_failures())

    def test_all_panels_present(self, panels):
        assert set(panels) == set(FIG3_PANELS)

    def test_mix_legend(self, panels):
        assert set(panels["mmem"]) == {"1:0", "2:1", "1:1", "0:1"}

    def test_idle_latency_ordering_across_panels(self, panels):
        idles = [panels[p]["1:0"].idle_latency_ns for p in FIG3_PANELS]
        assert idles == sorted(idles)

    def test_mmem_read_peak(self, panels):
        assert panels["mmem"]["1:0"].peak_bandwidth_gbps == pytest.approx(
            67.0, rel=0.02
        )


class TestFig5Runner:
    def test_small_run_structure(self):
        spec = fig5_sweep_spec(
            workloads=("C",),
            configs=("mmem", "1:1"),
            record_count=8192,
            total_ops=8000,
        )
        result = fig5_from_sweep(spec, run_sweep(spec).raise_failures())
        table = result.throughput_table()
        assert [row[0] for row in table] == ["mmem", "1:1"]
        assert result.slowdown("C", "1:1") > 1.0


class TestFig8Runner:
    def test_shape(self):
        spec = fig8_sweep_spec(record_count=8192, total_ops=10_000)
        result = fig8_from_sweep(spec, run_sweep(spec).raise_failures())
        assert 0.05 <= result.throughput_drop <= 0.20
        assert result.latency_penalty(50.0) > 0.0


class TestFig10Runner:
    def test_structure(self):
        spec = fig10_sweep_spec(backend_counts=(1, 5))
        result = fig10_from_sweep(spec, run_sweep(spec).raise_failures())
        assert set(result.serving) == {"mmem", "3:1", "1:1", "1:3"}
        assert result.rate("3:1", 60) > result.rate("mmem", 60)
        with pytest.raises(KeyError):
            result.rate("mmem", 999)
        assert result.fig10b[-1][1] == pytest.approx(24.2, abs=0.5)
        assert result.fig10c[0][1] < result.fig10c[-1][1]


class TestFig4Runner:
    def test_structure_and_patterns(self):
        spec = fig4_sweep_spec(
            write_fractions_mixes=((1, 0), (0, 1)),
            load_points=4,
        )
        data = fig4_from_sweep(spec, run_sweep(spec).raise_failures())
        assert set(data) == {"sequential", "random"}
        assert set(data["sequential"]) == {"1:0", "0:1"}
        panels = data["sequential"]["1:0"]
        assert set(panels) == {"mmem", "mmem-r", "cxl", "cxl-r"}
        # Pattern insensitivity holds through the sweep too.
        assert data["random"]["1:0"]["mmem"].peak_bandwidth_gbps == pytest.approx(
            data["sequential"]["1:0"]["mmem"].peak_bandwidth_gbps
        )
