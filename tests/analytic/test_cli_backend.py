"""The ``--backend`` flag: parsing, routing, guards, summary line."""

import json

import pytest

from repro.cli import build_parser, main, stock_sweep_spec
from repro.errors import ConfigurationError


class TestParsing:
    def test_default_is_des(self):
        args = build_parser().parse_args(["sweep", "fig5", "--quick"])
        assert args.backend == "des"

    @pytest.mark.parametrize("backend", ["des", "analytic", "auto"])
    def test_accepted_values(self, backend):
        args = build_parser().parse_args(
            ["sweep", "fig5", "--backend", backend]
        )
        assert args.backend == backend

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig5", "--backend", "magic"])

    @pytest.mark.parametrize(
        "command", ["fig3", "fig4", "fig5", "fig7", "fig8", "fig10"]
    )
    def test_every_figure_command_has_the_flag(self, command):
        args = build_parser().parse_args(["sweep", command, "--backend", "auto"])
        assert args.backend == "auto"


class TestStockSweepSpec:
    def test_analytic_spec_builds_for_fast_path_targets(self):
        for target in ("fig3", "fig4", "fig5", "fig8"):
            spec = stock_sweep_spec(target, quick=True, backend="analytic")
            assert spec.points

    def test_forced_analytic_rejected_without_fast_path(self):
        for target in ("fig7", "fig10", "overload"):
            with pytest.raises(ConfigurationError,
                               match="no analytical backend"):
                stock_sweep_spec(target, quick=True, backend="analytic")

    def test_auto_keeps_transient_targets_on_des(self):
        des = stock_sweep_spec("fig7", quick=True, backend="des")
        auto = stock_sweep_spec("fig7", quick=True, backend="auto")
        assert auto.task is des.task

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            stock_sweep_spec("fig5", quick=True, backend="magic")

    def test_backend_selects_distinct_params(self):
        des = stock_sweep_spec("fig5", quick=True, backend="des")
        ana = stock_sweep_spec("fig5", quick=True, backend="analytic")
        assert des.task is ana.task
        for d, a in zip(des.points, ana.points):
            assert (d.params["backend"], a.params["backend"]) == ("des", "analytic")
            assert {**d.params, "backend": "analytic"} == a.params

    @pytest.mark.parametrize("target", ["fig3", "fig4"])
    def test_mlc_targets_run_one_path_for_every_backend(self, target):
        specs = [stock_sweep_spec(target, quick=True, backend=backend)
                 for backend in ("des", "analytic", "auto")]
        for spec in specs[1:]:
            assert spec.task is specs[0].task
            assert [p.params for p in spec.points] == [
                p.params for p in specs[0].points
            ]


class TestEndToEnd:
    def test_forced_analytic_on_fig7_exits_2(self, capsys):
        assert main(["sweep", "fig7", "--quick", "--backend", "analytic",
                     "--no-progress"]) == 2
        assert "no analytical backend" in capsys.readouterr().err

    def test_faults_command_guard(self, capsys):
        assert main(["faults", "run", "device-flap", "--app", "keydb",
                     "--quick", "--backend", "analytic"]) == 2
        assert "no analytical backend" in capsys.readouterr().err

    def test_auto_sweep_prints_routing_summary(self, capsys):
        assert main(["sweep", "fig5", "--quick", "--backend", "auto",
                     "--no-progress", "--no-cache", "--json"]) == 0
        captured = capsys.readouterr()
        assert "[sweep fig5] backend: 24 analytic, 4 des\n" in captured.err
        doc = json.loads(captured.out)
        assert doc["schema"] == "repro.metrics/v1"

    def test_des_sweep_prints_no_routing_summary(self, capsys):
        assert main(["sweep", "fig8", "--quick", "--backend", "des",
                     "--no-progress", "--no-cache"]) == 0
        assert "backend:" not in capsys.readouterr().err

    def test_analytic_fig8_export_is_valid_metrics_v1(self, capsys):
        assert main(["sweep", "fig8", "--quick", "--backend", "analytic",
                     "--no-progress", "--no-cache", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.metrics/v1"
        assert doc["metrics"]
