"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_cost_defaults_are_paper_example(self):
        args = build_parser().parse_args(["cost"])
        assert (args.r_d, args.r_c, args.c, args.r_t) == (10.0, 8.0, 2.0, 1.1)

    @pytest.mark.parametrize("argv", [
        ["fig3"], ["fig4"], ["fig5", "--quick"], ["fig7"], ["fig8"], ["fig10"],
        ["overload", "sweep", "--quick"],
    ], ids=" ".join)
    def test_removed_figure_commands_exit_2(self, argv):
        # `repro sweep <target>` is the one entry point to a stock sweep.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestCommands:
    def test_cost_prints_paper_numbers(self, capsys):
        assert main(["cost"]) == 0
        out = capsys.readouterr().out
        assert "67.29%" in out
        assert "25.98%" in out

    def test_cost_custom_parameters(self, capsys):
        assert main(["cost", "--r-d", "5", "--r-c", "4", "--c", "1", "--r-t", "1.0"]) == 0
        assert "TCO saving" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--r-d", "0"], ["--r-t", "-1"], ["--r-d", "nan"], ["--r-d", "inf"],
        ["--r-t", "nan"],
    ])
    def test_cost_rejects_bad_parameters(self, capsys, flags):
        # Out-of-domain values raise CostModelError; NaN and inf pass
        # every `<=` check and would print a "nan%" table.
        assert main(["cost", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Table 2", "Table 3", "Table 4", "hot-promote"):
            assert marker in out

    def test_fig3_quick(self, capsys):
        assert main(["sweep", "fig3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[mmem]" in out and "[cxl-r]" in out

    def test_fig4_quick(self, capsys):
        assert main(["sweep", "fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[sequential]" in out and "[random]" in out

    def test_fig8_quick(self, capsys):
        assert main(["sweep", "fig8", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "throughput drop" in out
        assert "p99 latency penalty" in out

    def test_fig10(self, capsys):
        assert main(["sweep", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "tokens/s" in out
        assert "Fig. 10(b)" in out and "Fig. 10(c)" in out

    def test_advise(self, capsys):
        assert main(["advise", "--demand-gbps", "55", "--locality", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "tiering-thrash-risk" in out
        assert "interleave-offload" in out

    def test_advise_low_demand(self, capsys):
        assert main(["advise", "--demand-gbps", "5"]) == 0
        assert "dram-only-ok" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["--working-set-gib", "nan"], ["--working-set-gib", "inf"],
        ["--demand-gbps", "nan"], ["--demand-gbps", "inf"],
    ])
    def test_advise_rejects_non_finite_values(self, capsys, flags):
        # int() of a non-finite working set raises; a NaN demand fails
        # every comparison and an infinite one yields contradictory advice.
        assert main(["advise", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_faults_list(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("link-degrade", "poison", "device-loss", "meltdown"):
            assert name in out

    def test_faults_run_quick(self, capsys):
        assert main(
            ["faults", "run", "device-flap", "--app", "keydb", "--quick"]
        ) == 0
        out = capsys.readouterr().out
        assert "keydb under device-flap" in out
        assert "fault trace:" in out
        assert "OFFLINE" in out

    def test_faults_run_json(self, capsys):
        import json

        assert main(
            ["faults", "run", "link-degrade", "--app", "keydb",
             "--quick", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        run = payload[0]
        assert run["app"] == "keydb"
        assert run["scenario"] == "link-degrade"
        assert 0.0 <= run["availability"] <= 1.0
        assert run["report"] is None or "offered_ops" in run["report"]

    def test_overload_sweep_quick(self, capsys):
        assert main(
            ["sweep", "overload", "--quick", "--mode", "controlled"]
        ) == 0
        out = capsys.readouterr().out
        assert "controlled" in out
        assert "goodput" in out
        assert "0.50x" in out and "1.50x" in out

    def test_overload_sweep_json(self, capsys):
        import json

        assert main(
            ["sweep", "overload", "--quick", "--mode", "uncontrolled",
             "--json", "--no-progress"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.metrics/v1"
        offered = {
            m["labels"]["point"]: m["value"] for m in doc["metrics"]
            if m["name"] == "overload_offered_total"
        }
        assert set(offered) == {
            f"uncontrolled@{f:.2f}x" for f in (0.5, 0.75, 1.0, 1.25, 1.5)
        }
        assert all(value > 0 for value in offered.values())

    def test_overload_faults_json(self, capsys):
        import json

        assert main(
            ["overload", "faults", "--quick", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"controlled", "uncontrolled"}
        for entry in payload.values():
            assert entry["offered"] > 0


class TestWorkersFlag:
    def test_workers_accepted_on_sweep_shaped_commands(self):
        parser = build_parser()
        for argv in (
            ["sweep", "fig3", "--workers", "2"],
            ["sweep", "fig5", "--quick", "--workers", "4"],
            ["sweep", "overload", "--workers", "2"],
            ["faults", "run", "device-flap", "--workers", "2"],
        ):
            args = parser.parse_args(argv)
            assert args.workers in (2, 4)

    def test_workers_defaults_to_env_resolution(self):
        args = build_parser().parse_args(["sweep", "fig5"])
        assert args.workers is None  # runner falls back to $REPRO_WORKERS

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig5", "--workers", "0"])

    def test_tables_has_no_workers_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--workers", "2"])


class TestServeSettings:
    @pytest.mark.parametrize("flags", [
        ["--rate", "nan"],
        ["--rate", "5", "--burst", "nan"],
        ["--deadline", "nan"],
        ["--drain-budget", "nan"],
        ["--request-timeout", "nan"],
    ], ids=lambda flags: flags[-2])
    def test_non_finite_setting_exits_2_before_binding(self, flags):
        # A setting that passed validation would bind and serve forever:
        # the timeout turns that into a failure instead of a hang.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *flags],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail(f"repro serve {' '.join(flags)} started serving")
        assert proc.returncode == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


class TestRobustnessFlags:
    def test_accepted_on_sweep_shaped_commands(self):
        parser = build_parser()
        for argv in (
            ["sweep", "fig3", "--point-timeout", "30", "--retries", "4"],
            ["sweep", "overload", "--point-timeout", "10.5"],
            ["faults", "run", "device-flap", "--retries", "0"],
            ["sweep", "fig5", "--point-timeout", "5", "--retries", "1",
             "--fail-fast"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "point_timeout")
            assert hasattr(args, "retries")
            assert hasattr(args, "fail_fast")

    def test_defaults(self):
        args = build_parser().parse_args(["sweep", "fig5"])
        assert args.point_timeout is None
        assert args.retries == 2
        assert not args.fail_fast

    def test_bad_values_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "fig5", "--point-timeout", "0"])
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "fig5", "--retries", "-1"])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_point_timeout_rejected(self, value):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "fig5", "--point-timeout", value])
        assert exc.value.code == 2

    def test_tables_has_no_robustness_flags(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--retries", "1"])

    def test_supervise_built_from_flags(self):
        from repro.cli import _supervise

        args = build_parser().parse_args(
            ["sweep", "fig5", "--point-timeout", "30", "--retries", "4",
             "--fail-fast"]
        )
        config = _supervise(args)
        assert config.point_timeout_s == 30.0
        assert config.max_attempts == 5  # first try + 4 retries
        assert config.fail_fast

    def test_zero_retries_means_single_attempt(self):
        from repro.cli import _supervise

        args = build_parser().parse_args(["sweep", "fig5", "--retries", "0"])
        assert _supervise(args).max_attempts == 1

    def test_health_line_on_stderr_when_eventful(self, capsys, monkeypatch):
        # `repro faults run` prints its sweep's health only when eventful.
        import repro.parallel
        from repro.parallel import RunnerHealth, SweepResult

        health = RunnerHealth(retries=3, quarantined=1)
        monkeypatch.setattr(
            repro.parallel, "run_sweep",
            lambda spec, **kwargs: SweepResult(
                name=spec.name, base_seed=spec.base_seed, workers=1,
                results=[], runner_health=health,
            ),
        )
        argv = ["faults", "run", "device-flap", "--app", "keydb", "--quick"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "[faults device-flap] health:" in err
        assert "3 retries" in err and "1 quarantined" in err

        health.retries = health.quarantined = 0  # uneventful
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_sweep_emits_health_summary(self, capsys):
        assert main(["sweep", "fig8", "--quick", "--no-progress",
                     "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "health: 0 retries, 0 timeouts, 0 crashes" in err


class TestSweepCommand:
    def test_parser_requires_known_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig99"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep", "overload"])
        assert args.target == "overload"
        assert args.mode == "controlled"
        assert not args.json and not args.no_progress

    def test_all_figure_targets_parse(self):
        parser = build_parser()
        for target in ("fig3", "fig4", "fig5", "fig7", "fig8", "fig10"):
            args = parser.parse_args(["sweep", target, "--quick", "--seed", "7"])
            assert args.target == target
            assert args.quick and args.seed == 7


class TestCacheFlag:
    def test_no_cache_accepted_on_sweep_shaped_commands(self):
        parser = build_parser()
        for argv in (
            ["sweep", "fig3", "--no-cache"],
            ["sweep", "overload", "--no-cache"],
            ["faults", "run", "device-flap", "--no-cache"],
            ["sweep", "fig8", "--no-cache"],
        ):
            assert parser.parse_args(argv).no_cache

    def test_cache_defaults_on(self):
        assert not build_parser().parse_args(["sweep", "fig5"]).no_cache

    def test_tables_has_no_cache_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--no-cache"])


class TestCacheCommand:
    def test_parser_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_stats_on_empty_store(self, capsys):
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "code fingerprint" in out

    def test_stats_json_is_metrics_document(self, capsys):
        import json

        assert main(["cache", "stats", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.metrics/v1"
        names = {m["name"] for m in doc["metrics"]}
        assert {"sweep_cache_entries", "sweep_cache_bytes"} <= names

    def test_clear_and_verify_roundtrip(self, capsys):
        assert main(["cache", "verify"]) == 0
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out

    def test_sweep_populates_default_store(self, capsys):
        import os

        from repro.cache import SweepCache

        assert main(["faults", "run", "device-flap", "--app", "keydb",
                     "--quick"]) == 0
        cache = SweepCache()  # rooted at $REPRO_CACHE_DIR (see conftest)
        assert cache.root == os.environ["REPRO_CACHE_DIR"]
        assert len(cache) == 1
        assert cache.verify().ok
        assert main(["cache", "verify"]) == 0
        capsys.readouterr()

    def test_verify_exits_nonzero_on_corrupt_entry(self, capsys):
        import os

        from repro.cache import SweepCache

        assert main(["faults", "run", "device-flap", "--app", "keydb",
                     "--quick"]) == 0
        cache = SweepCache()
        info = next(iter(cache.entries()))
        with open(info.path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            fh.truncate(fh.tell() // 2)
        assert main(["cache", "verify"]) == 1
        capsys.readouterr()
        # Purge removes the damage and restores a clean exit.
        assert main(["cache", "verify", "--purge"]) == 1
        assert main(["cache", "verify"]) == 0
        capsys.readouterr()
