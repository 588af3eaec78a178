"""End-to-end tests for ``repro metrics`` / ``repro trace``.

Runs the CLI in-process, captures stdout, and validates the JSON output
against the checked-in schemas — the same check CI's smoke step runs
from the shell."""

import csv
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.schema import validate

_SCHEMAS = Path(__file__).resolve().parents[2] / "docs" / "schemas"

QUICK = ["--quick", "--seed", "7"]


def _schema(name):
    with open(_SCHEMAS / name) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def metrics_json():
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["metrics", *QUICK, "--json"]) == 0
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def trace_json():
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["trace", *QUICK, "--json", "--limit", "4"]) == 0
    return json.loads(buf.getvalue())


class TestMetricsCommand:
    def test_json_matches_checked_in_schema(self, metrics_json):
        assert validate(_schema("metrics.schema.json"), metrics_json) == []

    def test_json_contains_expected_metrics(self, metrics_json):
        names = {m["name"] for m in metrics_json["metrics"]}
        assert "keydb_run" in names
        assert "keydb_read_latency_ns_p99" in names
        assert not [name for name in names if name.startswith("engine_")]

    def test_csv_output(self, capsys):
        assert main(["metrics", *QUICK, "--csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["name", "kind", "labels", "value"]
        assert all(len(r) == 4 for r in rows)

    def test_table_output(self, capsys):
        assert main(["metrics", *QUICK]) == 0
        out = capsys.readouterr().out
        assert "Metrics snapshot" in out
        assert "keydb_run" in out


class TestTraceCommand:
    def test_json_matches_checked_in_schema(self, trace_json):
        assert validate(_schema("trace.schema.json"), trace_json) == []

    def test_limit_respected(self, trace_json):
        assert len(trace_json["ops"]) == 4
        assert trace_json["op_count"] == 1_500

    def test_validation_embedded_and_clean(self, trace_json):
        check = trace_json["validation"]
        assert check["within_tolerance"] is True
        assert check["ops_checked"] == 1_500
        assert check["max_rel_error"] < 1e-9

    def test_table_output(self, capsys):
        assert main(["trace", *QUICK]) == 0
        out = capsys.readouterr().out
        assert "Per-layer latency breakdown" in out
        assert "[ok] span sums vs end-to-end latency" in out
        assert "dominant process" not in out
