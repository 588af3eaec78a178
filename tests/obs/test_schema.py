"""Tests for the JSON-schema-subset validator."""

import json

import pytest

from repro.obs.schema import main as schema_main
from repro.obs.schema import validate


class TestValidate:
    def test_type_checks(self):
        assert validate({"type": "object"}, {}) == []
        assert validate({"type": "object"}, []) != []
        assert validate({"type": ["number", "null"]}, None) == []
        assert validate({"type": ["number", "null"]}, 3.5) == []
        assert validate({"type": ["number", "null"]}, "x") != []

    def test_bool_is_not_a_number(self):
        assert validate({"type": "number"}, True) != []
        assert validate({"type": "boolean"}, True) == []

    def test_integer_accepts_integral_float(self):
        assert validate({"type": "integer"}, 3.0) == []
        assert validate({"type": "integer"}, 3.5) != []

    def test_const_and_enum(self):
        assert validate({"const": "v1"}, "v1") == []
        assert validate({"const": "v1"}, "v2") != []
        assert validate({"enum": ["a", "b"]}, "b") == []
        assert validate({"enum": ["a", "b"]}, "c") != []

    def test_required_and_additional_properties(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "additionalProperties": False,
            "properties": {"a": {"type": "integer"}},
        }
        assert validate(schema, {"a": 1}) == []
        assert validate(schema, {}) != []
        assert validate(schema, {"a": 1, "b": 2}) != []

    def test_nested_paths_in_messages(self):
        schema = {
            "type": "object",
            "properties": {
                "xs": {"type": "array", "items": {"type": "number"}}
            },
        }
        (error,) = validate(schema, {"xs": [1.0, "bad"]})
        assert "$.xs[1]" in error

    def test_bounds_and_min_items(self):
        assert validate({"minimum": 0}, -1) != []
        assert validate({"maximum": 0.01}, 0.5) != []
        assert validate({"type": "array", "minItems": 1}, []) != []

    def test_pattern(self):
        schema = {"type": "string", "pattern": "^[a-z_]+$"}
        assert validate(schema, "ok_name") == []
        assert validate(schema, "Bad Name") != []

    def test_unsupported_type_keyword_raises(self):
        with pytest.raises(ValueError):
            validate({"type": "tuple"}, [])


class TestCliEntry:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_passing_document(self, tmp_path, capsys):
        schema = self._write(tmp_path / "s.json", {"type": "object"})
        data = self._write(tmp_path / "d.json", {"x": 1})
        assert schema_main([schema, data]) == 0
        assert "OK" in capsys.readouterr().out

    def test_failing_document(self, tmp_path, capsys):
        schema = self._write(
            tmp_path / "s.json", {"type": "object", "required": ["missing"]}
        )
        data = self._write(tmp_path / "d.json", {})
        assert schema_main([schema, data]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_usage_error(self, capsys):
        assert schema_main(["only-one-arg"]) == 2


class TestCheckedInSchemas:
    """The shipped schemas accept what the exporters actually emit."""

    def _load(self, name):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        with open(root / "docs" / "schemas" / name) as f:
            return json.load(f)

    def test_metrics_schema_matches_registry_output(self):
        from repro.obs import MetricsRegistry, histogram_samples
        from repro.sim.stats import LatencyHistogram

        reg = MetricsRegistry()
        reg.gauge("util", "utilization", ("node",)).set(0.5, node="cxl0")
        hist = LatencyHistogram()
        hist.record(100.0)
        reg.register_collector(lambda: histogram_samples("lat_ns", {}, hist))
        doc = json.loads(reg.to_json())
        assert validate(self._load("metrics.schema.json"), doc) == []

    def test_trace_schema_matches_tracer_output(self):
        from repro.obs import Tracer

        tracer = Tracer()
        op = tracer.op("ycsb.get", 0.0)
        op.span("admission", "queue_wait", 0.0, 5.0)
        op.span("app", "redis_cpu", 5.0, 5.0, accesses=3)
        op.finish(10.0)
        doc = tracer.as_dict()
        assert validate(self._load("trace.schema.json"), doc) == []

    def test_trace_schema_rejects_unknown_layer(self):
        from repro.obs import Tracer

        tracer = Tracer()
        op = tracer.op("x", 0.0)
        op.span("not-a-layer", "y", 0.0, 1.0)
        op.finish(1.0)
        assert validate(self._load("trace.schema.json"), tracer.as_dict()) != []
