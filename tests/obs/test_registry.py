"""Tests for the metrics registry and its exporters."""

import csv
import io
import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry, Sample, histogram_samples
from repro.sim.stats import Counter, LatencyHistogram


class TestFamilies:
    def test_gauge_sets(self):
        reg = MetricsRegistry()
        util = reg.gauge("util", "utilization", ("link",))
        util.set(0.7, link="cxl")
        util.set(0.4, link="cxl")  # gauges move both ways
        util.labels(link="ddr").set(0.9)
        samples = reg.samples()
        assert {s.labels["link"]: s.value for s in samples} == {
            "cxl": 0.4, "ddr": 0.9,
        }
        assert {s.kind for s in samples} == {"gauge"}

    def test_label_schema_enforced(self):
        reg = MetricsRegistry()
        util = reg.gauge("util", "utilization", ("node",))
        with pytest.raises(ConfigurationError):
            util.set(0.5, socket=0)
        with pytest.raises(ConfigurationError):
            util.set(0.5, node="x", extra="y")

    def test_registration_idempotent_same_schema(self):
        reg = MetricsRegistry()
        a = reg.gauge("util", "utilization", ("node",))
        b = reg.gauge("util", "utilization", ("node",))
        assert a is b

    def test_conflicting_reregistration_raises(self):
        reg = MetricsRegistry()
        reg.gauge("util", "utilization", ("node",))
        with pytest.raises(ConfigurationError):
            reg.gauge("util", "utilization", ("socket",))
        with pytest.raises(ConfigurationError):
            reg.gauge("util", "utilization")

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.gauge("9bad-name")


class TestCollectors:
    def test_counter_bag_registers_lazily(self):
        reg = MetricsRegistry()
        bag = Counter()
        bag.register_into(reg, "keydb_ops", labels={"run": "a"})
        bag.add("hits", 3)
        bag.add("misses")  # post-registration increments are visible
        samples = {s.labels["counter"]: s for s in reg.samples()}
        assert samples["hits"].value == 3.0
        assert samples["misses"].value == 1.0
        assert samples["hits"].name == "keydb_ops_total"
        assert samples["hits"].labels["run"] == "a"

    def test_histogram_samples_helper(self):
        hist = LatencyHistogram()
        hist.record(500.0, count=4)
        out = list(histogram_samples("lat", {"op": "get"}, hist))
        by_name = {s.name: s.value for s in out}
        assert set(by_name) == {
            "lat_count", "lat_mean", "lat_min", "lat_max",
            "lat_p50", "lat_p95", "lat_p99",
        }
        assert by_name["lat_count"] == 4.0
        assert by_name["lat_mean"] == pytest.approx(500.0)


class TestExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.gauge("ops", "ops", ("node",)).set(5, node="cxl0")
        reg.gauge("util").set(0.5)
        return reg

    def test_as_dict_schema(self):
        doc = self._registry().as_dict()
        assert doc["schema"] == "repro.metrics/v1"
        assert all(
            set(m) == {"name", "kind", "labels", "value"}
            for m in doc["metrics"]
        )

    def test_json_round_trip(self):
        doc = json.loads(self._registry().to_json())
        assert doc["schema"] == "repro.metrics/v1"
        assert len(doc["metrics"]) == 2

    def test_nonfinite_values_become_null_in_json(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(math.nan)
        doc = json.loads(reg.to_json())
        assert doc["metrics"][0]["value"] is None

    def test_csv_is_rectangular(self):
        rows = list(csv.reader(io.StringIO(self._registry().to_csv())))
        assert rows[0] == ["name", "kind", "labels", "value"]
        assert all(len(r) == 4 for r in rows)
        assert ["ops", "gauge", "node=cxl0", "5.0"] in rows

    def test_sample_as_dict_stringifies_labels(self):
        sample = Sample("n", "gauge", {"id": 3}, 1.0)
        assert sample.as_dict()["labels"] == {"id": "3"}
