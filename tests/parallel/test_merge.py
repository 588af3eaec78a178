"""Tests for merging per-point repro.metrics/v1 documents."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.parallel import merge_metrics_documents, merged_metrics_json


def _doc(name="m", value=1.0, labels=None):
    return {
        "schema": "repro.metrics/v1",
        "generated_by": "test",
        "metrics": [
            {"name": name, "kind": "counter",
             "labels": dict(labels or {}), "value": value}
        ],
    }


class TestMerge:
    def test_point_label_added_in_order(self):
        merged = merge_metrics_documents(
            [("a", _doc(value=1.0)), ("b", _doc(value=2.0))]
        )
        assert merged["schema"] == "repro.metrics/v1"
        assert [s["labels"]["point"] for s in merged["metrics"]] == ["a", "b"]
        assert [s["value"] for s in merged["metrics"]] == [1.0, 2.0]

    def test_original_labels_preserved(self):
        merged = merge_metrics_documents([("a", _doc(labels={"cfg": "1:1"}))])
        assert merged["metrics"][0]["labels"] == {"cfg": "1:1", "point": "a"}

    def test_duplicate_point_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_metrics_documents([("a", _doc()), ("a", _doc())])

    def test_preexisting_point_label_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_metrics_documents([("a", _doc(labels={"point": "x"}))])

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_metrics_documents([("a", {"schema": "other", "metrics": []})])

    def test_json_form_matches_registry_style(self):
        text = merged_metrics_json([("a", _doc())])
        doc = json.loads(text)
        assert doc["generated_by"] == "repro.parallel.merge"
        # Same indent=2 serialization as MetricsRegistry.to_json.
        assert text == json.dumps(doc, indent=2)
