"""Merging per-point ``repro.metrics/v1`` documents into one.

Each sweep point runs in its own process (or its own in-process scope)
and produces its own ``repro.metrics/v1`` snapshot dictionary.  The
merge layer combines them into one document of the same schema — every
sample gains a ``point=<key>`` label — in **spec order**, never
completion order, so the merged JSON is byte-identical whether the
sweep ran with 1 worker or 16.

:func:`merge_metrics_documents` is the document merge behind
``repro sweep --json`` and ``repro serve`` results;
:func:`merged_metrics_json` serializes it the way the registry exporter
does.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from ..errors import ConfigurationError

__all__ = [
    "METRICS_SCHEMA",
    "merge_metrics_documents",
    "merged_metrics_json",
]

METRICS_SCHEMA = "repro.metrics/v1"


def _check_document(key: str, doc: Mapping[str, Any]) -> Sequence[Mapping[str, Any]]:
    schema = doc.get("schema")
    if schema != METRICS_SCHEMA:
        raise ConfigurationError(
            f"point {key!r}: expected a {METRICS_SCHEMA} document, "
            f"got schema {schema!r}"
        )
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        raise ConfigurationError(f"point {key!r}: document has no metrics list")
    return metrics


def merge_metrics_documents(
    point_documents: Sequence[Tuple[str, Mapping[str, Any]]],
    generated_by: str = "repro.parallel.merge",
) -> Dict[str, Any]:
    """Merge per-point ``repro.metrics/v1`` documents into one.

    ``point_documents`` is ``[(point_key, document), ...]`` in the
    order the merged samples should appear (pass spec order for
    worker-count-independent output).  Every sample is copied with a
    ``point`` label added; a point whose samples already carry a
    ``point`` label is rejected rather than silently overwritten.
    """
    merged: List[Dict[str, Any]] = []
    seen = set()
    for key, doc in point_documents:
        if key in seen:
            raise ConfigurationError(f"duplicate point key {key!r} in merge")
        seen.add(key)
        for sample in _check_document(key, doc):
            labels = dict(sample.get("labels", {}))
            if "point" in labels:
                raise ConfigurationError(
                    f"point {key!r}: sample {sample.get('name')!r} already "
                    f"has a 'point' label"
                )
            labels["point"] = key
            merged.append(
                {
                    "name": sample["name"],
                    "kind": sample.get("kind", "untyped"),
                    "labels": labels,
                    "value": sample.get("value"),
                }
            )
    return {
        "schema": METRICS_SCHEMA,
        "generated_by": generated_by,
        "metrics": merged,
    }


def merged_metrics_json(
    point_documents: Sequence[Tuple[str, Mapping[str, Any]]],
    generated_by: str = "repro.parallel.merge",
) -> str:
    """The merged document serialized exactly like the registry exporter."""
    return json.dumps(
        merge_metrics_documents(point_documents, generated_by=generated_by),
        indent=2,
    )
