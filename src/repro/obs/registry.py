"""A Prometheus-style metrics registry with one snapshot exporter.

The registry gives the stack's accounting objects one namespace and one
export path: named samples, each with a fixed label schema, flattened
into a list of ``(name, kind, labels, value)`` that serializes to JSON
or CSV.

Two registration styles:

* *owned gauges* — ``registry.gauge(...)`` returns a
  :class:`GaugeFamily`; ``family.labels(node="cxl0")`` returns the
  child to set.
* *collectors* — existing accounting objects register a callback that
  emits samples lazily at snapshot time (the ``register_into`` methods
  on :class:`~repro.sim.stats.Counter` and
  :class:`~repro.overload.metrics.OverloadMetrics`, and the cache and
  serve snapshots in :mod:`repro.cache.obs` and :mod:`repro.serve.obs`), so
  wiring them up costs nothing on the hot path.

A :class:`~repro.sim.stats.LatencyHistogram` flattens through
:func:`histogram_samples` into ``<name>_count`` / ``_mean`` / ``_min`` /
``_max`` / ``_p50`` / ``_p95`` / ``_p99`` samples so every exported
value is a plain number (CSV stays rectangular, schemas stay simple).
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.stats import LatencyHistogram

__all__ = [
    "Sample",
    "MetricsRegistry",
    "GaugeFamily",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Quantiles a flattened histogram exports.
_HIST_QUANTILES = (50.0, 95.0, 99.0)


class Sample:
    """One exported measurement: name + labels + numeric value."""

    __slots__ = ("name", "kind", "labels", "value")

    def __init__(self, name: str, kind: str, labels: Dict[str, str], value: float) -> None:
        self.name = name
        self.kind = kind
        self.labels = labels
        self.value = value

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (non-finite values become None)."""
        value: Optional[float] = self.value
        if value is not None and not math.isfinite(value):
            value = None
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": {k: str(v) for k, v in self.labels.items()},
            "value": value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Sample({self.name}{self.labels} = {self.value})"


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(f"invalid metric name: {name!r}")
    return name


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the current value."""
        self.value = float(value)


class GaugeFamily:
    """A named value with a fixed label schema that can go up or down."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = labelnames
        self._children: Dict[Tuple[str, ...], _GaugeChild] = {}

    def labels(self, **labels: Any) -> _GaugeChild:
        """The child tracking one label combination (created on demand)."""
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _GaugeChild()
        return child

    def set(self, value: float, **labels: Any) -> None:
        """Shorthand: ``family.set(0.87, node="cxl0")``."""
        self.labels(**labels).set(value)

    def samples(self) -> Iterable[Sample]:
        for key, child in sorted(self._children.items()):
            yield Sample(self.name, self.kind, dict(zip(self.labelnames, key)),
                         child.value)


def histogram_samples(
    name: str, labels: Dict[str, str], hist: LatencyHistogram
) -> Iterable[Sample]:
    """Flatten one :class:`LatencyHistogram` into scalar samples."""
    yield Sample(f"{name}_count", "counter", labels, float(hist.count))
    yield Sample(f"{name}_mean", "gauge", labels, hist.mean)
    yield Sample(f"{name}_min", "gauge", labels, hist.min)
    yield Sample(f"{name}_max", "gauge", labels, hist.max)
    for q in _HIST_QUANTILES:
        yield Sample(
            f"{name}_p{q:g}".replace(".", "_"), "gauge", labels, hist.percentile(q)
        )


class MetricsRegistry:
    """The one namespace every accounting object exports through."""

    def __init__(self) -> None:
        self._families: Dict[str, GaugeFamily] = {}
        self._collectors: List[Callable[[], Iterable[Sample]]] = []

    # -- owned metrics -----------------------------------------------------

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> GaugeFamily:
        """Get-or-create a gauge family (idempotent per label schema)."""
        labelnames = tuple(labelnames)
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = GaugeFamily(name, help, labelnames)
        elif family.labelnames != labelnames:
            raise ConfigurationError(
                f"metric {name!r} already registered with a different "
                f"label schema"
            )
        return family

    # -- collectors --------------------------------------------------------

    def register_collector(self, collect: Callable[[], Iterable[Sample]]) -> None:
        """Add a lazy sample source, polled once per snapshot."""
        self._collectors.append(collect)

    # -- export ------------------------------------------------------------

    def samples(self) -> List[Sample]:
        """Every sample, owned families first, then collectors."""
        out: List[Sample] = []
        for name in sorted(self._families):
            out.extend(self._families[name].samples())
        for collect in self._collectors:
            out.extend(collect())
        return out

    def as_dict(self) -> Dict[str, Any]:
        """The full metrics document (``repro.metrics/v1``)."""
        return {
            "schema": "repro.metrics/v1",
            "generated_by": "repro.obs.registry",
            "metrics": [s.as_dict() for s in self.samples()],
        }

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON string."""
        return json.dumps(self.as_dict(), indent=indent)

    def to_csv(self) -> str:
        """The snapshot as ``name,kind,labels,value`` CSV."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "kind", "labels", "value"])
        for sample in self.samples():
            labels = ";".join(f"{k}={v}" for k, v in sorted(sample.labels.items()))
            value = sample.value
            writer.writerow(
                [sample.name, sample.kind, labels,
                 "" if value is None or not math.isfinite(value) else repr(value)]
            )
        return buf.getvalue()
