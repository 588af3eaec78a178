"""The on-disk store shape as a lazy ``repro.obs`` collector.

An adapter in the same style as every other accounting object's
``register_into``: a callback registered on a
:class:`~repro.obs.registry.MetricsRegistry` that emits samples at
snapshot time.  ``repro cache stats --json`` exports it.

Cache counters are deliberately **not** part of merged per-point
``repro.metrics/v1`` exports: hit/miss counts differ between a cold and
a warm run, and the merged document must stay byte-identical across the
two.  A sweep's own counters travel as ``SweepResult.cache_stats`` and
surface in the ``repro sweep`` summary lines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .store import SweepCache

__all__ = ["register_store_snapshot"]


def register_store_snapshot(registry: Any, cache: "SweepCache") -> None:
    """Export the on-disk store shape (entries, bytes, cap) as gauges."""
    from ..obs.registry import Sample

    def collect():
        snap = cache.stats_snapshot()
        for name, value in (
            ("sweep_cache_entries", snap["entries"]),
            ("sweep_cache_bytes", snap["total_bytes"]),
            ("sweep_cache_max_bytes", snap["max_bytes"]),
        ):
            yield Sample(name, "gauge", {}, float(value))

    registry.register_collector(collect)
