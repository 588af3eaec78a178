"""Request-scoped tracing over *simulated* time.

One YCSB operation (or one LLM request) decomposes into per-layer
spans — admission queueing, application CPU, shared-structure walks,
value-page access over the resolved hardware path, device/SSD work —
so a run can answer "where did each nanosecond go" the way
per-layer attribution does for real CXL measurements.

Design constraints, in order:

* **Determinism** — spans only *record* sim-time numbers the caller
  already computed; tracing never reads a wall clock, never draws from
  an RNG, and never schedules an event, so a traced run is bit-identical
  to an untraced one.
* **Zero cost when off** — the default tracer is :data:`NULL_TRACER`
  whose ``enabled`` flag is ``False``; instrumented hot paths guard with
  ``if tracer.enabled:`` and pay one attribute load.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "OpTrace", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One per-layer slice of an operation's latency."""

    __slots__ = ("layer", "name", "start_ns", "duration_ns", "attrs")

    def __init__(
        self,
        layer: str,
        name: str,
        start_ns: float,
        duration_ns: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.layer = layer
        self.name = name
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.attrs = attrs

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of this span."""
        out: Dict[str, Any] = {
            "layer": self.layer,
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.layer}/{self.name}, {self.duration_ns:.0f} ns)"


class OpTrace:
    """One traced operation: a root interval plus its layer spans."""

    __slots__ = ("op_id", "kind", "start_ns", "end_ns", "spans")

    def __init__(self, op_id: int, kind: str, start_ns: float) -> None:
        self.op_id = op_id
        self.kind = kind
        self.start_ns = start_ns
        self.end_ns: Optional[float] = None
        self.spans: List[Span] = []

    def span(
        self,
        layer: str,
        name: str,
        start_ns: float,
        duration_ns: float,
        **attrs: Any,
    ) -> None:
        """Record one per-layer slice (durations may be zero, not negative)."""
        if duration_ns < 0:
            raise ValueError(f"span duration must be >= 0, got {duration_ns}")
        self.spans.append(Span(layer, name, start_ns, duration_ns, attrs or None))

    def finish(self, end_ns: float) -> None:
        """Close the op at ``end_ns`` (its end-to-end latency anchor)."""
        self.end_ns = end_ns

    @property
    def duration_ns(self) -> float:
        """End-to-end latency (0 until finished)."""
        if self.end_ns is None:
            return 0.0
        return self.end_ns - self.start_ns

    def layer_sum_ns(self) -> float:
        """Sum of the per-layer span durations."""
        return sum(s.duration_ns for s in self.spans)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the op and its spans."""
        return {
            "id": self.op_id,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns if self.end_ns is not None else self.start_ns,
            "duration_ns": self.duration_ns,
            "spans": [s.as_dict() for s in self.spans],
        }


class Tracer:
    """Collects finished :class:`OpTrace` records for one run."""

    enabled = True

    def __init__(self) -> None:
        self.ops: List[OpTrace] = []
        self._next_id = 0

    def op(self, kind: str, start_ns: float) -> OpTrace:
        """Open and keep a new operation trace starting at ``start_ns``."""
        trace = OpTrace(self._next_id, kind, start_ns)
        self._next_id += 1
        self.ops.append(trace)
        return trace

    # -- aggregation -------------------------------------------------------

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """``{layer: (span count, total ns)}`` across all ops."""
        totals: Dict[str, Tuple[int, float]] = {}
        for op in self.ops:
            for span in op.spans:
                count, ns = totals.get(span.layer, (0, 0.0))
                totals[span.layer] = (count + 1, ns + span.duration_ns)
        return totals

    def validate(self, tolerance: float = 0.01) -> Dict[str, Any]:
        """Check that per-layer spans sum to each op's end-to-end latency.

        Returns ``{"ops_checked", "max_rel_error", "within_tolerance",
        "violations"}`` where a violation is an op whose relative error
        ``|layer_sum - duration| / duration`` exceeds ``tolerance``.
        """
        max_rel = 0.0
        violations: List[int] = []
        checked = 0
        for op in self.ops:
            if op.end_ns is None:
                continue
            checked += 1
            duration = op.duration_ns
            if duration <= 0.0:
                continue
            rel = abs(op.layer_sum_ns() - duration) / duration
            if rel > max_rel:
                max_rel = rel
            if rel > tolerance:
                violations.append(op.op_id)
        return {
            "ops_checked": checked,
            "max_rel_error": max_rel,
            "within_tolerance": not violations,
            "violations": violations,
        }

    def as_dict(
        self, limit: Optional[int] = None, tolerance: float = 0.01
    ) -> Dict[str, Any]:
        """The full trace document (``repro.trace/v1``)."""
        layers = [
            {"layer": layer, "spans": count, "total_ns": ns}
            for layer, (count, ns) in sorted(self.layer_totals().items())
        ]
        ops = self.ops if limit is None else self.ops[:limit]
        return {
            "schema": "repro.trace/v1",
            "op_count": len(self.ops),
            "layers": layers,
            "validation": self.validate(tolerance),
            "ops": [op.as_dict() for op in ops],
        }


class _NullOpTrace(OpTrace):
    """An op whose recording methods do nothing (safe to share)."""

    __slots__ = ()

    def span(self, layer, name, start_ns, duration_ns, **attrs) -> None:
        pass

    def finish(self, end_ns: float) -> None:
        pass


class NullTracer(Tracer):
    """The disabled tracer: every call is a cheap no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_op = _NullOpTrace(-1, "null", 0.0)

    def op(self, kind: str, start_ns: float) -> OpTrace:
        """Return a shared no-op op; nothing is recorded."""
        return self._null_op


#: Shared default tracer; instrumented code guards on ``tracer.enabled``.
NULL_TRACER = NullTracer()
