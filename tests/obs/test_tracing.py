"""Tests for request-scoped tracing — including the two acceptance
criteria: per-op span sums match end-to-end latency within 1 %, and a
traced run is bit-identical to an untraced run with the same seed."""

import pytest

from repro.obs import NULL_TRACER, Tracer, run_observed_keydb
from repro.obs.tracing import NullTracer


class TestTracerUnit:
    def test_spans_accumulate(self):
        tracer = Tracer()
        op = tracer.op("get", 100.0)
        op.span("app", "cpu", 100.0, 30.0)
        op.span("hw", "value", 130.0, 70.0)
        op.finish(200.0)
        assert op.duration_ns == 100.0
        assert op.layer_sum_ns() == 100.0
        assert tracer.layer_totals() == {"app": (1, 30.0), "hw": (1, 70.0)}

    def test_negative_span_duration_rejected(self):
        op = Tracer().op("get", 0.0)
        with pytest.raises(ValueError):
            op.span("app", "cpu", 0.0, -1.0)

    def test_validate_flags_mismatched_op(self):
        tracer = Tracer()
        op = tracer.op("get", 0.0)
        op.span("app", "cpu", 0.0, 10.0)  # only half the op
        op.finish(20.0)
        check = tracer.validate(tolerance=0.01)
        assert not check["within_tolerance"]
        assert check["violations"] == [op.op_id]
        assert check["max_rel_error"] == pytest.approx(0.5)

    def test_as_dict_limit(self):
        tracer = Tracer()
        for i in range(10):
            tracer.op("get", float(i)).finish(i + 1.0)
        doc = tracer.as_dict(limit=3)
        assert doc["op_count"] == 10
        assert len(doc["ops"]) == 3

    def test_null_tracer_records_nothing(self):
        op = NULL_TRACER.op("get", 0.0)
        op.span("app", "cpu", 0.0, 10.0)
        op.finish(10.0)
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.ops == []
        assert op.spans == []

    def test_null_tracer_is_reusable(self):
        a = NullTracer()
        assert a.op("x", 0.0) is a.op("y", 1.0)


class TestAcceptance:
    """The issue's two hard numbers, pinned as tests."""

    def _runs(self):
        kwargs = dict(config="1:1", record_count=1_024, total_ops=1_200, seed=7)
        return (
            run_observed_keydb(tracing=False, **kwargs),
            run_observed_keydb(tracing=True, **kwargs),
        )

    def test_span_sums_match_end_to_end_within_1pct(self):
        _, traced = self._runs()
        assert len(traced.tracer.ops) == 1_200
        check = traced.tracer.validate(tolerance=0.01)
        assert check["ops_checked"] == 1_200
        assert check["within_tolerance"], check
        # In practice the decomposition is exact to fp rounding.
        assert check["max_rel_error"] < 1e-9

    def test_tracing_does_not_perturb_the_simulation(self):
        untraced, traced = self._runs()
        # Bit-identical, not approximately equal: tracing only records
        # numbers the simulation already computed.
        assert traced.result.elapsed_ns == untraced.result.elapsed_ns
        assert traced.result.ops == untraced.result.ops
        assert (
            traced.result.throughput_ops_per_s
            == untraced.result.throughput_ops_per_s
        )
        for p in (50, 95, 99):
            assert traced.result.read_latency.percentile(p) == (
                untraced.result.read_latency.percentile(p)
            )
            assert traced.result.write_latency.percentile(p) == (
                untraced.result.write_latency.percentile(p)
            )

    def test_every_layer_appears(self):
        _, traced = self._runs()
        layers = set(traced.tracer.layer_totals())
        # 1:1 interleave without SSD spill: no device layer expected.
        assert {"admission", "app", "mem", "hw"} <= layers

    def test_queue_wait_plus_service_is_total_latency(self):
        _, traced = self._runs()
        for op in traced.tracer.ops[:50]:
            wait = sum(
                s.duration_ns for s in op.spans if s.layer == "admission"
            )
            service = op.layer_sum_ns() - wait
            assert wait + service == pytest.approx(op.duration_ns, rel=1e-9)
