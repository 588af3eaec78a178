"""Backend selection in serve job specs."""

import pytest

from repro.errors import ConfigurationError
from repro.serve.jobs import build_sweep_spec
from repro.serve.protocol import JobSpec


class TestJobSpecBackend:
    def test_default_is_des_and_not_emitted(self):
        spec = JobSpec.from_payload({"target": "fig5"})
        assert spec.backend == "des"
        assert "backend" not in spec.as_dict()

    @pytest.mark.parametrize("backend", ["analytic", "auto"])
    def test_round_trips(self, backend):
        spec = JobSpec.from_payload({"target": "fig5", "backend": backend})
        assert spec.backend == backend
        doc = spec.as_dict()
        assert doc["backend"] == backend
        assert JobSpec.from_payload(doc) == spec

    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            JobSpec.from_payload({"target": "fig5", "backend": "magic"})

    def test_rejects_forced_analytic_without_fast_path(self):
        # Submission-time rejection (HTTP 400), not a failed job later.
        for target in ("fig7", "fig10", "overload", "demo"):
            with pytest.raises(ConfigurationError,
                               match="no analytical backend"):
                JobSpec.from_payload({"target": target,
                                      "backend": "analytic"})

    def test_auto_is_legal_on_every_target(self):
        for target in ("fig5", "fig7", "overload", "demo"):
            spec = JobSpec.from_payload({"target": target, "backend": "auto"})
            assert spec.backend == "auto"

    def test_unknown_keys_still_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job spec"):
            JobSpec.from_payload({"target": "fig5", "backnd": "auto"})


class TestBuildSweepSpec:
    def test_backend_reaches_the_sweep_spec(self):
        des = build_sweep_spec(JobSpec(target="fig8"))
        ana = build_sweep_spec(JobSpec(target="fig8", backend="analytic"))
        assert des.task is ana.task
        assert [p.key for p in des.points] == [p.key for p in ana.points]
        assert [p.params["backend"] for p in des.points] == ["des", "des"]
        assert [p.params["backend"] for p in ana.points] == [
            "analytic", "analytic"
        ]

    def test_auto_demo_stays_on_des(self):
        spec = build_sweep_spec(JobSpec(target="demo", backend="auto",
                                        points=2, draws=8))
        assert spec.points
