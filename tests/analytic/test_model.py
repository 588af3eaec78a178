"""The shared analytic machinery: the fixed-point solver."""

import pytest

from repro.analytic import solve_fixed_point
from repro.errors import ConfigurationError


class TestSolveFixedPoint:
    def test_converges_on_contraction(self):
        # x <- (x + 2/x) / 2 converges to sqrt(2) (Babylonian method).
        fp = solve_fixed_point(lambda x: (x + 2.0 / x) / 2.0, 1.0)
        assert fp.converged
        assert fp.value == pytest.approx(2.0 ** 0.5, rel=1e-9)

    def test_reports_non_convergence(self):
        # x <- x + 1 never settles; the solver must say so, not spin.
        fp = solve_fixed_point(lambda x: x + 1.0, 0.0, max_iterations=8)
        assert not fp.converged
        assert fp.iterations == 8

    def test_damping_tames_oscillation(self):
        # x <- -x oscillates undamped but contracts at damping 0.5.
        fp = solve_fixed_point(lambda x: -x, 1.0, damping=0.5,
                               max_iterations=64, tolerance=1e-9)
        assert fp.converged
        assert fp.value == pytest.approx(0.0, abs=1e-8)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            solve_fixed_point(lambda x: x, 0.0, max_iterations=0)
        with pytest.raises(ConfigurationError):
            solve_fixed_point(lambda x: x, 0.0, damping=0.0)
        with pytest.raises(ConfigurationError):
            solve_fixed_point(lambda x: x, 0.0, damping=1.5)
