"""Quadrature: closed-form suite, error-estimate guarantees, failure modes."""

import math

import numpy as np
import pytest

from hypvol import quad, specfun, verify
from hypvol.quad import QuadConfig, QuadratureError, ValueWithError
from hypvol.verify import _closed_form_suite


class TestConfig:
    def test_defaults(self):
        cfg = QuadConfig()
        assert cfg.rel_tol == 1e-12 and cfg.abs_tol == 1e-14 and cfg.max_level == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadConfig(max_level=2)
        with pytest.raises(ValueError):
            QuadConfig(max_level=17)

    def test_value_with_error_invariants(self):
        with pytest.raises(ValueError):
            ValueWithError(math.nan, 0.0, "x")
        with pytest.raises(ValueError):
            ValueWithError(1.0, -1.0, "x")


class TestFinite:
    def test_constant_on_symmetric_interval(self):
        res = quad.integrate_finite(lambda x: np.ones_like(x), -math.pi / 2, math.pi / 2)
        assert res.value == pytest.approx(math.pi, abs=1e-13)

    def test_cos_power_identity_substituted(self):
        # singular cos powers are integrated as sin powers from 0
        res = quad.integrate_finite(lambda t: np.sin(t) ** -0.5, 0.0, math.pi / 2)
        assert 2.0 * res.value == pytest.approx(1.0 / specfun.c_one_dim(-0.75), abs=1e-11)

    def test_power_law_singularity(self):
        res = quad.integrate_finite(lambda t: t**-0.5, 0.0, 1.0)
        assert res.value == pytest.approx(2.0, abs=1e-13)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            quad.integrate_finite(lambda t: t, 1.0, 0.0)

    def test_nonconvergence_carries_estimate(self):
        rng = np.random.default_rng(0)

        def noisy(x):
            return np.ones_like(x) + 0.5 * rng.standard_normal(x.shape)

        with pytest.raises(QuadratureError) as excinfo:
            quad.integrate_finite(noisy, 0.0, 1.0, QuadConfig(rel_tol=1e-12, abs_tol=1e-15))
        est = excinfo.value.estimate
        assert est is not None and math.isfinite(est.value)


class TestRealLine:
    def test_sech(self):
        res = quad.integrate_real_line(lambda x: 1.0 / np.cosh(x))
        assert res.value == pytest.approx(math.pi, abs=1e-13)

    def test_sech_cubed(self):
        res = quad.integrate_real_line(lambda x: np.cosh(x) ** -3.0)
        assert res.value == pytest.approx(1.0 / specfun.c_one_dim(0.5), abs=1e-13)

    def test_even_integrand_evaluated_on_nonnegative_nodes_only(self):
        calls = []

        def f(x):
            calls.append(x.copy())
            return np.exp(-x * x)

        res = quad.integrate_real_line(f)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert all((x >= 0.0).all() for x in calls)
        # one call per level on that level's nodes x > 0, plus the centre at level 0
        assert calls[1].tolist() == [0.0]
        per_level = [calls[0]] + calls[2:]
        assert len(per_level) > 3
        for level, x in enumerate(per_level):
            assert x.tobytes() == quad._line_nodes(level)[0].tobytes()


class TestClosedFormSuite:
    """One item per closed-form case of the ``quad.error-estimate-bounds`` and
    ``quad.tolerance-monotonic`` checks; the checks hold the cases and
    tolerances, the items report each case on its own."""

    @pytest.mark.parametrize("case", range(len(_closed_form_suite())))
    def test_estimate_bounds_true_error(self, case):
        failure, _ = verify._error_bound_case(case)
        assert failure is None, failure

    @pytest.mark.parametrize("case", range(len(_closed_form_suite())))
    def test_true_error_monotone_in_tolerance(self, case):
        failure = verify._monotone_case(case)
        assert failure is None, failure
