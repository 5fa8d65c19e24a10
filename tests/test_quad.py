"""Quadrature: closed-form suite, error-estimate guarantees, failure modes."""

import math

import numpy as np
import pytest

from hypvol import abcore, quad, specfun
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

    def test_abscissae_are_read_only(self):
        # every later integral on the interval gets the same abscissae
        def writes_to_input(x):
            x *= 2.0
            return x

        with pytest.raises(ValueError, match="read-only"):
            quad.integrate_finite(writes_to_input, 0.0, 1.0)
        assert quad.integrate_finite(lambda x: x, 0.0, 1.0).value == pytest.approx(0.5, abs=1e-14)

    def test_node_tables_are_read_only(self):
        # every later integral on a level, and every factor row keyed by it, gets the same nodes
        def writes_to_input(x):
            x *= 0.5
            return np.exp(-x * x)

        with pytest.raises(ValueError, match="read-only"):
            quad.integrate_real_line(writes_to_input)
        for level in range(7):
            for table in (quad._line_nodes(level), quad._finite_nodes(level)):
                assert not any(array.flags.writeable for array in table)
        # so are abcore's steps, each its levels' tables joined
        half_pi = 0.5 * math.pi
        assert (quad._step_levels(0), quad._step_levels(6)) == (range(6), range(6, 7))
        for levels in (quad._step_levels(0), quad._step_levels(6)):
            for (*arrays, cuts), tables in (
                (quad._line_step_nodes(levels), [quad._line_nodes(level) for level in levels]),
                (quad._finite_step_abscissae(0.0, half_pi, levels), [quad._finite_abscissae(0.0, half_pi, level) for level in levels]),
            ):
                assert [hi - lo for lo, hi in zip(cuts, cuts[1:])] == [len(table[0]) for table in tables]
                for i, array in enumerate(arrays):
                    assert array.tobytes() == b"".join(table[i].tobytes() for table in tables)
                    with pytest.raises(ValueError, match="read-only"):
                        writes_to_input(array)
        res = quad.integrate_real_line(lambda x: np.exp(-x * x))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        abcore.clear_cache()
        got = abcore.a_fn(2.5, [0.7], closed_forms=False)
        want = abcore.a_fn(2.5, [0.7])  # closed form
        assert abs(got.value - want.value) <= got.abs_err_est + want.abs_err_est

    def test_nonconvergence_carries_estimate(self):
        rng = np.random.default_rng(0)

        def noisy(x):
            return np.ones_like(x) + 0.5 * rng.standard_normal(x.shape)

        with pytest.raises(QuadratureError) as excinfo:
            quad.integrate_finite(noisy, 0.0, 1.0, QuadConfig(rel_tol=1e-12, abs_tol=1e-15))
        est = excinfo.value.estimate
        assert est is not None and math.isfinite(est.value)


class TestRefinementResult:
    def test_non_finite_total_or_difference_gives_a_finite_estimate(self):
        # an unconverged run raises QuadratureError whose estimate is a
        # ValueWithError, so a non-finite total or difference becomes finite
        cfg = QuadConfig(max_level=3)
        overflowed = quad.Refinement(cfg, "m")
        assert [overflowed.add(part) for part in (1.0, math.inf, 1.0, 1.0)] == [False, False, False, True]
        with pytest.raises(QuadratureError) as excinfo:
            overflowed.result()
        assert (excinfo.value.estimate.value, excinfo.value.estimate.abs_err_est) == (0.0, 1e300)
        early = quad.Refinement(cfg, "m")  # stopped before _MIN_LEVEL: no difference yet
        early.add(-3.0)
        with pytest.raises(QuadratureError) as excinfo:
            early.result()
        assert (excinfo.value.estimate.value, excinfo.value.estimate.abs_err_est) == (-3.0, 3.0)


class TestRealLine:
    def test_step_cut_keeps_each_levels_prefix(self):
        # a cut step holds each level's nodes x <= top in the whole step's
        # order, read-only, and is the table of abcore's a integrals at cut j
        for first in (0, 6, 9):
            levels = quad._step_levels(first)
            x, weight, cuts = quad._line_step_nodes(levels)
            whole = quad._line_step_cut(levels, math.inf)
            assert (whole[0].tobytes(), whole[1].tobytes(), whole[2]) == (x.tobytes(), weight.tobytes(), cuts)
            for j in (1, 4, 10, 11):
                kept = x <= 2.0**j
                cut_x, cut_weight, cut_cuts = quad._line_step_cut(levels, 2.0**j)
                assert 0 < cut_x.size < x.size and not (cut_x.flags.writeable or cut_weight.flags.writeable)
                assert (cut_x.tobytes(), cut_weight.tobytes()) == (x[kept].tobytes(), weight[kept].tobytes())
                assert cut_cuts == tuple(int(kept[:cut].sum()) for cut in cuts)
                held_weight, held_cuts, nodes = abcore._line_table(levels, j)
                assert (held_weight.tobytes(), held_cuts, nodes.size) == (cut_weight.tobytes(), cut_cuts, cut_x.size)

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
        # one call, on the first step's nodes, holding the centre x = 0 once
        assert len(calls) == 1
        assert calls[0].tobytes() == quad._line_step_nodes(quad._step_levels(0))[0].tobytes()
        assert (calls[0] == 0.0).sum() == 1


class TestSteps:
    def test_closed_form_suite_matches_one_level_per_step(self, monkeypatch):
        # the first step adds levels 0-5 from one integrand call, each level as one level per step would
        stops = []

        class Recorded(quad.Refinement):
            __slots__ = ()

            def add(self, part):
                done = super().add(part)
                if done:
                    stops.append(self.level - 1)
                return done

        monkeypatch.setattr(quad, "Refinement", Recorded)

        cfgs = [QuadConfig(rel_tol=rel, abs_tol=1e-15) for rel in (1e-6, 1e-8, 1e-10, 1e-12)]
        cfgs.append(QuadConfig(max_level=4))

        def run():
            """(outcome, stopping level, integrand calls) of each closed-form case at each config."""
            out = []
            for kind, f, ab, _ in _closed_form_suite():
                for cfg in cfgs:
                    calls = []

                    def counted(x, f=f):
                        calls.append(x.size)
                        return f(x)

                    try:
                        if kind == "finite":
                            res = quad.integrate_finite(counted, *ab, cfg)
                        else:
                            res = quad.integrate_real_line(counted, cfg)
                        outcome = (False, res.value.hex(), res.abs_err_est.hex())
                    except QuadratureError as exc:
                        outcome = (True, exc.estimate.value.hex(), exc.estimate.abs_err_est.hex())
                    out.append((outcome, stops.pop(), len(calls)))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(quad, "_step_levels", lambda first: range(first, first + 1))
            one = run()
        got = run()
        assert [(outcome, stop) for outcome, stop, _ in got] == [(outcome, stop) for outcome, stop, _ in one]
        assert all(calls == stop + 1 for _, stop, calls in one)
        assert all(calls == (1 if stop <= 5 else stop - 4) for _, stop, calls in got)
        assert any(stop <= 5 for _, stop, _ in got) and any(stop > 5 for _, stop, _ in got)
        assert any(outcome[0] for outcome, _, _ in got)  # max_level=4 leaves some cases unconverged
