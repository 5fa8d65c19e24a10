"""The a/b/theta layer: closed forms versus quadrature, limits, identities."""

import math
import sys
from itertools import combinations

import numpy as np
import pytest

from hypvol import abcore, expect, quad, specfun
from hypvol.abcore import ParamMultiset
from hypvol.expect import BetaSpec, enumerate_classes
from hypvol.quad import QuadConfig, QuadratureError
from hypvol.verify import _ABSORPTION_GRID

CFG = QuadConfig()
P = ParamMultiset


class TestParamMultiset:
    def test_sorted_and_equal(self):
        assert P([2.0, 0.0, 1.0]).entries == (0.0, 1.0, 2.0)
        assert P([1.0, 2.0]) == P([2.0, 1.0])
        assert hash(P([1.0, 2.0])) == hash(P([2.0, 1.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            P([-0.1])
        with pytest.raises(ValueError):
            P([math.inf])

    def test_scaled(self):
        assert P([0.5, 1.5]).scaled(2.0) == P([1.0, 3.0])


class TestClosedForms:
    def test_a_examples(self):
        assert abcore.a_fn(1.0, P([0.0]), CFG).value == pytest.approx(math.pi**2 / 2, rel=1e-14)
        assert abcore.a_fn(3.0, P([2.0]), CFG).value == pytest.approx(math.pi**2 / 8, rel=1e-14)
        assert abcore.a_fn(2.0, P(), CFG).value == pytest.approx(2.0, rel=1e-14)

    def test_b_examples(self):
        assert abcore.b_fn(0.0, P(), CFG).value == pytest.approx(math.pi, rel=1e-14)
        assert abcore.b_fn(1.0, P([2.0]), CFG).value == pytest.approx(math.pi / 2, rel=1e-14)
        assert abcore.b_fn(1.0, P([1.0] * 3), CFG).value == pytest.approx(4.0, rel=1e-14)

    def test_a_ones(self):
        assert abcore.a_ones(0, 2.0) == pytest.approx(2.0, rel=1e-14)
        assert abcore.a_ones(2, 3.0) == 0.0
        got = abcore.a_fn(5.0, P([1.0] * 3), CFG, closed_forms=False).value
        assert abcore.a_ones(3, 5.0) == pytest.approx(got, abs=1e-10)

    def test_b_ones(self):
        assert abcore.b_ones(1, 0.0) == pytest.approx(math.pi, rel=1e-14)
        assert abcore.b_ones(0, 0.0) == pytest.approx(math.pi, rel=1e-14)
        assert abcore.b_ones(3, 1.0) == pytest.approx(4.0, rel=1e-14)

    def test_domains(self):
        with pytest.raises(ValueError):
            abcore.a_fn(1.0, P([2.0]), CFG)
        with pytest.raises(ValueError):
            abcore.b_fn(-1.0, P(), CFG)
        with pytest.raises(ValueError):
            abcore.a_ones(2, 2.0)
        with pytest.raises(ValueError):
            abcore.b_ones(1, -1.5)


class TestQuadratureAgainstClosedForms:
    def test_a_random_small_params(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n_params = int(rng.integers(0, 2))
            params = P(float(v) for v in rng.uniform(0.0, 3.0, n_params))
            alpha = params.total() + float(rng.uniform(0.5, 4.0))
            exact = abcore.a_fn(alpha, params, CFG).value
            got = abcore.a_fn(alpha, params, CFG, closed_forms=False).value
            assert got == pytest.approx(exact, abs=1e-10, rel=1e-10)

    def test_b_random_small_params(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n_params = int(rng.integers(0, 2))
            params = P(float(v) for v in rng.uniform(0.0, 3.0, n_params))
            alpha = float(rng.uniform(-0.9, 4.0))
            exact = abcore.b_fn(alpha, params, CFG).value
            got = abcore.b_fn(alpha, params, CFG, closed_forms=False).value
            assert got == pytest.approx(exact, abs=1e-10, rel=1e-10)

    def test_b_alternative_representation(self):
        rng = np.random.default_rng(23)
        assert abcore.b_fn_alt(0.0, P(), CFG).value == pytest.approx(math.pi, rel=1e-12)
        assert abcore.b_fn_alt(1.0, P([2.0]), CFG).value == pytest.approx(math.pi / 2, rel=1e-12)
        for _ in range(50):
            n_params = int(rng.integers(0, 4))
            params = P(float(v) for v in rng.uniform(0.0, 3.0, n_params))
            alpha = float(rng.uniform(-0.9, 4.0))
            r1 = abcore.b_fn(alpha, params, CFG, closed_forms=False)
            r2 = abcore.b_fn_alt(alpha, params, CFG)
            assert abs(r1.value - r2.value) <= r1.abs_err_est + r2.abs_err_est + 1e-12


class TestAPrime:
    def test_pole_lemma(self):
        assert abcore.a_prime_ones_at_pole(2) == pytest.approx(math.pi / 2)
        assert abcore.a_prime_ones_at_pole(4) == pytest.approx(-math.pi / 4)
        assert abcore.a_prime_ones_at_pole(6) == pytest.approx(math.pi / 6)
        with pytest.raises(ValueError):
            abcore.a_prime_ones_at_pole(3)

    def test_pole_lemma_against_quadrature(self):
        for k in (2, 4, 6):
            got = abcore.a_prime(k + 1.0, P([1.0] * k), CFG, closed_forms=False).value
            assert got == pytest.approx(abcore.a_prime_ones_at_pole(k), abs=1e-8)

    def test_odd_repeated_exact(self):
        val = abcore.a_prime_odd_repeated(1, 2)
        assert val.evaluate() == pytest.approx(-math.pi / 4, rel=1e-15)
        for q in range(1, 7):
            assert abcore.a_prime_odd_repeated(1, q).evaluate() == pytest.approx(
                abcore.a_prime_ones_at_pole(2 * q), rel=1e-14
            )

    def test_odd_repeated_against_quadrature(self):
        got = abcore.a_prime(19.0, P([3.0] * 6), CFG, closed_forms=False).value
        assert got == pytest.approx(abcore.a_prime_odd_repeated(2, 3).evaluate(), abs=1e-8)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(25)
        step = 1e-4
        for _ in range(20):
            n_params = int(rng.integers(0, 4))
            params = P(float(v) for v in rng.uniform(0.0, 3.0, n_params))
            alpha = params.total() + float(rng.uniform(1.0, 4.0))
            fd = (
                abcore.a_fn(alpha + step, params, CFG).value
                - abcore.a_fn(alpha - step, params, CFG).value
            ) / (2.0 * step)
            assert abcore.a_prime(alpha, params, CFG).value == pytest.approx(fd, abs=1e-6)

    def test_dispatch_matches_quadrature(self):
        fast = abcore.a_prime(5.0, P([1.0] * 4), CFG)
        slow = abcore.a_prime(5.0, P([1.0] * 4), CFG, closed_forms=False)
        assert fast.value == pytest.approx(slow.value, abs=1e-9)
        assert fast.method == "closed-form"


class TestVanishing:
    def test_vanishing_points(self):
        rng = np.random.default_rng(26)
        done = 0
        while done < 10:
            m = int(rng.integers(2, 6))
            ell = int(rng.integers(0, 3))
            if m - 1 - 2 * ell < 1:
                continue
            params = P(float(v) for v in rng.uniform(0.0, 2.0, m))
            alpha = m - 1 - 2 * ell + params.total()
            assert abs(abcore.a_fn(alpha, params, CFG, closed_forms=False).value) <= 1e-10
            done += 1


class TestLimitLemma:
    def test_values(self):
        assert abcore.limit_alpha_plus_one_times_b(P()) == 2.0
        assert abcore.limit_alpha_plus_one_times_b(P([0.0])) == pytest.approx(math.pi, rel=1e-14)
        for k in (2, 3, 5):
            assert abcore.limit_alpha_plus_one_times_b(P([0.0] * k)) == pytest.approx(
                math.pi**k, rel=1e-13
            )

    def test_against_small_alpha_limit(self):
        # (alpha+1) b(alpha) approaches the limit linearly; extrapolate
        # from gaps the quadrature can still resolve (the singular mass
        # at alpha+1 = eps extends down to scales exp(-1/eps), so tiny
        # eps is out of reach for double-precision nodes)
        params = P([0.7, 1.3])
        want = abcore.limit_alpha_plus_one_times_b(params)
        vals = {}
        for eps in (0.1, 0.05):
            vals[eps] = eps * abcore.b_fn(-1.0 + eps, params, CFG).value
        extrapolated = 2.0 * vals[0.05] - vals[0.1]
        assert extrapolated == pytest.approx(want, rel=5e-3)


class TestTheta:
    def test_empty_is_one(self):
        for x in (0.0, 0.5, 3.0):
            assert expect.theta_fn(x, P(), P(), CFG).value == pytest.approx(1.0, abs=1e-13)

    def test_limit_convention_case(self):
        got = expect.theta_fn(-0.5, P([0.0]), P([0.0]), CFG)
        assert got.value == pytest.approx(0.25, abs=1e-13)

    def test_finite_at_half_pole(self):
        got = expect.theta_fn(-0.5, P([0.0] * 4), P(), CFG)
        assert math.isfinite(got.value)

    def test_domain(self):
        with pytest.raises(ValueError):
            expect.theta_fn(-0.6, P(), P(), CFG)

    @pytest.mark.parametrize("outside", [(), (0.7,)])
    @pytest.mark.parametrize("gap", [1e-11, 1e-9, 1e-7, 9e-7])
    def test_near_b_pole_against_closed_forms(self, gap, outside):
        # linear factor 2x + 1 = gap: the product (linear) * b takes its
        # limit at the pole, which is off by about 0.69 * gap relative,
        # inside the band of 100 * gap
        x = 0.5 * (gap - 1.0)
        lin = 2.0 * x + 1.0
        got = expect.theta_fn(x, P(), P(outside), CFG)
        if outside:
            b = abcore._b_single(lin - 1.0, 2.0 * outside[0])
        else:
            b = abcore._b_empty(lin - 1.0)
        pref = 1.0 / (2.0 * math.pi)
        for w in outside:
            pref *= specfun.c_one_dim(w - 0.5)
        want = pref * abcore._a_empty(lin + 1.0) * lin * b
        assert abs(got.value - want) <= got.abs_err_est
        assert got.abs_err_est <= 101.0 * lin * abs(want)


class TestAbsorptionIdentity:
    # sums over raw subsets, not the classes of expect.enumerate_classes,
    # so it checks the grid of abcore.absorption-identity by another route
    @pytest.mark.parametrize("d,betas,beta", _ABSORPTION_GRID)
    def test_theta_sums_to_half(self, d, betas, beta):
        n = len(betas)
        gammas = [b + 0.5 * d for b in betas]
        terms = []
        for cards in (range(d + 1, n + 1, 2), range(d - 1, -1, -2)):
            for k in cards:
                for subset in combinations(range(n), k):
                    y = P(gammas[i] for i in subset)
                    z = P(gammas[i] for i in range(n) if i not in subset)
                    terms.append(expect.theta_fn(beta + 0.5 * d, y, z, CFG).value)
        assert math.fsum(terms) == pytest.approx(0.5, abs=1e-9)


class TestCache:
    def test_cache_consistent_and_clearable(self):
        abcore.clear_cache()
        params = P([0.4, 1.1])
        first = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        second = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        assert first == second
        key = ("a", 3.0, params.entries, abcore._cfg_key(CFG))
        assert abcore._cache_get(key) is not None
        abcore.clear_cache()
        assert abcore._cache_get(key) is None
        third = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        assert third == first


class TestAFactor:
    def test_minus_x_is_the_conjugate(self):
        # each factor at -x is the conjugate of the one at x, so the real part
        # of the a integrand is even and its integral over x >= 0 is half the whole
        for level in range(13):
            x, _ = quad._line_nodes(level)
            L = specfun._log_cosh(x)
            for b in (1e-13, 0.3, 1.0, 2.7, 9.5):
                log_mag, phase = abcore._a_factor(b, x, L)
                log_mag_neg, phase_neg = abcore._a_factor(b, -x, L)
                assert log_mag_neg.tobytes() == log_mag.tobytes()
                assert phase_neg.tobytes() == (-phase).tobytes()


class TestSharedFactors:
    SPEC = BetaSpec(3, (-0.6, -0.1, 0.3, 0.8, 1.4, 2.5))
    T = 2.0 * 0.3 + 3  # the beta integral at exponent 0.3

    def _integrals(self):
        out = []
        for cls in enumerate_classes(self.SPEC, (0, 2, 4, 6)):  # lower and upper
            s = cls.inside.total()
            for fn, alpha, params in (
                (abcore.a_fn, self.T + 2.0 + s, cls.inside),
                (abcore.a_prime, self.T + 2.0 + s, cls.inside),
                (abcore.b_fn, self.T + s, cls.outside),
            ):
                abcore.clear_cache()
                res = fn(alpha, params, CFG, closed_forms=False)
                out.append((res.value, res.abs_err_est))
        return out

    def test_bit_identical_inside_a_scope(self, monkeypatch):
        calls = {}
        for name in ("cosh_pow_integral_scaled", "_f_real_from_z"):
            calls[name] = 0

            def counted(*args, _name=name, _kernel=getattr(abcore, name)):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(abcore, name, counted)
        outside = self._integrals()
        unshared = dict(calls)
        with abcore.shared_factors():
            with abcore.shared_factors():  # a nested scope reuses the outer table
                inside = self._integrals()
        assert len(inside) == 3 * 32
        assert inside == outside
        for name, count in calls.items():
            assert 0 < count - unshared[name] < unshared[name] / 4, name

    def test_no_table_after_a_query(self, monkeypatch):
        seen = []
        a_fn = expect.a_fn

        def watched(*args, **kwargs):
            seen.append(abcore._factors.get() is not None)
            return a_fn(*args, **kwargs)

        monkeypatch.setattr(expect, "a_fn", watched)
        spec = BetaSpec(2, (-0.5, 0.4, 1.1, 2.0))
        expect.expected_hyp_volume(spec, CFG, representation="upper", closed_forms=False)
        assert seen and all(seen)
        assert abcore._factors.get() is None
        abcore.clear_cache()
        strict = QuadConfig(rel_tol=1e-16, abs_tol=1e-300, max_level=3)
        with pytest.raises(QuadratureError):
            expect.expected_hyp_volume(spec, strict, representation="upper", closed_forms=False)
        assert abcore._factors.get() is None


class TestConcurrency:
    def test_parallel_queries_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        specs = (BetaSpec(3, (-0.5, 0.2, 0.7, 1.3, 2.1)), BetaSpec(2, (0.1, 0.6, 1.2, 2.5, -0.3)))

        def work(i):
            res = expect.expected_hyp_volume(specs[i % 2], CFG, closed_forms=False)
            return res.value, res.abs_err_est

        abcore.clear_cache()
        serial = [work(i) for i in range(2)]
        abcore.clear_cache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                parallel = list(pool.map(work, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert parallel == [serial[i % 2] for i in range(8)]

    def test_parallel_cache_inserts_consistent(self):
        from concurrent.futures import ThreadPoolExecutor

        abcore.clear_cache()
        params = P([0.3, 1.7, 2.2])

        def work(_):
            return abcore.a_fn(5.5, params, CFG, closed_forms=False).value

        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(work, range(16)))
        assert len(set(values)) == 1
