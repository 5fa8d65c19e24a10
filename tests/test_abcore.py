"""The a/b/theta layer: closed forms versus quadrature, limits, identities."""

import math
import sys
from itertools import combinations

import numpy as np
import pytest

from hypvol import abcore, expect, quad, specfun
from hypvol.abcore import ParamMultiset
from hypvol.expect import BetaSpec, enumerate_classes
from hypvol.quad import QuadConfig
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


def _held_bytes() -> int:
    """Row bytes plus key abscissae bytes of every held factor row.

    An "a" row is a (log-magnitude, phase) pair of equal-length arrays.
    """
    return sum(np.asarray(row).nbytes + len(key[-1]) for key, (row, _) in abcore._factor_rows.items())


class TestCache:
    def test_cache_consistent_and_clearable(self):
        abcore.clear_cache()
        params = P([0.4, 1.1])
        first = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        second = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        assert first == second
        key = ("a", 3.0, params.entries, abcore._cfg_key(CFG))
        assert abcore._cache_get(key) is not None
        assert abcore._factor_rows
        assert abcore._factor_bytes == _held_bytes()
        abcore.clear_cache()
        assert abcore._cache_get(key) is None
        assert not abcore._factor_rows and abcore._factor_bytes == 0
        third = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        assert third == first


class TestAFactor:
    def test_minus_x_is_the_conjugate(self):
        # each factor at -x is the conjugate of the one at x, so the real part
        # of the a integrand is even and its integral over x >= 0 is half the whole
        betas = (1e-13, 0.3, 1.0, 2.7, 9.5)
        for level in range(13):
            x, _ = quad._line_nodes(level)
            L = specfun._log_cosh(x)
            rows = abcore._a_factors(betas, x, L)
            rows_neg = abcore._a_factors(betas, -x, L)
            assert len(rows) == len(rows_neg) == len(betas)
            for (log_mag, phase), (log_mag_neg, phase_neg) in zip(rows, rows_neg):
                assert log_mag_neg.tobytes() == log_mag.tobytes()
                assert phase_neg.tobytes() == (-phase).tobytes()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of the two factor kernels through abcore's module globals."""
    calls = {}
    for name in ("cosh_pow_integral_scaled", "_f_real_from_z"):
        calls[name] = 0

        def counted(*args, _name=name, _kernel=getattr(abcore, name)):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(abcore, name, counted)
    return calls


class TestFactorTable:
    SPEC = BetaSpec(3, (-0.6, -0.1, 0.3, 0.8, 1.4, 2.5))
    T = 2.0 * 0.3 + 3  # the beta integral at exponent 0.3

    def _integrals(self, cold: bool):
        """a, a' and b of the lower and upper classes; cold clears the caches before each."""
        abcore.clear_cache()
        out = []
        for cls in enumerate_classes(self.SPEC, (0, 2, 4, 6)):  # lower and upper
            s = cls.inside.total()
            for fn, alpha, params in (
                (abcore.a_fn, self.T + 2.0 + s, cls.inside),
                (abcore.a_prime, self.T + 2.0 + s, cls.inside),
                (abcore.b_fn, self.T + s, cls.outside),
            ):
                if cold:
                    abcore.clear_cache()
                res = fn(alpha, params, CFG, closed_forms=False)
                out.append((res.value, res.abs_err_est))
        return out

    def test_bit_identical_warm_and_cold(self, kernel_calls):
        cold = self._integrals(cold=True)
        cold_calls = dict(kernel_calls)
        warm = self._integrals(cold=False)
        assert len(warm) == 3 * 32
        assert warm == cold
        for name, count in kernel_calls.items():
            assert 0 < count - cold_calls[name] < cold_calls[name] / 4, name

    def test_sweep_rerun_makes_no_kernel_calls(self, kernel_calls):
        # growing n over one pool: each query reuses the rows of the ones before
        pool = (-0.4, 1.3)
        specs = [BetaSpec(3, tuple(pool[i % len(pool)] for i in range(n))) for n in range(4, 10)]

        def sweep(clear_each: bool):
            out = []
            for spec in specs:
                if clear_each:
                    abcore.clear_cache()
                res = expect.expected_hyp_volume(spec, CFG)
                out.append((res.value, res.abs_err_est))
            return out

        per_query = sweep(clear_each=True)
        per_query_calls = dict(kernel_calls)
        abcore.clear_cache()
        warm = sweep(clear_each=False)
        warm_calls = dict(kernel_calls)
        with abcore._cache_lock:
            abcore._cache.clear()  # the integral values only: the factor rows stay
        rerun = sweep(clear_each=False)
        assert warm == per_query and rerun == per_query
        assert kernel_calls == warm_calls
        for name, count in warm_calls.items():
            assert 0 < count - per_query_calls[name] < per_query_calls[name], name

    def test_rows_are_read_only(self):
        # held rows outlive the query that computed them
        x, _ = quad._line_nodes(3)
        t, _ = quad._finite_abscissae(0.0, 0.5 * math.pi, 3)
        abcore.clear_cache()
        ((log_mag, phase),) = abcore._a_factors((0.7,), x, specfun._log_cosh(x))
        (low,) = abcore._b_factors((0.7,), t, False)
        for row in (log_mag, phase, low):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0

    def test_eviction_inside_a_query_keeps_values(self, monkeypatch, kernel_calls):
        spec = BetaSpec(2, (-0.5, 0.4, 1.1, 2.0, 2.6))
        abcore.clear_cache()
        want = expect.expected_hyp_volume(spec, CFG, closed_forms=False)
        unevicted = dict(kernel_calls)
        budget = 8192  # a few rows of the middle levels
        monkeypatch.setattr(abcore, "_FACTOR_BUDGET", budget)
        held = []
        hold = abcore._hold_factors

        def recorded(rows, row_bytes):
            hold(rows, row_bytes)
            held.append(abcore._factor_bytes)

        monkeypatch.setattr(abcore, "_hold_factors", recorded)
        abcore.clear_cache()
        got = expect.expected_hyp_volume(spec, CFG, closed_forms=False)
        assert (got.value, got.abs_err_est) == (want.value, want.abs_err_est)
        calls, unevicted_calls = sum(kernel_calls.values()), sum(unevicted.values())
        assert calls - unevicted_calls > unevicted_calls  # evicted rows were computed again
        assert held and max(held) <= budget
        assert abcore._factor_bytes == _held_bytes()


def _bits(pairs):
    return [(value.hex(), err.hex()) for value, err in pairs]


class TestLevelLoop:
    """abcore._integrals: many integrals refined together, one level at a time."""

    LOOSE = QuadConfig(rel_tol=1e-8, abs_tol=1e-10, max_level=14)  # b at -0.98 converges, at level 10
    REQUESTS = (
        ("a", 3.5, P([0.0, 0.0, 0.7])),  # zero parameters: d = 2 ideal points
        ("a", 5.2, P([1e-13, 1.3, 2.1])),
        ("a", 1.05, P([0.0, 0.0, 1.0])),
        ("a'", 4.4, P([0.0, 0.9, 1.6])),
        ("a'", 9.0, P([1e-13, 2.5, 3.3, 0.4])),
        ("b", -0.98, P([1e-13, 0.8])),
        ("b", -0.98, P([0.3, 1.2])),
        ("b", 0.6, P([0.0, 0.0, 2.2])),
        ("b", 7.5, P([1.9, 3.1])),
    )

    @staticmethod
    def _stopping_levels(monkeypatch) -> list:
        levels = []

        class Recorded(quad.Refinement):
            __slots__ = ()

            def add(self, part):
                done = super().add(part)
                if done:
                    levels.append(self.level - 1)
                return done

        monkeypatch.setattr(quad, "Refinement", Recorded)
        return levels

    def test_batch_equals_one_request_calls(self, monkeypatch):
        levels = self._stopping_levels(monkeypatch)
        single = []
        for request in self.REQUESTS:
            abcore.clear_cache()
            single += abcore._integrals([request], self.LOOSE)
        abcore.clear_cache()
        batch = abcore._integrals(list(self.REQUESTS), self.LOOSE)
        assert _bits(batch) == _bits(single)
        assert len(set(levels)) >= 3  # the integrals stop at different levels
        for (kind, alpha, params), (value, err) in zip(self.REQUESTS, single):
            fn = {"a": abcore.a_fn, "a'": abcore.a_prime, "b": abcore.b_fn}[kind]
            abcore.clear_cache()
            res = fn(alpha, params, self.LOOSE, closed_forms=False)
            assert _bits([(res.value, res.abs_err_est)]) == _bits([(value, err)])

    def test_first_failure_in_request_order(self):
        # at the default tolerances both b integrals at -0.98 fail in their upper half
        failing = [r for r in self.REQUESTS if r[0] == "b" and r[1] == -0.98]
        errors = []
        for request in failing:
            abcore.clear_cache()
            with pytest.raises(quad.QuadratureError) as info:
                abcore._integrals([request], CFG)
            errors.append(info.value)
        assert errors[0].estimate != errors[1].estimate
        for order, want in ((self.REQUESTS, errors[0]), (self.REQUESTS[::-1], errors[1])):
            abcore.clear_cache()
            with pytest.raises(quad.QuadratureError) as info:
                abcore._integrals(list(order), CFG)
            assert str(info.value) == str(want)
            assert info.value.estimate == want.estimate

    def test_one_kernel_call_per_level(self, monkeypatch, kernel_calls):
        levels = self._stopping_levels(monkeypatch)
        spec = BetaSpec(3, (-0.6, -0.1, 0.3, 0.8, 1.4, 2.5, 3.1))
        abcore.clear_cache()
        res = expect.expected_hyp_volume(spec, CFG, closed_forms=False)
        assert math.isfinite(res.value)
        depth = max(levels) + 1  # levels run, counting level 0
        assert len(levels) > 2 * 20  # many classes, each with an a' and two b halves
        # per level one call per b half and one for the a side; level 0 adds the centres
        assert kernel_calls["_f_real_from_z"] <= 2 * depth + 2
        assert kernel_calls["cosh_pow_integral_scaled"] <= depth + 1


class TestConcurrency:
    def test_parallel_queries_match_serial(self):
        self._parallel_queries_match_serial()

    def test_parallel_queries_with_a_tiny_factor_budget(self, monkeypatch):
        # rows are evicted while other threads still integrate with them
        monkeypatch.setattr(abcore, "_FACTOR_BUDGET", 8192)
        self._parallel_queries_match_serial()

    @staticmethod
    def _parallel_queries_match_serial():
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
