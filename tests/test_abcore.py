"""The a/b/theta layer: closed forms versus quadrature, limits, identities."""

import importlib.util
import json
import math
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from hypvol import abcore, expect, quad, specfun
from hypvol.abcore import ParamMultiset
from hypvol.exact import PiPoly
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

    def test_closed_form_beyond_the_kernels_range(self):
        # the kernels' bound applies only to integrals bound for quadrature: a
        # singleton's closed form is returned at any parameter
        assert abcore.a_fn(2000.0, [1500.0], CFG).value == 0.0018137237908481102
        with pytest.raises(ValueError, match="below 1024"):
            abcore.a_fn(2000.0, [1500.0], CFG, closed_forms=False)


def _mp_closed(kind, alpha, params):
    """The closed forms' Gamma formulas in 40-digit mpmath: a, or (alpha + 1) * b, normalized.

    Normalized: times each parameter's constant c = Gamma(p/2 + 1)/(sqrt(pi) Gamma((p + 1)/2)), 1/F_p(pi/2).
    """
    with mp.workdps(40):
        al, n = mp.mpf(alpha), len(params)
        G = lambda x: mp.exp(mp.loggamma(x))  # noqa: E731
        cprod = mp.fprod(G(mp.mpf(p) / 2 + 1) / (mp.sqrt(mp.pi) * G((mp.mpf(p) + 1) / 2)) for p in params)
        if kind == "a" and n == 0:
            return mp.sqrt(mp.pi) * G(al / 2) / G((al + 1) / 2)
        if kind == "a" and n == 1:
            a1 = mp.mpf(params[0])
            return cprod * mp.pi / 2 * G(al / 2) * G((a1 + 1) / 2) / (G((al + 1) / 2) * G((a1 + 2) / 2))
        if kind == "a":
            return cprod * mp.pi * G(al - n) * 2 ** (n + 1 - al) * mp.rgamma((al + 1) / 2) * mp.rgamma((al + 1) / 2 - n)
        if n == 0:
            b = mp.sqrt(mp.pi) * G((al + 1) / 2) / G(al / 2 + 1)
        elif n == 1:
            a1 = mp.mpf(params[0])
            b = mp.pi / 2 * G((al + 1) / 2) * G((a1 + 1) / 2) / (G(al / 2 + 1) * G((a1 + 2) / 2))
        else:
            b = 2 ** (al + n) * G((al + 1) / 2) * G((al + 1) / 2 + n) / G(al + n + 1)
        return cprod * (al + 1) * b


class TestClosedFormBars:
    """Every normalized closed form within its derived bar of 40-digit mpmath, up to alpha and a1 = 1500."""

    @pytest.mark.parametrize("d", range(13))
    def test_ones(self, d):
        # the d repeated unit parameters: a_ones raised OverflowError from alpha ~ 350
        # and b_ones(8, 250.9) erred by 3.9e-13 under a bar of 1e-14
        params = P([1.0] * d)
        for kind, alphas in (("a", (d + 0.05, d + 1.0, d + 2.3, 13.7, 250.9, 349.5, 700.2, 1500.0)),
                             ("b", (-0.95, 0.0, 2.5, 250.9, 1000.7, 1500.0))):
            for alpha in alphas:
                if kind == "a" and not alpha > d:
                    continue
                got = abcore._closed_form(kind, alpha, params)
                want = _mp_closed(kind, alpha, params.entries)
                assert abs(got.value - want) <= got.abs_err_est, (kind, d, alpha)

    def test_empty_and_single(self):
        # b(1500.3; (1000.7,)) erred by 8.3e-13 under a bar of 1e-14
        for alpha in (0.05, 1.0, 13.5, 250.9, 1000.7, 1500.3):
            for params in ((), (0.0,), (0.7,), (13.5,), (1000.7,), (1500.3,)):
                for kind in ("a", "b"):
                    if kind == "a" and not alpha > sum(params):
                        continue
                    got = abcore._closed_form(kind, alpha, P(params))
                    want = _mp_closed(kind, alpha, params)
                    assert abs(got.value - want) <= got.abs_err_est, (kind, alpha, params)

    def test_vanishing_points_are_exact_zeros(self):
        # (alpha + 1)/2 - d at a pole of the reciprocal gamma: a factor alpha - c is exactly 0
        for d, alpha in ((2, 3.0), (3, 5.0), (4, 5.0), (4, 7.0), (7, 9.0), (12, 23.0)):
            got = abcore._closed_form("a", alpha, P([1.0] * d))
            assert (got.value, got.abs_err_est) == (0.0, 0.0), (d, alpha)

    def test_b_bar_covers_its_rows(self):
        # each b row is within f_real_row_err, which no b bar may fall below
        for alpha, params in ((0.3, (0.5, 2.0)), (2.0, (40.0, 3.0, 0.2)), (-0.9, (600.0,) * 2), (5.0, (1.3,) * 6)):
            abcore.clear_cache()
            got = abcore._integral("b", alpha, P(params), CFG, closed_forms=False)
            rows = abs(got.value) * sum(max(5e-15, 1.5e-16 * b) for b in params)  # _f_real_from_z's row bound
            assert got.abs_err_est >= rows, (alpha, params)


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


class TestBarRelativeToB:
    """The stopping rule of a b integral is relative to b, not to b less its closed term."""

    def test_large_alpha_many_parameters(self):
        res = abcore.b_fn(6.09, P([1.0036] * 10), CFG)
        alt = abcore.b_fn_alt(6.09, P([1.0036] * 10), CFG)
        assert res.abs_err_est <= 1e-11
        assert abs(res.value - alt.value) <= res.abs_err_est + alt.abs_err_est

    def test_near_ideal_beta_integral(self):
        spec = BetaSpec(3, (-0.9982,) * 9)
        lo = expect.expected_beta_integral(spec, 1.545, CFG, representation="lower")
        up = expect.expected_beta_integral(spec, 1.545, CFG, representation="upper")
        assert lo.abs_err_est <= 1e-12
        assert abs(lo.value - up.value) <= lo.abs_err_est + up.abs_err_est

    def test_unconverged_estimate_is_of_b(self):
        # max_level=3 stops the b integral before it converges; the error carries
        # b, not the quadrature total less the closed term (-476.5 before)
        with pytest.raises(quad.QuadratureError) as info:
            abcore.b_fn(6.09, P([1.0036] * 10), QuadConfig(max_level=3))
        est, res = info.value.estimate, abcore.b_fn(6.09, P([1.0036] * 10), CFG)
        assert abs(est.value - res.value) <= est.abs_err_est + res.abs_err_est


def _mp_a(alpha, params):
    """a(alpha; params) to 20 digits, with g(b, x) = sinh(x) 2F1(1/2, (1 - b)/2; 3/2; -sinh(x)**2)."""
    with mp.workdps(20):
        hs = [0.5 * mp.sqrt(mp.pi) * mp.gamma(mp.mpf(b) / 2 + 0.5) / mp.gamma(mp.mpf(b) / 2 + 1) for b in params]

        def f(x):
            s = mp.sinh(x)
            prod = mp.mpc(1)
            for b, h in zip(params, hs):
                prod *= mp.mpc(h, s * mp.hyp2f1(0.5, (1 - mp.mpf(b)) / 2, 1.5, -s * s))
            return mp.re(prod) / mp.cosh(x) ** alpha

        return 2 * mp.quad(f, [0, 1, 4, mp.inf])


class TestAAgainstMpmath:
    # parameters above 13 take the cosh-power kernel's upward recurrence
    @pytest.mark.parametrize("alpha, params", [(40.0, (25.3, 3.1)), (20.0, (5.3, 3.1)), (60.0, (31.7, 12.2, 4.4))])
    def test_within_bar(self, alpha, params):
        res = abcore.a_fn(alpha, P(params), CFG, closed_forms=False)
        assert abs(res.value - float(_mp_a(alpha, params))) <= res.abs_err_est


class TestAPrime:
    def test_pole_lemma(self):
        # a' at (2q+1; 1,...,1), where a itself vanishes, is (-1)**(q-1) pi/(2q)
        for q in range(1, 7):
            assert abcore.a_prime_odd_repeated(1, q) == PiPoly({1: Fraction((-1) ** (q - 1), 2 * q)}), q

    def test_pole_lemma_against_quadrature(self):
        for k in (2, 4, 6):
            got = abcore.a_prime(k + 1.0, P([1.0] * k), CFG, closed_forms=False).value
            assert got == pytest.approx(abcore.a_prime_odd_repeated(1, k // 2).evaluate(), abs=1e-8)

    def test_odd_repeated_exact(self):
        val = abcore.a_prime_odd_repeated(1, 2)
        assert val.evaluate() == pytest.approx(-math.pi / 4, rel=1e-15)
        for q in range(1, 7):
            assert abcore.a_prime_odd_repeated(1, q).evaluate() == pytest.approx(
                (-1) ** (q - 1) * math.pi / (2 * q), rel=1e-15
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
        # (alpha + 1) * b~ at the pole is 1, or 2 with no parameters, with or without closed forms;
        # times P, the product of the totals F_j(pi/2), it is the limit of (alpha + 1) * b
        assert abcore._closed_form("b", -1.0, P(), closed_forms=False).value == 2.0
        assert specfun.f_real_total(0.0) == pytest.approx(math.pi, rel=1e-14)
        for k in (1, 2, 3, 5):
            closed = abcore._closed_form("b", -1.0, P([0.0] * k), closed_forms=False)
            assert (closed.value, closed.abs_err_est) == (1.0, 0.0)
            assert math.prod(specfun.f_real_total(0.0) for _ in range(k)) == pytest.approx(math.pi**k, rel=1e-13)

    def test_against_small_alpha_limit(self):
        # (alpha+1) b(alpha) approaches the limit linearly; extrapolate
        # from gaps the quadrature can still resolve (the singular mass
        # at alpha+1 = eps extends down to scales exp(-1/eps), so tiny
        # eps is out of reach for double-precision nodes)
        params = P([0.7, 1.3])
        want = math.prod(specfun.f_real_total(b) for b in params)
        vals = {}
        for eps in (0.1, 0.05):
            vals[eps] = eps * abcore.b_fn(-1.0 + eps, params, CFG).value
        extrapolated = 2.0 * vals[0.05] - vals[0.1]
        assert extrapolated == pytest.approx(want, rel=5e-3)


GOLDEN = Path(__file__).parent / "golden"


def _golden_script():
    spec = importlib.util.spec_from_file_location("make_b_near_minus_one", GOLDEN / "make_b_near_minus_one.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestNearPoleReferences:
    """b near its pole alpha = -1 against 45-digit references (tests/golden/make_b_near_minus_one.py)."""

    ROWS = json.loads((GOLDEN / "b_near_minus_one.json").read_text())

    @staticmethod
    def _engine(row, closed_forms):
        if row["kind"] == "b":
            return [abcore.b_fn(row["alpha"], P(row["params"]), CFG, closed_forms=closed_forms)]
        spec = BetaSpec(2, (row["beta"],) * row["n"])
        reps = ("upper", "lower")
        return [expect.expected_hyp_volume(spec, CFG, representation=rep, closed_forms=closed_forms) for rep in reps]

    @pytest.mark.parametrize("closed_forms", [True, False])
    def test_within_bars(self, closed_forms):
        assert len(self.ROWS) == 27 and min(r["alpha"] for r in self.ROWS if r["kind"] == "b") == -0.9999
        for row in self.ROWS:
            abcore.clear_cache()
            for res in self._engine(row, closed_forms):
                assert abs(mp.mpf(res.value) - mp.mpf(row["value"])) <= res.abs_err_est, row

    def test_two_rows_recomputed(self):
        script = _golden_script()
        b_row = next(r for r in self.ROWS if r["kind"] == "b" and r["alpha"] == -0.998)  # ROADMAP's 48351.277...
        volume_row = next(r for r in self.ROWS if r["kind"] == "volume-d2" and r["beta"] == -0.99999)
        with mp.workdps(20):
            b = script.alpha_plus_one_times_b(b_row["alpha"], b_row["params"]) / (mp.mpf(b_row["alpha"]) + 1)
            volume = script.volume_d2(volume_row["beta"])
            for got, row in ((b, b_row), (volume, volume_row)):
                assert abs(got - mp.mpf(row["value"])) <= mp.mpf("1e-18") * abs(got)


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
        b = specfun.f_real_total(lin - 1.0)  # b(alpha; ()), and one parameter a1 times F_a1(pi/2)/2
        for w in outside:
            b *= 0.5 * specfun.f_real_total(2.0 * w)
        pref = 1.0 / (2.0 * math.pi)
        for w in outside:
            pref *= specfun.c_one_dim(w - 0.5)
        want = pref * math.sqrt(math.pi) / specfun.gamma_ratio_half(0.5 * (lin + 1.0)) * lin * b  # a(lin + 1; ())
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


def _is_row(key) -> bool:
    """Whether a table key names a factor row pair rather than a value (kind, alpha, params, cfg key).

    An "a" pair is keyed ("a", beta, level, j), its nodes those x <= 2**j
    of the step from level, and a "b" pair ("b", beta, level): both end
    in ints, a value key (4 entries) in its params and cfg tuples.
    """
    return len(key) == {"a": 4, "b": 3}.get(key[0]) and all(isinstance(v, int) for v in key[2:])


def _held_bytes() -> int:
    """The charge of every held entry: _VALUE_BYTES per integral value, its arrays' bytes per row pair.

    An "a" row entry is a (log-magnitude, phase) pair and a "b" entry a
    (lower, upper) pair, each of two equal-length arrays.
    """
    return sum(
        np.asarray(entry).nbytes if _is_row(key) else abcore._VALUE_BYTES
        for key, (entry, _) in abcore._table.items()
    )


def _drop_values() -> None:
    """Drop the held integral values only: the factor rows stay."""
    with abcore._table_lock:
        for key in [key for key in abcore._table if not _is_row(key)]:
            abcore._table_bytes -= abcore._table.pop(key)[1]


class TestCache:
    def test_cache_consistent_and_clearable(self):
        abcore.clear_cache()
        params = P([0.4, 1.1])
        first = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        second = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        assert first == second
        key = ("a", 3.0, params.entries, abcore._cfg_key(CFG))
        assert abcore._cache_get(key) is not None
        assert any(_is_row(key) for key in abcore._table)
        assert abcore._table_bytes == _held_bytes()
        abcore.clear_cache()
        assert abcore._cache_get(key) is None
        assert not abcore._table and abcore._table_bytes == 0
        third = abcore.a_fn(3.0, params, CFG, closed_forms=False).value
        assert third == first


class TestAFactor:
    def test_minus_x_is_the_conjugate(self):
        # each factor at -x is the conjugate of the one at x, so the real part
        # of the a integrand is even and its integral over x >= 0 is half the whole
        betas = (1e-13, 0.3, 1.0, 2.7, 9.5)
        for level in range(13):
            x, _ = quad._line_nodes(level)
            rows = abcore._a_factors(betas, specfun.CoshPowNodes(x))
            rows_neg = abcore._a_factors(betas, specfun.CoshPowNodes(-x))
            assert len(rows) == len(rows_neg) == len(betas)
            centre = x == 0.0  # level 0's centre is its own mirror: the factor is real there
            assert centre.sum() == (level == 0)
            for (log_mag, phase), (log_mag_neg, phase_neg) in zip(rows, rows_neg):
                assert log_mag_neg.tobytes() == log_mag.tobytes()
                assert phase_neg[~centre].tobytes() == (-phase[~centre]).tobytes()
                assert phase[centre].tobytes() == np.zeros(centre.sum()).tobytes()  # +0.0


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


class TestTracedKernelShape:
    def test_node_counts_per_call(self, monkeypatch):
        # perfbench/tracing.py wraps the two kernel names in abcore and counts
        # np.size(args[1]) per call as its nodes: the cut step table passed in
        # place of the real-line nodes must count as its nodes do, fewer than
        # the whole step's
        counts = {}
        served = []  # the real-line step tables abcore asked for, in order
        line_table = abcore._line_table

        def serve(levels, j):
            served.append((levels, j, line_table(levels, j)))
            return served[-1][-1]

        monkeypatch.setattr(abcore, "_line_table", serve)
        for name in ("cosh_pow_integral_scaled", "_f_real_from_z"):
            counts[name] = []

            def wrapped(*args, _name=name, _kernel=getattr(abcore, name), **kwargs):
                counts[_name].append((np.size(args[1]), args[1]))
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(abcore, name, wrapped)
        abcore.clear_cache()
        res = expect.expected_beta_integral(BetaSpec(3, (-0.5, 0.2, 0.7, 1.3, 2.1, 2.9)), 0.7)
        assert math.isfinite(res.value)
        first = quad._step_levels(0)
        assert quad._line_step_nodes(first)[0].size == 210
        segment = quad._finite_step_abscissae(0.0, 0.5 * math.pi, first)[0].size
        assert segment == 297
        assert counts["_f_real_from_z"] and all(size == segment for size, _ in counts["_f_real_from_z"])
        assert counts["cosh_pow_integral_scaled"]
        for size, nodes in counts["cosh_pow_integral_scaled"]:
            levels, j, (weight, cuts, table) = next(entry for entry in served if entry[-1][-1] is nodes)
            assert size == table.size == weight.size == cuts[-1]
            assert j < abcore._FULL_J and size < quad._line_step_nodes(levels)[0].size, (levels, j, size)
        assert counts["cosh_pow_integral_scaled"][0][0] < 100  # of the first step's 210


def _quadrature(requests, cfg):
    """(value, abs_err_est) of each request from one ``abcore._integrals`` call without closed forms."""
    return [(res.value, res.abs_err_est) for res in abcore._integrals(requests, cfg, closed_forms=False)]


class TestLineCut:
    """A real-line step keeps its nodes x <= 2**j only (abcore._cut_exponent): every dropped integrand is 0.0."""

    CFG = QuadConfig(rel_tol=1e-15, abs_tol=1e-18)  # refines through steps 6-9 (and on to 11)
    # (kind, tau, params): tau = alpha - sum(params) from 0.05 to 12, k = len(params) from 1 to 200
    REQUESTS = [
        ("a", 0.05, (0.0, 1e-13, 2.5, 7.25)),
        ("a'", 0.05, (0.4, 1.1, 3.3) * 10),
        ("a", 0.2, (1e-13,)),
        ("a", 1.0, (0.0, 2.9)),
        ("a'", 1.0, (0.5, 1.5, 2.5, 4.0) * 50),
        ("a", 3.0, (0.25, 1.75, 5.5, 11.0)),
        ("a'", 2.0, (1022.0, 7.5)),
        ("a", 12.0, (0.0, 1e-13, 0.5, 3.0, 40.0) * 40),
        ("a'", 12.0, (20.0, 1022.0, 0.75)),
        ("a", 1.0, (0.0,) * 3),  # s_0(x) = x: each factor near its bound 1/2 + x/B
        ("a'", 0.5, (0.0,) * 12),
    ]

    @staticmethod
    def _outcomes(cfg):
        """Each request's (value, abs_err_est) alone, or its QuadratureError's estimate, then all of them in one call."""
        requests = [(kind, tau + math.fsum(params), P(params)) for kind, tau, params in TestLineCut.REQUESTS]
        out = []
        for request in [[r] for r in requests] + [requests]:
            abcore.clear_cache()
            try:
                out.append(_quadrature(request, cfg))
            except quad.QuadratureError as exc:
                out.append(("QuadratureError", exc.estimate.value, exc.estimate.abs_err_est))
        for fn in (abcore.a_fn, abcore.a_prime):  # tau = 0.05 through the public calls, held product included
            abcore.clear_cache()
            res = fn(0.05 + 10.5, P([0.0, 1e-13, 3.0, 7.5]), cfg, closed_forms=False)
            out.append((res.value, res.abs_err_est))
        return out

    def test_cut_is_exact(self, monkeypatch):
        cut = self._outcomes(self.CFG)
        # the whole step: every table keeps all its nodes, and each integrand
        # is checked to be 0.0 at every node the cut would drop
        cut_exponent, line_table, a_body = abcore._cut_exponent, abcore._line_table, abcore._a_body
        step, starts, dropped = {}, set(), []

        def whole(states):
            step["j"] = cut_exponent(states)
            return abcore._FULL_J

        def table(levels, j):
            starts.add(levels.start)
            step["x"] = quad._line_step_nodes(levels)[0]
            return line_table(levels, j)

        def integrand(*args):
            vals = a_body(*args)
            dropped.append(vals[step["x"] > 2.0 ** step["j"]])
            return vals

        monkeypatch.setattr(abcore, "_cut_exponent", whole)
        monkeypatch.setattr(abcore, "_line_table", table)
        monkeypatch.setattr(abcore, "_a_body", integrand)
        uncut = self._outcomes(self.CFG)
        assert {0, 6, 7, 8, 9} <= starts
        assert sum(map(np.size, dropped)) > 0
        for vals in dropped:
            assert not vals.any(), vals[vals != 0.0]  # +0.0 or -0.0 at every dropped node
        assert repr(cut) == repr(uncut)  # float reprs round-trip: every bit, the sign of zero too


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
        _drop_values()
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
        ((log_mag, phase),) = abcore._a_factors((0.7,), specfun.CoshPowNodes(x))
        ((low, high),) = abcore._b_factors((0.7,), t, np.sin(t))
        for row in (log_mag, phase, low, high):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0

    def test_eviction_inside_a_query_keeps_values(self, monkeypatch, kernel_calls):
        spec = BetaSpec(2, (-0.5, 0.4, 1.1, 2.0, 2.6))
        abcore.clear_cache()
        want = expect.expected_hyp_volume(spec, CFG, closed_forms=False)
        unevicted = dict(kernel_calls)
        unevicted_rows = sum(map(_is_row, abcore._table))
        budget = 8192  # a few rows of the middle levels
        monkeypatch.setattr(abcore, "_BUDGET", budget)
        held = []
        hold = abcore._hold

        def recorded(entries):
            hold(entries)
            held.append(abcore._table_bytes)

        monkeypatch.setattr(abcore, "_hold", recorded)
        abcore.clear_cache()
        got = expect.expected_hyp_volume(spec, CFG, closed_forms=False)
        assert (got.value, got.abs_err_est) == (want.value, want.abs_err_est)
        # each level fetches its rows once and hands them to its integrals,
        # so a row evicted later in the level is not computed again
        assert {name: count - unevicted[name] for name, count in kernel_calls.items()} == unevicted
        assert held and max(held) <= budget
        assert sum(map(_is_row, abcore._table)) < unevicted_rows  # rows were evicted
        assert abcore._table_bytes == _held_bytes()

    def test_small_budget_bounds_the_table_across_queries(self, monkeypatch):
        # values and rows share one budget; what a query evicts never changes
        # what a later query returns
        specs = (
            BetaSpec(3, (-0.6, 0.2, 0.9, 1.7, 2.4)),
            BetaSpec(2, (-0.3, 0.5, 1.2, 2.8)),
            BetaSpec(3, (-0.6, 0.2, 0.9, 1.7, 2.4, 3.1)),
            BetaSpec(4, (0.1, 0.7, 1.3, 2.2, 2.9, 0.45)),
        )
        cold = []
        for spec in specs:
            abcore.clear_cache()
            res = expect.expected_hyp_volume(spec, CFG, closed_forms=False)
            cold.append((res.value, res.abs_err_est))
        budget = 16384
        monkeypatch.setattr(abcore, "_BUDGET", budget)
        abcore.clear_cache()
        for spec, want in zip(specs + specs, cold + cold):
            res = expect.expected_hyp_volume(spec, CFG, closed_forms=False)
            assert _bits([(res.value, res.abs_err_est)]) == _bits([want])
            assert abcore._table_bytes <= budget
            assert abcore._table_bytes == _held_bytes()
        assert any(_is_row(key) for key in abcore._table) and any(not _is_row(key) for key in abcore._table)

    def test_rows_of_a_max_level_3_query_serve_a_default_query(self, kernel_calls):
        # a step depends on its first level only, not on max_level: the rows a
        # max_level=3 query holds under (kind, beta, 0) are the rows of levels
        # 0..5 that a later default query reads
        abcore.clear_cache()
        cold = expect.expected_hyp_volume(self.SPEC, CFG, closed_forms=False)
        cold_calls = dict(kernel_calls)
        abcore.clear_cache()
        with pytest.raises(quad.QuadratureError):
            expect.expected_hyp_volume(self.SPEC, QuadConfig(max_level=3), closed_forms=False)
        shallow_calls = dict(kernel_calls)
        warm = expect.expected_hyp_volume(self.SPEC, CFG, closed_forms=False)
        assert _bits([(warm.value, warm.abs_err_est)]) == _bits([(cold.value, cold.abs_err_est)])
        for name, count in kernel_calls.items():
            # the shallow query fetched the first step's rows, so the default one does not
            assert shallow_calls[name] - cold_calls[name] == 1, name
            assert count - shallow_calls[name] == cold_calls[name] - 1, name


def _bits(pairs):
    return [(value.hex(), err.hex()) for value, err in pairs]


class TestLevelLoop:
    """abcore._integrals: many integrals refined together, one step of levels at a time."""

    LOOSE = QuadConfig(rel_tol=1e-8, abs_tol=1e-10, max_level=14)
    NEVER = QuadConfig(rel_tol=1e-17, abs_tol=1e-300, max_level=3)  # no request converges
    TIGHT = QuadConfig(rel_tol=2e-16, abs_tol=1e-300, max_level=7)  # some requests past level 5, some never converge
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
            single += _quadrature([request], self.LOOSE)
        assert len(set(levels)) >= 3  # the integrals stop at different levels
        abcore.clear_cache()
        levels.clear()
        batch = _quadrature(list(self.REQUESTS), self.LOOSE)
        assert _bits(batch) == _bits(single)
        assert len(levels) == len(self.REQUESTS)  # one stopping rule per request, a b too
        for (kind, alpha, params), (value, err) in zip(self.REQUESTS, single):
            # the level loop's integrals are normalized: the public function is P times one, P the
            # product of the totals F_j(pi/2), over alpha + 1 for b_fn, its bar widened by P's bound
            held = math.prod(specfun.f_real_total(b) for b in params)
            scale = held / (alpha + 1.0) if kind == "b" else held
            rel = len(params) * (specfun.quotient_err(0) + specfun._U) + 2.0 * specfun._U
            fn = {"a": abcore.a_fn, "a'": abcore.a_prime, "b": abcore.b_fn}[kind]
            abcore.clear_cache()
            res = fn(alpha, params, self.LOOSE, closed_forms=False)
            assert _bits([(res.value, res.abs_err_est)]) == _bits([(scale * value, scale * err + rel * abs(scale * value))])

    def test_first_failure_in_request_order(self):
        # nothing converges at NEVER: each batch raises the error of its first request
        errors = {}
        for request in self.REQUESTS:
            abcore.clear_cache()
            with pytest.raises(quad.QuadratureError) as info:
                _quadrature([request], self.NEVER)
            errors[request] = info.value
        failing = [r for r in self.REQUESTS if r[0] == "b" and r[1] == -0.98]
        assert errors[failing[0]].estimate != errors[failing[1]].estimate
        for order in (failing, failing[::-1], self.REQUESTS, self.REQUESTS[::-1]):
            want = errors[order[0]]
            abcore.clear_cache()
            with pytest.raises(quad.QuadratureError) as info:
                _quadrature(list(order), self.NEVER)
            assert str(info.value) == str(want)
            assert info.value.estimate == want.estimate

    def test_one_kernel_call_per_level(self, monkeypatch, kernel_calls):
        levels = self._stopping_levels(monkeypatch)
        spec = BetaSpec(3, (-0.6, -0.1, 0.3, 0.8, 1.4, 2.5, 3.1))
        abcore.clear_cache()
        res = expect.expected_hyp_volume(spec, CFG, closed_forms=False)
        assert math.isfinite(res.value)
        depth = max(levels) + 1  # levels run, counting level 0
        assert len(levels) > 2 * 20  # many classes, each with an a' and a b integral
        # per level one call for the b integrals and one for the a side
        assert kernel_calls["_f_real_from_z"] <= depth
        assert kernel_calls["cosh_pow_integral_scaled"] <= depth


    def test_first_step_spans_levels_0_to_5(self, monkeypatch, kernel_calls):
        # against one level per step: a and b rows are elementwise in their
        # nodes, so a, a' and b keep every bit
        rng = np.random.default_rng(27)
        requests = list(self.REQUESTS)
        for k in range(18):
            kind = ("a", "a'", "b")[k % 3]
            params = P([*rng.uniform(0.0, 3.0, 1 + k % 4), (0.0, 1e-13, 1e-7, 0.5)[k // 3 % 4]])
            alpha = rng.uniform(-0.99, 4.0) if kind == "b" else params.total() + rng.uniform(0.05, 4.0)
            requests.append((kind, alpha, params))
        deepest = {}

        class Recorded(quad.Refinement):
            __slots__ = ()

            def add(self, part):
                deepest[self.method] = max(deepest.get(self.method, 0), self.level)
                return super().add(part)

        monkeypatch.setattr(quad, "Refinement", Recorded)

        kinds = {"a": ("cosh_pow_integral_scaled", "de-real-line"), "b": ("_f_real_from_z", "tanh-sinh")}

        def run(batches, cfg):
            """Per cold _integrals call of each batch: its outcomes, kernel calls by kind and deepest level by kind.

            An outcome is (raised, value, abs_err_est), the estimate of the
            QuadratureError the call raised if it did.
            """
            out = []
            for batch in batches:
                abcore.clear_cache()
                deepest.clear()
                before = dict(kernel_calls)
                try:
                    outcomes = [(False, *pair) for pair in _quadrature(batch, cfg)]
                except quad.QuadratureError as exc:
                    outcomes = [(True, exc.estimate.value, exc.estimate.abs_err_est)]
                levels = {kind: deepest[method] for kind, (_, method) in kinds.items() if method in deepest}
                out.append((outcomes, {kind: kernel_calls[kinds[kind][0]] - before[kinds[kind][0]] for kind in levels}, levels))
            return out

        # LOOSE converges in one batch, no deeper than level 5; at max_level=4
        # most requests do not converge, and at TIGHT some go past level 5 and
        # some do not converge, so each of those requests runs alone
        alone = [[request] for request in requests]
        for batches, cfg, depth in (([requests], self.LOOSE, 5), (alone, QuadConfig(max_level=4), 4), (alone, self.TIGHT, 7)):
            with monkeypatch.context() as patch:
                patch.setattr(quad, "_step_levels", lambda first: range(first, first + 1))
                try:
                    one = run(batches, cfg)
                finally:
                    abcore.clear_cache()  # its rows are held under the keys of the real steps
            got = run(batches, cfg)
            raised = 0
            for batch, (outcomes, calls, levels), (one_outcomes, one_calls, one_levels) in zip(batches, got, one):
                assert one_calls == {kind: level + 1 for kind, level in one_levels.items()}
                assert calls == {kind: 1 if level <= 5 else level - 4 for kind, level in levels.items()}
                assert levels == one_levels
                for (failed, value, err), (one_failed, one_value, one_err) in zip(outcomes, one_outcomes):
                    assert failed == one_failed
                    raised += failed
                    assert (value.hex(), err.hex()) == (one_value.hex(), one_err.hex())
            assert max(max(levels.values()) for _, _, levels in got) == depth  # the deepest level added
            assert (raised > 0) == (cfg is not self.LOOSE) and raised < len(requests)


class TestConcurrency:
    def test_parallel_queries_match_serial(self):
        self._parallel_queries_match_serial()

    def test_parallel_queries_with_a_tiny_factor_budget(self, monkeypatch):
        # rows are evicted while other threads still integrate with them
        monkeypatch.setattr(abcore, "_BUDGET", 8192)
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
