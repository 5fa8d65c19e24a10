"""Scalar special functions against independent oracles.

The gamma routines are checked against the C library's lgamma, the
incomplete beta against mpmath, the segment primitives against direct
substituted quadrature, and the log-sine integral against both its
defining integral and frozen high-precision digits.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypvol import quad, specfun
from hypvol.verify import _quad_f_beta

CFG = quad.QuadConfig()

# frozen via mpmath (clsin) and confirmed by direct quadrature below
LOBACHEVSKY_PI_3 = 0.33831386880321788
REGULAR_IDEAL_TETRA = 1.0149416064096536


class TestLogGamma:
    def test_exact_points(self):
        assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert specfun.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)
        assert specfun.log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.log_gamma(0.0)
        with pytest.raises(ValueError):
            specfun.log_gamma(-2.5)

    @given(st.floats(min_value=1e-3, max_value=170.0))
    def test_against_libm(self, x):
        want = math.lgamma(x)
        assert specfun.log_gamma(x) == pytest.approx(want, rel=1e-14, abs=1e-14)

    def test_against_mpmath(self):
        with mp.workdps(40):
            for x in np.concatenate([np.linspace(1e-3, 0.5, 40), np.linspace(0.5, 5.0, 181), np.linspace(5.0, 200.0, 80)]):
                want = mp.loggamma(mp.mpf(float(x)))
                err = abs(mp.mpf(specfun.log_gamma(float(x))) - want)
                assert err <= specfun.LOG_GAMMA_ERR * max(1, abs(want)), x

    def test_gamma_real_reflection(self):
        assert specfun.gamma_real(-0.5) == pytest.approx(math.gamma(-0.5), rel=1e-13)
        assert specfun.gamma_real(-2.3) == pytest.approx(math.gamma(-2.3), rel=1e-13)
        with pytest.raises(ValueError):
            specfun.gamma_real(-3.0)


class TestNormalizingConstants:
    def test_c_one_dim_values(self):
        assert specfun.c_one_dim(0.0) == pytest.approx(0.5, rel=1e-14)
        assert specfun.c_one_dim(-0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert specfun.c_one_dim(0.5) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_c_d_beta_values(self):
        assert specfun.c_d_beta(2, 0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert specfun.c_d_beta(3, 0.0) == pytest.approx(3.0 / (4.0 * math.pi), rel=1e-14)
        for beta in (-0.5, 0.0, 1.7):
            assert specfun.c_d_beta(1, beta) == pytest.approx(specfun.c_one_dim(beta), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.c_one_dim(-1.0)
        with pytest.raises(ValueError):
            specfun.c_d_beta(0, 0.0)


class TestIncBeta:
    def test_complete_and_zero(self):
        for p, q in [(2.0, 3.0), (0.5, 0.5), (0.05, 4.0)]:
            want = math.exp(specfun.log_gamma(p) + specfun.log_gamma(q) - specfun.log_gamma(p + q))
            assert specfun.inc_beta(1.0, p, q) == pytest.approx(want, rel=1e-12)
            assert specfun.inc_beta(0.0, p, q) == 0.0

    def test_symmetry_at_half(self):
        for p in (0.3, 1.0, 2.5):
            want = 0.5 * math.exp(2 * specfun.log_gamma(p) - specfun.log_gamma(2 * p))
            assert specfun.inc_beta(0.5, p, p) == pytest.approx(want, rel=1e-12)

    def test_against_mpmath(self):
        mp.mp.dps = 30
        rng = np.random.default_rng(123)
        for _ in range(60):
            p = float(rng.uniform(0.03, 8.0))
            q = float(rng.uniform(0.03, 8.0))
            z = float(rng.uniform(0.0, 1.0))
            want = float(mp.betainc(p, q, 0, z))
            assert specfun.inc_beta(z, p, q) == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_complete_beta_error_bound(self):
        # the complete B(p, p) behind every upper-half b factor, within its bound
        ps = np.concatenate([np.geomspace(1e-6, 0.5, 60), np.linspace(0.5, 100.0, 200)])
        with mp.workdps(40):
            for p in ps.tolist():
                got = specfun._inc_beta_parts(np.array([1.0]), np.array([0.0]), p, p)[0][0]
                want = mp.beta(p, p)
                assert abs((mp.mpf(got) - want) / want) <= specfun.complete_beta_rel_err(p, p), p

    def test_vectorized(self):
        z = np.array([0.1, 0.5, 0.9])
        out = specfun.inc_beta(z, 2.0, 2.0)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(specfun.inc_beta(0.5, 2.0, 2.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.inc_beta(1.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.inc_beta(0.5, -1.0, 1.0)


def _segment_node_sets():
    """Every abscissa array the segment quadrature passes to its integrand, levels 0-12."""
    seen = []

    def record(t):
        seen.append(t.copy())
        return np.full_like(t, float(len(seen)))  # never converges: all levels run

    with pytest.raises(quad.QuadratureError):
        quad.integrate_finite(record, 0.0, 0.5 * math.pi, quad.QuadConfig(rel_tol=1e-300, abs_tol=1e-300))
    return seen


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _one_row(b, z, zc):
    """2**b B_z(p, p) for one parameter, from one-row kernel calls."""
    p = 0.5 * (b + 1.0)
    return 2.0**b * specfun._inc_beta_parts(z, zc, p, p)[0]


class TestIncBetaBlocks:
    # at 1.898, 3.062 and 9.088 numpy's 2.0 ** array has been seen to differ
    # by an ulp from 2.0 ** float (at 1.898 with numpy 2.4 on x86-64)
    BETAS = (-0.95, -0.3, 0.0, 1.0, 1.898, 3.062, 9.088, 40.0)

    def test_column_fraction_matches_one_row_calls(self, monkeypatch):
        x = np.concatenate([np.geomspace(1e-12, 0.5, 40), [0.0, 0.5]])
        ps = np.array([0.05, 0.5, 0.5 * (1.898 + 1.0), 3.0, 12.0, 60.0])[:, None]
        block = specfun._betacf(ps, ps, x)
        assert block.shape == (6, x.size)
        for p, row in zip(ps[:, 0].tolist(), block):
            assert _bits(row) == _bits(specfun._betacf(p, p, x))
        # capped at 12 iterations, the small-p fractions have already
        # stopped and the largest has not: the rows stop at different
        # iterations, and a capped block still matches row by row
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", 12)
        capped = [specfun._betacf(p, p, x) for p in ps[:, 0].tolist()]
        final = [_bits(c) == _bits(r) for c, r in zip(capped, block)]
        assert final[0] and not final[-1]
        for want, row in zip(capped, specfun._betacf(ps, ps, x)):
            assert _bits(row) == _bits(want)

    def test_block_rows_match_one_row_calls_on_quadrature_nodes(self):
        sets = _segment_node_sets()
        assert len(sets) == 14  # levels 0-12 and the level-0 centre
        # just past pi/2, sin^2(t/2) rounds to 1/2 or above
        sets.append(0.5 * math.pi + np.arange(1, 6) * 2.0**-52)
        col = np.array(self.BETAS)[:, None]
        underflow = beyond_half = 0
        for t in sets:
            z, zc = np.sin(0.5 * t) ** 2, np.cos(0.5 * t) ** 2
            underflow += int((z == 0.0).sum())
            beyond_half += int((z >= 0.5).sum())
            lows, highs = specfun._f_real_from_z(col, z, zc)
            for b, low, high in zip(self.BETAS, lows, highs):
                assert _bits(low) == _bits(_one_row(b, z, zc))
                assert _bits(high) == _bits(_one_row(b, zc, z))
        assert underflow > 0 and beyond_half > 0

    def test_block_rows_where_both_halves_take_the_same_branch(self):
        # z = zc = 1/2: both halves below the swap point, so they share no fraction
        z = np.array([0.0, 1e-300, 0.25, 0.5, 0.5, 0.5 + 2.0**-53, 1.0])
        zc = np.array([1.0, 1.0, 0.75, 0.5, 0.5 - 2.0**-54, 0.5 + 2.0**-53, 0.0])
        lows, highs = specfun._f_real_from_z(np.array(self.BETAS)[:, None], z, zc)
        for b, low, high in zip(self.BETAS, lows, highs):
            assert _bits(low) == _bits(_one_row(b, z, zc))
            assert _bits(high) == _bits(_one_row(b, zc, z))
            p = 0.5 * (b + 1.0)
            want = 2.0**b * specfun.inc_beta(0.5, p, p)
            assert low[3] == pytest.approx(want, rel=1e-14) and high[3] == pytest.approx(want, rel=1e-14)

    def test_one_row_halves_against_inc_beta(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(0.0, 1.0, 50)
        for b in self.BETAS:
            p = 0.5 * (b + 1.0)
            low, high = specfun._f_real_from_z(b, z, 1.0 - z)
            assert np.allclose(low, 2.0**b * specfun.inc_beta(z, p, p), rtol=1e-13, atol=0.0)
            assert np.allclose(high, 2.0**b * specfun.inc_beta(1.0 - z, p, p), rtol=1e-13, atol=0.0)


class TestFReal:
    def test_endpoint_identity(self):
        for beta in (-0.9, -0.5, 0.0, 1.0, 2.7, 10.0):
            want = 1.0 / specfun.c_one_dim(0.5 * (beta - 1.0))
            assert specfun.f_real(beta, math.pi / 2) == pytest.approx(want, rel=1e-13)
            assert specfun.f_real(beta, 0.0) == pytest.approx(0.5 * want, rel=1e-13)
            assert specfun.f_real(beta, -math.pi / 2) == 0.0

    def test_linear_parameter(self):
        for x in np.linspace(-math.pi / 2, math.pi / 2, 31):
            assert specfun.f_real(1.0, float(x)) == pytest.approx(1.0 + math.sin(x), abs=1e-14)

    def test_against_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            beta = float(rng.uniform(-0.95, 8.0))
            x = float(rng.uniform(-math.pi / 2, math.pi / 2))
            assert specfun.f_real(beta, x) == pytest.approx(_quad_f_beta(beta, x), abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.f_real(-1.0, 0.0)
        with pytest.raises(ValueError):
            specfun.f_real(0.0, 2.0)


class TestFImag:
    def test_at_zero(self):
        for beta in (0.0, 1.0, 3.5):
            got = specfun.f_imag(beta, 0.0)
            assert got.imag == 0.0
            assert got.real == pytest.approx(0.5 / specfun.c_one_dim(0.5 * (beta - 1.0)), rel=1e-13)

    def test_linear_parameter(self):
        for x in (-2.0, -0.3, 0.0, 1.0, 3.0):
            got = specfun.f_imag(1.0, x)
            assert got == pytest.approx(complex(1.0, math.sinh(x)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.f_imag(-0.5, 1.0)


class TestPmPoly:
    def test_small_cases(self):
        assert specfun.p_m_poly(1, 5.0) == 1
        assert specfun.p_m_poly(2, 2.0) == pytest.approx(3.0 + 2.0)

    @given(st.integers(1, 12))
    def test_row_sum(self, m):
        assert specfun.p_m_poly(m, 1.0) == 2 ** (2 * m - 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.p_m_poly(0, 1.0)


class TestHarmonic:
    def test_values(self):
        assert specfun.harmonic(1) == 1
        assert specfun.harmonic(3) == Fraction(11, 6)
        assert specfun.harmonic(5) == Fraction(137, 60)

    @settings(max_examples=40)
    @given(st.integers(2, 1000))
    def test_difference(self, n):
        assert specfun.harmonic(n) - specfun.harmonic(n - 1) == Fraction(1, n)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.harmonic(0)


class TestLobachevsky:
    def test_zeros(self):
        assert specfun.lobachevsky(0.0) == 0.0
        assert abs(specfun.lobachevsky(math.pi)) <= 1e-12
        assert abs(specfun.lobachevsky(math.pi / 2)) <= 1e-12

    def test_frozen_value(self):
        assert specfun.lobachevsky(math.pi / 3) == pytest.approx(LOBACHEVSKY_PI_3, abs=1e-13)

    def test_against_defining_integral(self):
        for theta in (0.2, 0.7, math.pi / 3, 1.4):
            ref = quad.integrate_finite(lambda t: -np.log(2.0 * np.sin(t)), 0.0, theta, CFG)
            assert specfun.lobachevsky(theta) == pytest.approx(ref.value, abs=1e-12)

    def test_series_against_mpmath(self):
        # L(t) = Cl_2(2t)/2; the Horner evaluation of the series keeps to a few ulps
        mp.mp.dps = 30
        ts = np.linspace(-3.0, 3.0, 241)
        want = np.array([float(mp.clsin(2, 2 * mp.mpf(float(t))) / 2) for t in ts])
        assert np.abs(specfun.lobachevsky(ts) - want).max() <= 1e-15

    def test_symmetries(self):
        ts = np.linspace(-3.0, 3.0, 61)
        lob = specfun.lobachevsky
        assert np.abs(lob(ts) + lob(-ts)).max() <= 1e-12
        assert np.abs(lob(ts + math.pi) - lob(ts)).max() <= 1e-12
        assert np.abs(0.5 * lob(2 * ts) - lob(ts) - lob(ts + math.pi / 2)).max() <= 1e-10

    def test_maximum_location(self):
        # the maximum sits at pi/6
        ts = np.linspace(0.0, math.pi, 10001)
        vals = specfun.lobachevsky(ts)
        assert abs(ts[np.argmax(vals)] - math.pi / 6) < 1e-3


def _tail_by_term(beta, x):
    """The x > 1 series of the scaled cosh-power primitive, one term at a time.

    Reference for the kernel, which sums the same terms in the same order.
    """
    L = specfun._log_cosh(x)
    acc = specfun._g_at_one(beta) * np.exp(-beta * L)
    scale = 2.0**-beta
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        for k, ck in enumerate(specfun._binom_series_coeffs(beta)):
            if ck == 0.0:
                continue
            ex = beta - 2.0 * k
            if abs(ex) < 1e-12:
                acc += scale * ck * (x - 1.0) * np.exp(-beta * L)
                continue
            arg = ex * (x - 1.0)
            via_expm1 = np.exp(ex - beta * L) * np.expm1(np.clip(arg, -1.0, 1.0)) / ex
            lead = beta * (math.log(2.0) - np.log1p(np.exp(-2.0 * x)))  # ex*x - beta*L = -2k*x + lead
            plain = (np.exp(-2.0 * k * x + lead) - np.exp(ex - beta * L)) / ex
            acc += scale * ck * np.where(np.abs(arg) < 1.0, via_expm1, plain)
    return acc


def _small_by_row(beta, x):
    """The |x| <= 1 Gauss-Legendre value of the scaled cosh-power primitive for one beta.

    Reference for the kernel, which raises to the power of beta as a Python float.
    """
    half = 0.5 * x
    vals = np.cosh(half[:, None] * (specfun._GL_NODES + 1.0)) ** beta
    return half * (vals * specfun._GL_WEIGHTS).sum(axis=-1) * np.exp(-beta * specfun._log_cosh(x))


# one array mixing small, tail and negative abscissae; 1 + tiny takes the
# expm1 rows of the tail series
_BRANCH_X = np.array(
    [-30.0, -2.5, -1.0 - 1e-9, -0.4, 0.0, 0.25, 0.7, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.0 + 1e-3, 1.3, 2.0, 2.5,
     7.5, 10.0, 30.0]
)
# integers truncate the series and reach the exponent-0 row; 2 + 1e-13
# reaches that row without truncation
_BRANCH_BETAS = (0.0, 1.0, 2.0, 4.0, 12.0, 0.5, 3.7, 2.0 + 1e-13)


def _mp_scaled(beta, x):
    """g(beta, x) cosh(x)**-beta to 40 digits, as the integral over u of (cosh(x - u)/cosh x)**beta.

    The integrand is written ((e**-u + e**(u - 2x))/(1 + e**-2x))**beta so
    that x - u is never formed; past u = 100/beta it is below e**-100.
    """
    with mp.workdps(40):
        x, b = mp.mpf(x), mp.mpf(beta)
        scale = 1 + mp.exp(-2 * x)
        top = min(x, 100 / b)
        cuts = [mp.mpf(0)] + [mp.mpf(c) for c in (1, 4, 16, 64) if c < top] + [top]
        return mp.quad(lambda u: ((mp.exp(-u) + mp.exp(u - 2 * x)) / scale) ** b, cuts, method="gauss-legendre")


def _mp_scaled_integer(n, x):
    """The scaled primitive for integer beta = n to 40 digits, from S_0 = x, S_1 = tanh x
    and S_{m+2} = tanh x/(m+2) + (m+1)/(m+2) sech(x)**2 S_m."""
    with mp.workdps(40):
        x = mp.mpf(x)
        t, sech2 = mp.tanh(x), mp.sech(x) ** 2
        s = [x, t]
        for m in range(2, n + 1):
            s.append(t / m + mp.mpf(m - 1) / m * sech2 * s[m - 2])
        return s[n]


def _max_rel_error(got, refs):
    with mp.workdps(40):
        return max(float(abs(mp.mpf(float(g)) - r) / r) for g, r in zip(got, refs))


# far beyond the real-line nodes (which stop near 1.4e153), up to 1e300
_HUGE_X = (1e5, 1e10, 1e40, 1e100, 1e153, 1e300)


class TestCoshPowAccuracy:
    def test_against_closed_forms(self):
        # integer beta: every real-line node of levels 0-7 and far beyond
        x = np.concatenate([quad._line_nodes(level)[0] for level in range(8)] + [_HUGE_X])
        for n in range(14):
            got = specfun.cosh_pow_integral_scaled(float(n), x)
            assert _max_rel_error(got, [_mp_scaled_integer(n, v) for v in x]) <= 5e-15, n

    def test_against_mpmath(self):
        # both sides of the switch to the tail series at 1, and a level-3 node just past it
        x = np.concatenate([[0.25, 0.7, 1.0, 1.1613710483034563], quad._line_nodes(1)[0], _HUGE_X])
        for beta in (0.3, 2.5, 3.3, 7.9, 12.6):
            got = specfun.cosh_pow_integral_scaled(beta, x)
            assert _max_rel_error(got, [_mp_scaled(beta, v) for v in x]) <= 5e-15, beta

    def test_huge_argument(self):
        # the plain exponent ex*x - beta*L lost beta*log 2 here: beta = 1 gave 0.5
        for beta in (0.3, 1.0, 2.0, 12.6):
            got = specfun.cosh_pow_integral_scaled(beta, np.array([1e40, 1e300]))
            assert np.allclose(got, 1.0 / beta, rtol=5e-15, atol=0.0)


class TestCoshPowIntegral:
    def test_scaled_against_quadrature(self):
        for beta in _BRANCH_BETAS:
            got = specfun.cosh_pow_integral_scaled(beta, _BRANCH_X)
            for x, g in zip(_BRANCH_X, got):
                if x == 0.0:
                    assert g == 0.0
                    continue
                direct = quad.integrate_finite(lambda y: np.cosh(y) ** beta, 0.0, abs(x), CFG).value
                assert g * math.cosh(x) ** beta == pytest.approx(math.copysign(direct, x), rel=1e-12)

    def test_odd_in_x(self):
        for beta in _BRANCH_BETAS:
            got = specfun.cosh_pow_integral_scaled(beta, _BRANCH_X)
            assert np.array_equal(got, -specfun.cosh_pow_integral_scaled(beta, -_BRANCH_X))

    def test_tail_sums_terms_in_order(self):
        tail = np.abs(_BRANCH_X) > 1.0
        for beta in _BRANCH_BETAS:
            got = specfun.cosh_pow_integral_scaled(beta, _BRANCH_X)
            ref = np.sign(_BRANCH_X[tail]) * _tail_by_term(beta, np.abs(_BRANCH_X[tail]))
            assert got[tail].tobytes() == ref.tobytes()

    def test_sizes_one_and_beyond_a_block(self):
        rng = np.random.default_rng(5)
        x = np.sinh(np.sinh(rng.uniform(-6.5, 6.5, 2 * specfun._ROW_BLOCK)))
        tail = np.abs(x) > 1.0
        assert tail.sum() > specfun._ROW_BLOCK
        for beta in (0.0, 3.0, 2.7):
            got = specfun.cosh_pow_integral_scaled(beta, x)
            ref = np.sign(x[tail]) * _tail_by_term(beta, np.abs(x[tail]))
            assert got[tail].tobytes() == ref.tobytes()
            one = np.array([specfun.cosh_pow_integral_scaled(beta, v)[0] for v in x])
            assert got.tobytes() == one.tobytes()
            assert specfun.cosh_pow_integral_scaled(beta, 2.5).shape == (1,)

    def test_huge_argument_finite(self):
        out = specfun.cosh_pow_integral_scaled(4.0, np.array([1e3, 1e150]))
        assert np.isfinite(out).all()


def _line_node_sets():
    """The real-line nodes of levels 0-12, each with 0 and a few negative abscissae."""
    return [np.concatenate([[0.0], quad._line_nodes(level)[0], -quad._line_nodes(level)[0][:7]]) for level in range(13)]


class TestCoshPowBlocks:
    # integers truncate the series, even ones and 2 + 1e-13 reach the
    # exponent-0 row, and 60.5 keeps the most terms
    BETAS = (0.0, 1.0, 2.0, 4.0, 12.0, 2.0 + 1e-13, 1e-13, 0.3, 2.5, 7.9, 12.9, 60.5)

    def test_column_matches_scalar_calls(self):
        col = np.array(self.BETAS)[:, None]
        steps = set()
        for x in _line_node_sets():
            tail = np.abs(x) > 1.0
            steps.add(max(1, specfun._ROW_BLOCK // int(tail.sum())))
            block = specfun.cosh_pow_integral_scaled(col, x)
            assert block.shape == (len(self.BETAS), x.size)
            for beta, row in zip(self.BETAS, block):
                assert row.tobytes() == specfun.cosh_pow_integral_scaled(beta, x).tobytes()
            assert (block[:, 0] == 0.0).all()
        # some levels split the rows into blocks, and level 12 splits the abscissae too
        assert any(1 < step < len(self.BETAS) for step in steps)
        assert int((np.abs(x) > 1.0).sum()) > specfun._ROW_BLOCK

    def test_rows_match_references(self):
        # the cut series against every term, and the Gauss-Legendre branch
        counts = [specfun._tail_terms(beta) for beta in self.BETAS]
        assert counts[:5] == [1, 2, 3, 5, 13]  # at most the terms of the truncated series
        assert max(counts) < 41 and counts[-1] > 30
        for x in _line_node_sets():
            tail = np.abs(x) > 1.0
            block = specfun.cosh_pow_integral_scaled(np.array(self.BETAS)[:, None], x)
            for beta, row in zip(self.BETAS, block):
                ref = np.sign(x[tail]) * _tail_by_term(beta, np.abs(x[tail]))
                assert row[tail].tobytes() == ref.tobytes()
                ref = np.sign(x[~tail]) * _small_by_row(beta, np.abs(x[~tail]))
                assert row[~tail].tobytes() == ref.tobytes()
