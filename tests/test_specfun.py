"""Scalar special functions against independent oracles.

The gamma routines are checked against the C library's lgamma, the
incomplete beta against mpmath, the segment primitives against direct
substituted quadrature, and the log-sine integral against both its
defining integral and frozen high-precision digits.
"""

import importlib.util
import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypvol import abcore, quad, specfun
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



class TestGammaRatioHalf:
    def test_against_golden_rows(self):
        # 45-digit references on [1e-8, 1e8] (tests/golden/make_gamma_ratio_half.py)
        rows = json.loads((GOLDEN / "gamma_ratio_half.json").read_text())
        assert len(rows) >= 400 and rows[0]["x"] == 1e-8 and rows[-1]["x"] == 1e8
        with mp.workdps(40):
            errors = [abs(mp.mpf(specfun.gamma_ratio_half(r["x"])) / mp.mpf(r["value"]) - 1) for r in rows]
        assert max(errors) <= specfun.GAMMA_RATIO_ERR

    def test_the_log_gamma_difference_misses_the_bound(self):
        # the form every quotient took before: exp(lgamma(x + 1/2) - lgamma(x)) errs by about 1e-7 at 1e8
        row = json.loads((GOLDEN / "gamma_ratio_half.json").read_text())[-1]
        with mp.workdps(40):
            old = mp.mpf(math.exp(math.lgamma(row["x"] + 0.5) - math.lgamma(row["x"])))
            assert abs(old / mp.mpf(row["value"]) - 1) > 1e-9

    def test_golden_rows_recomputed(self):
        rows = json.loads((GOLDEN / "gamma_ratio_half.json").read_text())
        script = _load_golden_script("make_gamma_ratio_half")
        for row in (rows[0], rows[len(rows) // 2], rows[-1]):
            with mp.workdps(25):
                value = script.ratio(row["x"])
                assert abs(value - mp.mpf(row["value"])) <= mp.mpf("1e-22") * value, row

    def test_domain(self):
        for bad in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                specfun.gamma_ratio_half(bad)

    def test_quotient_with_a_zero_factor_is_zero(self):
        # a factor alpha - j next to a pole is exact: at the pole it is 0, and so is the quotient
        assert specfun.gamma_quotient(1.0, num=[0.5 * (3.0 - 3.0)], up=2.0)[0] == 0.0

    def test_constants_within_their_bounds(self):
        # c_one_dim(600) erred by 3.6e-13 and f_real_total(1020) by 2.5e-13 as exp(lgamma - lgamma)
        with mp.workdps(40):
            for beta in (-0.999, -0.5, 0.0, 0.3, 1.0, 13.3, 200.0, 600.0, 1020.0, 1e5):
                b = mp.mpf(beta)
                total = mp.sqrt(mp.pi) * mp.exp(mp.loggamma((b + 1) / 2) - mp.loggamma(b / 2 + 1))
                assert abs(specfun.f_real_total(beta) / total - 1) <= specfun.quotient_err(0), beta
                c = mp.exp(mp.loggamma(b + 1.5) - mp.loggamma(b + 1)) / mp.sqrt(mp.pi)
                assert abs(specfun.c_one_dim(beta) / c - 1) <= specfun.quotient_err(0), beta


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
    """Every abscissa array the segment quadrature passes to its integrand, one per step of levels 0-12."""
    seen = []

    def record(t):
        seen.append(t.copy())
        return np.cos(1e3 * t) + float(len(seen))  # never converges: all levels run

    with pytest.raises(quad.QuadratureError):
        quad.integrate_finite(record, 0.0, 0.5 * math.pi, quad.QuadConfig(rel_tol=1e-300, abs_tol=1e-300))
    return seen


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _halves(t):
    """z = sin(t/2)**2 and sin t at nodes t, as abcore forms them."""
    return np.sin(0.5 * t) ** 2, np.sin(t)


def _uppers(lows, betas):
    """The upper halves F(pi/2 - t) = F(pi/2) less the rows, as f_real forms F(|x|)."""
    return np.array([[specfun.f_real_total(b)] for b in betas]) - lows


class TestIncBetaBlocks:
    # at 1.898, 3.062 and 9.088 numpy's 2.0 ** array has been seen to differ
    # by an ulp from 2.0 ** float (at 1.898 with numpy 2.4 on x86-64)
    BETAS = (-0.95, -0.3, 0.0, 1.0, 1.898, 3.062, 9.088, 40.0)
    # term counts from 34 to 312: a block pads its rows to its largest count
    WIDE = BETAS + (200.0, 600.0, 1022.0)

    def test_block_rows_match_one_row_calls_on_quadrature_nodes(self):
        sets = _segment_node_sets()
        assert len(sets) == 8  # the steps of levels 0-5, 6, ..., 12; level 0 holding the centre pi/4
        assert 0.25 * math.pi in sets[0].tolist()
        # just below pi/2, sin^2(t/2) rounds to just below 1/2; few nodes put several rows in a block
        sets += [0.5 * math.pi - np.arange(0, 5) * 2.0**-52, sets[0][::8]]
        col = np.array(self.WIDE)[:, None]
        underflow = 0
        for t in sets:
            z, sin_t = _halves(t)
            underflow += int((z == 0.0).sum())
            assert z.max() <= 0.5
            # the row at t and the upper half, F(pi/2) less it
            lows = specfun._f_real_from_z(col, z, sin_t)
            highs = _uppers(lows, self.WIDE)
            for b, low, high in zip(self.WIDE, lows, highs):
                assert _bits(low) == _bits(specfun._f_real_from_z(b, z, sin_t))
                assert _bits(high) == _bits(specfun.f_real_total(b) - specfun._f_real_from_z(b, z, sin_t))
        assert underflow > 0

    def test_block_rows_where_both_halves_take_the_same_branch(self):
        # t = 0, tiny, pi/3 and where the two halves meet, z = 1/2 and an ulp
        # below: every row by the one series, the upper half the total less it
        z = np.array([0.0, 1e-300, 0.25, 0.5 - 2.0**-54, 0.5])
        sin_t = np.array([0.0, 2e-150, 0.75**0.5, 1.0, 1.0])
        col = np.array(self.WIDE)[:, None]
        lows = specfun._f_real_from_z(col, z, sin_t)
        highs = _uppers(lows, self.WIDE)
        for b, low, high in zip(self.WIDE, lows, highs):
            assert _bits(low) == _bits(specfun._f_real_from_z(b, z, sin_t))
            total = specfun.f_real_total(b)
            assert _bits(high) == _bits(total - specfun._f_real_from_z(b, z, sin_t))
            assert low[0] == 0.0 and high[0] == total
            for row in (low, high):
                for i in (3, 4):
                    assert row[i] == pytest.approx(0.5 * total, rel=1e-14)

    def test_row_bits_do_not_depend_on_the_other_nodes(self):
        # one node at a time, and the nodes in reverse, against the whole set:
        # the level 0-5 step and a slice of level 12 across a block boundary
        sets = _segment_node_sets()
        col = np.array(self.WIDE)[:, None]
        for t in (sets[0], sets[-1][1000:1900]):
            z, sin_t = _halves(t)
            rows = specfun._f_real_from_z(col, z, sin_t)
            backwards = specfun._f_real_from_z(col, z[::-1], sin_t[::-1])
            assert _bits(backwards[:, ::-1]) == _bits(rows)
            for i in range(0, t.size, 7):
                one = specfun._f_real_from_z(col, z[i : i + 1], sin_t[i : i + 1])
                assert _bits(one[:, 0]) == _bits(rows[:, i]), i

    def test_one_row_halves_against_inc_beta(self):
        # sin t is 2 sqrt(z zc) here, zc = 1 - z; the upper half is the
        # incomplete beta at zc
        z = np.random.default_rng(5).uniform(0.0, 0.5, 50)
        zc = 1.0 - z
        sin_t = 2.0 * np.sqrt(z * zc)
        for b in self.BETAS:
            p = 0.5 * (b + 1.0)
            low = specfun._f_real_from_z(b, z, sin_t)
            high = specfun.f_real_total(b) - low
            assert np.allclose(low, 2.0**b * specfun.inc_beta(z, p, p), rtol=1e-13, atol=0.0)
            assert np.allclose(high, 2.0**b * specfun.inc_beta(zc, p, p), rtol=1e-13, atol=0.0)

    def test_callers_stay_in_the_series_domain(self, monkeypatch):
        # the kernel sums its series at z <= 1/2 only: every z that the b rows
        # (tanh-sinh nodes of levels 0-16) and f_real hand it is there
        seen = []

        def recorded(beta, z, sin_t):
            seen.append(np.asarray(z))
            return kernel(beta, z, sin_t)

        kernel = specfun._f_real_from_z
        monkeypatch.setattr(abcore, "_f_real_from_z", recorded)
        monkeypatch.setattr(specfun, "_f_real_from_z", recorded)
        for level in range(17):
            t, _ = quad._finite_abscissae(0.0, 0.5 * math.pi, level)
            abcore._b_factors((0.5, 3.0), t, np.sin(t))
        for x in (0.0, 0.25 * math.pi, -0.25 * math.pi, 0.5 * math.pi, -0.5 * math.pi):
            specfun.f_real(2.0, x)
        specfun.f_real(2.0, np.array([0.0, 0.25 * math.pi, -0.5 * math.pi]))
        assert len(seen) == 17 + 6
        assert max(float(z.max()) for z in seen) <= 0.5


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

    @pytest.mark.parametrize("beta", [-0.9, -0.5, 0.0, 0.5, 1.7, 5.0, 13.3, 40.0])
    def test_near_both_ends_against_mpmath(self, beta):
        # 2**beta B_z(p, p) at z = (1 + sin x)/2, p = (beta + 1)/2, to 40 digits
        with mp.workdps(40):
            p = mp.mpf(beta + 1.0) / 2
            for gap in (1e-6, 1e-3, 0.1):
                for x in (gap - 0.5 * math.pi, 0.5 * math.pi - gap):
                    want = mp.mpf(2) ** beta * mp.betainc(p, p, 0, (1 + mp.sin(mp.mpf(x))) / 2)
                    assert abs(specfun.f_real(beta, x) - want) <= 5e-14 * abs(want), (beta, x)

    @pytest.mark.parametrize("beta,x", [(600.0, 0.5 - 0.5 * math.pi), (300.0, 0.1 - 0.5 * math.pi), (1020.0, -0.25 * math.pi)])
    def test_large_beta_rows_do_not_underflow(self, beta, x):
        # representable rows that a prefactor (z zc)**p scaled by 2**beta took to 0
        with mp.workdps(40):
            p = mp.mpf(beta + 1.0) / 2
            want = mp.mpf(2) ** beta * mp.betainc(p, p, 0, (1 + mp.sin(mp.mpf(x))) / 2)
        got = specfun.f_real(beta, x)
        assert got > 0.0 and abs(got - want) <= 1.5e-16 * beta * want, (got, want)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.f_real(-1.0, 0.0)
        with pytest.raises(ValueError):
            specfun.f_real(0.0, 2.0)
        with pytest.raises(ValueError):
            specfun.f_real(1024.0, 0.0)


class TestBRowsAccuracy:
    def test_against_golden_rows(self):
        # nodes of the level 0-12 sets, from where sin(t/2)**2 underflows to within 1e-15 of pi/2
        rows = json.loads((GOLDEN / "b_rows.json").read_text())
        t_all = np.array([r["t"] for r in rows])
        assert len(rows) == 396 and min(r["beta"] for r in rows) < -0.99 and max(r["beta"] for r in rows) == 1022.0
        assert (np.sin(0.5 * t_all) ** 2 == 0.0).any() and (0.5 * math.pi - t_all).min() < 1e-15
        nodes = set(np.concatenate(_segment_node_sets()).tolist())
        assert set(t_all.tolist()) <= nodes
        for beta in sorted({r["beta"] for r in rows}):
            mine = [r for r in rows if r["beta"] == beta]
            t = np.array([r["t"] for r in mine])
            got = specfun._f_real_from_z(beta, *_halves(t))
            with mp.workdps(40):
                refs = [mp.mpf(r["value"]) for r in mine]
            assert _max_rel_error(got, refs) <= max(5e-15, 1.5e-16 * beta), beta

    def test_golden_rows_recomputed(self):
        rows = json.loads((GOLDEN / "b_rows.json").read_text())
        script = _load_golden_script("make_b_rows")
        for beta, index in ((1022.0, -1), (-1.0 + 1e-6, 0), (13.3, 5)):
            row = [r for r in rows if r["beta"] == beta][index]
            with mp.workdps(20):
                value = script.row(beta, row["t"])
                assert abs(value - mp.mpf(row["value"])) <= mp.mpf("1e-18") * value, row


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

    @pytest.mark.parametrize("beta", [0.5, 3.0, 7.0, 60.5])
    def test_against_mpmath(self, beta):
        # real part sqrt(pi) Gamma((beta + 1)/2) / (2 Gamma(beta/2 + 1)), imaginary part
        # the integral of cosh**beta from 0 to x, both to 40 digits
        with mp.workdps(40):
            re = mp.sqrt(mp.pi) * mp.gamma(mp.mpf(beta + 1.0) / 2) / (2 * mp.gamma(mp.mpf(beta) / 2 + 1))
            for x in (0.05, 0.3, 1.0, 2.0, 5.0, -0.05, -0.3, -1.0, -2.0, -5.0):
                im = mp.quad(lambda y: mp.cosh(y) ** beta, [0, x])
                got = specfun.f_imag(beta, x)
                assert abs(got.real - re) <= 1e-13 * abs(re), (beta, x)
                assert abs(got.imag - im) <= 1e-13 * abs(im), (beta, x)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            specfun.f_imag(3.0, 800.0)

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

    def test_matches_masked_reference(self):
        # the series on every entry, zeros set after, against the series on the nonzero entries only
        ts = np.random.default_rng(34).uniform(-3.2, 3.2, 30000)
        ts[:8] = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, math.pi / 2, 1e-300, -5e-324]
        got = specfun.lobachevsky(ts)
        assert got.tobytes() == _ref_lobachevsky(ts).tobytes()
        assert got[0] == 0.0 and got[1] == 0.0
        for t in ts[:20]:
            value = specfun.lobachevsky(float(t))
            assert type(value) is float and np.float64(value).tobytes() == _ref_lobachevsky(np.array([t])).tobytes()


def _ref_lobachevsky(ts):
    """The series evaluated on the entries with a nonzero reduced angle only, the others left 0."""
    r = ts - math.pi * np.round(ts / math.pi)
    s = np.sign(r)
    r = np.abs(r)
    out = np.zeros_like(r)
    nz = r > 0.0
    rr = r[nz]
    r2 = rr * rr
    poly = np.zeros_like(rr)
    for coeff in reversed(specfun._LOB_COEFFS):
        poly *= r2
        poly += coeff
    out[nz] = rr - rr * np.log(2.0 * rr) + rr * r2 * poly
    return out * s


def _series_terms(beta):
    """C(beta, k) for k = 0..40, the series' term count and g(beta, 1), for one beta.

    The count is one past the last nonzero term k that is not past beta/2
    or whose bound 2**-beta |C(beta, k)| e**(beta - 2k)/(2k - beta) is not
    below 2**-55 g(beta, 1), which the kernel's scan up from beta/2 must
    match.
    """
    coeffs = np.ones(41)
    for k in range(1, 41):
        coeffs[k] = coeffs[k - 1] * (beta - (k - 1)) / k
    g_at_one = float(_small_unscaled(beta, np.array([1.0]))[0])
    k = np.arange(41)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = 2.0**-beta * np.abs(coeffs) * np.exp(beta - 2.0 * k) / (2.0 * k - beta)
    negligible = (2.0 * k > beta) & (bound < 2.0**-55 * g_at_one)
    return coeffs, int(np.flatnonzero((coeffs != 0.0) & ~negligible)[-1]) + 1, g_at_one


def _tail_by_row(beta, x):
    """The x > 1 value of the scaled cosh-power primitive for one beta, one series term at a time.

    Reference for the kernel, which forms the same sum in the same order:
    with q = exp(-2x), the terms c_k/(beta - 2k) with |beta - 2k| >= 1 by
    Horner's rule in q, times (2/(1 + q))**beta; plus A cosh(x)**-beta,
    A the exact sum of g(beta, 1) and each such term's -exp(beta - 2k)
    c_k/(beta - 2k); plus the one term with |beta - 2k| < 1 in its
    exponential form, linear in x where beta - 2k is 0.  A beta above 13
    starts from beta - 2j in (11, 13] and recurs upward (_recur_up).
    """
    start = _start(beta)
    L = specfun._log_cosh(x)
    q = np.exp(-2.0 * x)
    lead = start * (math.log(2.0) - np.log1p(q))
    e_beta = np.exp(-start * L)
    coeffs, count, g_at_one = _series_terms(start)
    coeffs = (2.0**-start * coeffs[:count]).tolist()
    held, poly, near = [g_at_one], np.zeros_like(x), None
    for k in range(len(coeffs) - 1, -1, -1):
        ck, ex = coeffs[k], start - 2.0 * k
        poly = poly * q
        if ck != 0.0 and abs(ex) < 1.0:
            near = (k, ck, ex)
        elif ck != 0.0:
            poly = poly + ck / ex
            held.append(-(ck / ex) * math.exp(ex))
    acc = poly * np.exp(lead) + math.fsum(held) * e_beta
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        if near is not None and near[2] == 0.0:
            acc += near[1] * (x - 1.0) * e_beta
        elif near is not None:
            k, ck, ex = near
            arg = ex * (x - 1.0)
            via_expm1 = np.exp(ex - start * L) * np.expm1(np.clip(arg, -1.0, 1.0)) / ex
            plain = (np.exp(-2.0 * k * x + lead) - np.exp(ex - start * L)) / ex
            acc += ck * np.where(np.abs(arg) < 1.0, via_expm1, plain)
    return _recur_up(beta, x, acc)


def _small_by_row(beta, x):
    """The |x| <= 1 value of the scaled cosh-power primitive for one beta.

    Reference for the kernel: Gauss-Legendre at the start parameter, raised
    to that power as a Python float, then the upward recurrence (_recur_up).
    """
    start = _start(beta)
    return _recur_up(beta, x, _small_unscaled(start, x) * np.exp(-start * specfun._log_cosh(x)))


def _start(beta):
    """The parameter the kernel starts from: beta itself up to 13, beyond it beta - 2j in (11, 13]."""
    return beta - 2.0 * _ups(beta)


def _ups(beta):
    return max(0, math.ceil(0.5 * (beta - 13.0)))


def _recur_up(beta, x, acc):
    """acc, the scaled primitive at _start(beta), recurred up to beta.

    One step is s_b = tanh(x)/b + (b - 1)/b sech(x)**2 s_(b-2), with tanh
    formed from expm1 as the kernel forms it.
    """
    q = np.exp(-2.0 * x)
    tanh, sech2 = -np.expm1(-2.0 * x) / (1.0 + q), 4.0 * q / (1.0 + q) ** 2
    for b in (beta - 2.0 * i for i in range(_ups(beta) - 1, -1, -1)):
        acc = tanh / b + (b - 1.0) / b * sech2 * acc
    return acc


def _small_unscaled(beta, x):
    """g(beta, x) by 48-point Gauss-Legendre on (0, x), for 0 <= x <= 1."""
    half = 0.5 * x
    vals = np.cosh(half[:, None] * (specfun._GL_NODES + 1.0)) ** beta
    return half * (vals * specfun._GL_WEIGHTS).sum(axis=-1)


# one array mixing small, tail and negative abscissae; 1 + tiny takes the
# expm1 rows of the tail series
_BRANCH_X = np.array(
    [-30.0, -2.5, -1.0 - 1e-9, -0.4, 0.0, 0.25, 0.7, 1.0, 1.0 + 1e-12, 1.0 + 1e-6, 1.0 + 1e-3, 1.3, 2.0, 2.5,
     7.5, 10.0, 30.0]
)
# integers truncate the series and reach the exponent-0 row; 2 + 1e-13
# reaches that row without truncation
_BRANCH_BETAS = (0.0, 1.0, 2.0, 4.0, 12.0, 0.5, 3.7, 2.0 + 1e-13)


GOLDEN = Path(__file__).parent / "golden"


def _load_golden_script(name):
    spec = importlib.util.spec_from_file_location(name, GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_GOLDEN_SCRIPT = _load_golden_script("make_cosh_pow_large")


def _mp_scaled(beta, x):
    """g(beta, x) cosh(x)**-beta to 40 digits, as the integral over u of (cosh(x - u)/cosh x)**beta.

    The integrand is written ((e**-u + e**(u - 2x))/(1 + e**-2x))**beta so
    that x - u is never formed.  It falls at the rate beta tanh(x), so past
    u = 100/beta it is below e**(-100 tanh x): negligible for beta <= 13,
    where that cut lies beyond x or x > 7, but not for larger beta at small
    x, which the golden references cover (tests/golden/make_cosh_pow_large.py).
    The cuts also close in on u = x, where the e**(u - 2x) part turns on.
    """
    with mp.workdps(40):
        x, b = mp.mpf(x), mp.mpf(beta)
        scale = 1 + mp.exp(-2 * x)
        top = min(x, 100 / b)
        inner = {mp.mpf(c) for c in (1, 4, 16, 64) if c < top} | {x - c for c in (1, 4, 16, 64) if 0 < x - c < top}
        cuts = [mp.mpf(0)] + sorted(inner) + [top]
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


def _rel_bound(beta):
    """The kernel's stated relative error bound: 5e-15 up to beta = 50, 1e-16 * beta above."""
    return max(5e-15, 1e-16 * beta)


def _max_rel_error(got, refs):
    with mp.workdps(40):
        return max(float(abs(mp.mpf(float(g)) - r) / r) for g, r in zip(got, refs))


# far beyond the real-line nodes (which stop near 1.4e153), up to 1e300
_HUGE_X = (1e5, 1e10, 1e40, 1e100, 1e153, 1e300)


class TestCoshPowAccuracy:
    def test_against_closed_forms(self):
        # integer beta: every real-line node of levels 0-7 and far beyond; at
        # level 0's centre x = 0 the value is 0 and the relative error undefined
        x = np.concatenate([quad._line_nodes(level)[0] for level in range(8)] + [_HUGE_X])
        centre = x == 0.0
        assert centre.sum() == 1
        for n in range(14):
            got = specfun.cosh_pow_integral_scaled(float(n), x)
            assert got[centre].tobytes() == np.zeros(1).tobytes(), n
            assert _max_rel_error(got[~centre], [_mp_scaled_integer(n, v) for v in x[~centre]]) <= 5e-15, n

    def test_against_mpmath(self):
        # both sides of the switch to the tail series at 1, and two level-3 nodes past it
        x = np.concatenate([[0.25, 0.7, 1.0, 1.1613710483034563, 1.8569793484772097], quad._line_nodes(1)[0], _HUGE_X])
        # within 1e-12 of an even exponent 2k, the k-th series term is neither linear
        # in x nor split into a constant and a power of exp(-2x)
        for beta in (0.3, 2.5, 3.3, 7.9, 12.6, 1e-13, 2.0 - 1e-13, 2.0 + 1e-13, 4.0 - 1e-13):
            got = specfun.cosh_pow_integral_scaled(beta, x)
            assert _max_rel_error(got, [_mp_scaled(beta, v) for v in x]) <= 5e-15, beta

    def test_above_the_series(self):
        # beta > 13 starts in (11, 13] and recurs up on both sides of |x| = 1,
        # from the smallest real-line node to 1e300; each step adds its rounding
        rows = json.loads((GOLDEN / "cosh_pow_large.json").read_text())
        assert len(rows) == 247 and min(r["x"] for r in rows) < 2.5e-4 and max(r["beta"] for r in rows) == 1022.0
        for beta in sorted({r["beta"] for r in rows}):
            mine = [r for r in rows if r["beta"] == beta]
            got = specfun.cosh_pow_integral_scaled(beta, np.array([r["x"] for r in mine]))
            with mp.workdps(40):
                refs = [mp.mpf(r["value"]) for r in mine]
            assert _max_rel_error(got, refs) <= _rel_bound(beta), beta

    def test_golden_rows_recomputed(self):
        rows = json.loads((GOLDEN / "cosh_pow_large.json").read_text())
        for beta, x in ((1022.0, 0.03), (60.5, 1e300), (200.0, 0.0002441406298506385)):
            row = next(r for r in rows if r["beta"] == beta and r["x"] == x)
            with mp.workdps(20):
                value = _GOLDEN_SCRIPT.scaled(beta, x)
                assert abs(value - mp.mpf(row["value"])) <= mp.mpf("1e-18") * value, row

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
            ref = np.sign(_BRANCH_X[tail]) * _tail_by_row(beta, np.abs(_BRANCH_X[tail]))
            assert got[tail].tobytes() == ref.tobytes()

    def test_sizes_one_and_beyond_a_block(self):
        rng = np.random.default_rng(5)
        x = np.sinh(np.sinh(rng.uniform(-6.5, 6.5, 2 * specfun._ROW_BLOCK)))
        tail = np.abs(x) > 1.0
        assert tail.sum() > specfun._ROW_BLOCK
        for beta in (0.0, 3.0, 2.7):
            got = specfun.cosh_pow_integral_scaled(beta, x)
            ref = np.sign(x[tail]) * _tail_by_row(beta, np.abs(x[tail]))
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
    # integers truncate the series, even ones reach the exponent-0 row,
    # 2 + 1e-13 and 1e-13 the term next to it, and 60.5 recurs up from 12.5
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
        series = [beta for beta in self.BETAS if beta <= 13.0]
        counts = [_series_terms(beta)[1] for beta in series]
        assert counts[:5] == [1, 2, 3, 5, 13]  # at most the terms of the truncated series
        assert max(counts) < 41
        assert [specfun._tail_rows([beta], [_series_terms(beta)[2]]).horner.shape[0] for beta in series] == counts
        for x in _line_node_sets():
            tail = np.abs(x) > 1.0
            block = specfun.cosh_pow_integral_scaled(np.array(self.BETAS)[:, None], x)
            for beta, row in zip(self.BETAS, block):
                ref = np.sign(x[tail]) * _tail_by_row(beta, np.abs(x[tail]))
                assert row[tail].tobytes() == ref.tobytes()
                ref = np.sign(x[~tail]) * _small_by_row(beta, np.abs(x[~tail]))
                assert row[~tail].tobytes() == ref.tobytes()

    def test_new_parameters_match_one_row_and_repeat_calls(self):
        # constants built in one pass per block of two rows, against one-row
        # calls, each built alone, and a repeat of the block call
        betas = (0.0, 1.0, 2.0, 4.0, 1e-13, 2.0 - 1e-13, 2.0 + 1e-13, 12.9, 14.2, 60.5)
        x = _line_node_sets()[9]
        assert 1 < specfun._ROW_BLOCK // int((np.abs(x) > 1.0).sum()) < len(betas)
        block = specfun.cosh_pow_integral_scaled(np.array(betas)[:, None], x)
        assert specfun.cosh_pow_integral_scaled(np.array(betas)[:, None], x).tobytes() == block.tobytes()
        for beta, row in zip(betas, block):
            assert specfun.cosh_pow_integral_scaled(beta, x).tobytes() == row.tobytes(), beta


class TestCoshPowStateless:
    def test_memory_stays_bounded(self):
        # the kernel keeps nothing per parameter, from plain abscissae or from
        # one held table: after 8,000 new parameters, 8,000 more must not
        # grow traced memory
        x = np.array([0.5, 1.5, 4.0, 30.0])
        for seed, nodes in ((11, x), (12, specfun.CoshPowNodes(x))):
            batches = np.random.default_rng(seed).uniform(0.0, 20.0, (2, 80, 100, 1))
            grown = []
            tracemalloc.start()
            try:
                for batch in batches:
                    before = tracemalloc.get_traced_memory()[0]
                    for col in batch:
                        specfun.cosh_pow_integral_scaled(col, nodes)
                    grown.append(tracemalloc.get_traced_memory()[0] - before)
            finally:
                tracemalloc.stop()
            assert grown[1] <= 0.5e6, (seed, grown)

    def test_threads_match_serial_calls(self):
        # six threads on repeated parameters give the bytes of serial calls
        rng = np.random.default_rng(3)
        pool = rng.uniform(0.0, 20.0, 12)
        cols = [rng.choice(pool, (5, 1)) for _ in range(24)]
        x = _line_node_sets()[3]
        serial = [specfun.cosh_pow_integral_scaled(col, x).tobytes() for col in cols]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as workers:
                got = list(workers.map(lambda col: specfun.cosh_pow_integral_scaled(col, x).tobytes(), cols * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == serial * 4


def _step_node_sets():
    """The real-line nodes of each refinement step up to level 12 (quad._step_levels)."""
    firsts = [0, *range(quad._FIRST_STEP_LAST_LEVEL + 1, 13)]
    return [quad._line_step_nodes(quad._step_levels(first))[0] for first in firsts]


class TestCoshPowNodes:
    BETAS = TestCoshPowBlocks.BETAS

    def test_table_rows_match_plain_abscissae(self):
        # one table reused for the column and every one-row call, against the
        # plain abscissae, for which the call builds its own
        col = np.array(self.BETAS)[:, None]
        for x in [*_step_node_sets(), _BRANCH_X]:
            nodes = specfun.CoshPowNodes(x)
            assert np.size(nodes) == x.size
            block = specfun.cosh_pow_integral_scaled(col, nodes)
            assert block.tobytes() == specfun.cosh_pow_integral_scaled(col, x).tobytes()
            for beta, row in zip(self.BETAS, block):
                assert specfun.cosh_pow_integral_scaled(beta, nodes).tobytes() == row.tobytes(), beta
                assert specfun.cosh_pow_integral_scaled(beta, x).tobytes() == row.tobytes(), beta

    def test_arrays_are_read_only(self):
        nodes = specfun.CoshPowNodes(_BRANCH_X)
        for name in specfun.CoshPowNodes.__slots__[1:]:
            array = getattr(nodes, name)
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1.0

    def test_one_table_per_step(self):
        # one table per step and cut: the step's nodes x <= 2**j, each level's
        # an ascending prefix, in the whole step's order; j = _FULL_J keeps all
        for first in (0, 6, 9):
            levels = quad._step_levels(first)
            x, weight, cuts = quad._line_step_nodes(levels)
            full = abcore._line_table(levels, abcore._FULL_J)
            assert full[0].tobytes() == weight.tobytes() and full[1] == cuts and full[2].size == x.size
            for j in (4, 10, 11):
                table = abcore._line_table(levels, j)
                assert abcore._line_table(levels, j) is table
                kept_weight, kept_cuts, nodes = table
                kept = x <= 2.0**j
                assert nodes.size == kept_weight.size == kept.sum() < x.size
                assert kept_weight.tobytes() == weight[kept].tobytes()
                assert nodes.L.tobytes() == full[2].L[kept].tobytes()
                assert kept_cuts == tuple(int(kept[:cut].sum()) for cut in cuts)
        assert abcore._line_table.cache_info().maxsize == 32
