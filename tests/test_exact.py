"""Exact arithmetic: pi-polynomials, half-integer gamma, series coefficients,
the polygon moments and the exact uniform-disk polygon table."""

import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypvol import cli, expect

from hypvol.exact import (
    PiPoly,
    bernoulli_numbers,
    exp_moment,
    gamma_half,
    gamma_half_ratio,
    poly_integral_01,
    poly_mul,
    poly_pow,
    sin_sin2_power,
    zeta_even_over_pi_power,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
pi_polys = st.dictionaries(st.integers(-3, 4), rationals, max_size=4).map(PiPoly)


class TestPiPoly:
    def test_render_examples(self):
        assert PiPoly({1: Fraction(43, 60)}).render() == "43/60*pi"
        assert PiPoly({2: Fraction(943, 942480)}).render() == "943/942480*pi^2"
        assert PiPoly({1: 1, -1: Fraction(-128, 15)}).render() == "pi - 128/15*pi^-1"
        assert PiPoly({}).render() == "0"
        assert PiPoly({0: Fraction(-3, 2), 2: Fraction(4, 3)}).render() == "4/3*pi^2 - 3/2"

    def test_evaluate(self):
        val = PiPoly({1: 1, -1: Fraction(-128, 15)}).evaluate()
        assert val == pytest.approx(math.pi - 128 / (15 * math.pi), rel=1e-15)

    def test_evaluate_rounds_correctly(self):
        # fsum of float(c) pi**k read -1.736 at n = 28 and -8.6e12 at n = 40: the terms cancel
        for n in range(3, 41):
            exact = expect.polygon_beta0(n).exact
            with mp.workdps(60):
                want = mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.pi**k for k, c in exact.coeffs.items())
            assert exact.evaluate() == float(want), n

    @given(pi_polys)
    def test_evaluate_within_half_an_ulp(self, p):
        with mp.workdps(60):
            want = mp.fsum(mp.mpf(c.numerator) / c.denominator * mp.pi**k for k, c in p.coeffs.items())
        assert abs(p.evaluate() - want) <= abs(want) * 2.0**-53

    @given(pi_polys, pi_polys)
    def test_ring_axioms(self, p, q):
        assert (p + q).evaluate() == pytest.approx(p.evaluate() + q.evaluate(), rel=1e-12, abs=1e-9)
        assert p + q == q + p
        assert p * q == q * p
        assert (p - p) == PiPoly()

    @given(pi_polys, st.integers(-2, 3))
    def test_shift_matches_pi_power(self, p, k):
        assert p.shift(k).evaluate() == pytest.approx(p.evaluate() * math.pi**k, rel=1e-12, abs=1e-9)


class TestGammaHalf:
    def test_integer_arguments(self):
        assert gamma_half(2) == (Fraction(1), 0)  # Gamma(1)
        assert gamma_half(8) == (Fraction(6), 0)  # Gamma(4) = 3!

    def test_half_integer_arguments(self):
        # Gamma(1/2) = sqrt(pi), Gamma(5/2) = 3 sqrt(pi) / 4
        assert gamma_half(1) == (Fraction(1), 1)
        assert gamma_half(5) == (Fraction(3, 4), 1)

    @given(st.integers(1, 40))
    def test_matches_float_gamma(self, two_x):
        r, s = gamma_half(two_x)
        want = math.gamma(two_x / 2.0)
        assert float(r) * math.pi ** (0.5 * s) == pytest.approx(want, rel=1e-12)

    def test_ratio(self):
        r, s = gamma_half_ratio(4, 3)  # Gamma(2)/Gamma(3/2)
        assert float(r) * math.pi ** (0.5 * s) == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)


class TestPolynomials:
    def test_mul_and_pow(self):
        p = [Fraction(1), Fraction(1)]  # 1 + t
        assert poly_pow(p, 2) == [Fraction(1), Fraction(2), Fraction(1)]
        assert poly_mul(p, [Fraction(2)]) == [Fraction(2), Fraction(2)]

    def test_integral(self):
        # integral of t * (1 + t) over (0, 1) = 1/2 + 1/3
        assert poly_integral_01([Fraction(1), Fraction(1)], extra_power=1) == Fraction(5, 6)


class TestSeriesCoefficients:
    def test_bernoulli(self):
        bern = bernoulli_numbers(9)
        assert bern[0] == 1 and bern[1] == Fraction(-1, 2)
        assert bern[2] == Fraction(1, 6) and bern[4] == Fraction(-1, 30)
        assert bern[6] == Fraction(1, 42) and bern[8] == Fraction(-1, 30)
        assert bern[3] == bern[5] == bern[7] == 0

    def test_zeta_even(self):
        vals = zeta_even_over_pi_power(3)
        assert vals[0] == Fraction(1, 6)  # zeta(2)/pi^2
        assert vals[1] == Fraction(1, 90)
        assert vals[2] == Fraction(1, 945)


# polygon_beta0(n).exact for n = 3..12, frozen from an independent engine
# (products of complex trigonometric-exponential polynomials integrated
# term by term over (-pi/2, pi/2))
POLYGON_BETA0_EXACT = {
    3: {
        1: Fraction("1"),
        -1: Fraction("-128/15"),
    },
    4: {
        1: Fraction("2"),
        -1: Fraction("-256/15"),
    },
    5: {
        1: Fraction("3"),
        -1: Fraction("-128/3"),
        -3: Fraction("5537792/33075"),
    },
    6: {
        1: Fraction("4"),
        -1: Fraction("-256/3"),
        -3: Fraction("5537792/11025"),
    },
    7: {
        1: Fraction("5"),
        -1: Fraction("-448/3"),
        -3: Fraction("2768896/1575"),
        -5: Fraction("-575174277595136/81942485625"),
    },
    8: {
        1: Fraction("6"),
        -1: Fraction("-3584/15"),
        -3: Fraction("22151168/4725"),
        -5: Fraction("-2300697110380544/81942485625"),
    },
    9: {
        1: Fraction("7"),
        -1: Fraction("-1792/5"),
        -3: Fraction("5537792/525"),
        -5: Fraction("-1150348555190272/9104720625"),
        -7: Fraction("158689072094796726640050176/314057180960663765625"),
    },
    10: {
        1: Fraction("8"),
        -1: Fraction("-512"),
        -3: Fraction("11075584/525"),
        -5: Fraction("-2300697110380544/5462832375"),
        -7: Fraction("158689072094796726640050176/62811436192132753125"),
    },
    11: {
        1: Fraction("9"),
        -1: Fraction("-704"),
        -3: Fraction("60915712/1575"),
        -5: Fraction("-575174277595136/496621125"),
        -7: Fraction("79344536047398363320025088/5710130562921159375"),
        -9: Fraction("-67184020635188142257805470007340929384448/1208771650099777555885482373359375"),
    },
    12: {
        1: Fraction("10"),
        -1: Fraction("-2816/3"),
        -3: Fraction("243662848/3675"),
        -5: Fraction("-2300697110380544/827701875"),
        -7: Fraction("317378144189593453280100352/5710130562921159375"),
        -9: Fraction("-134368041270376284515610940014681858768896/402923883366592518628494124453125"),
    },
}


GOLDEN = Path(__file__).parent / "golden"


class TestPolygonMoments:
    @pytest.mark.parametrize("j", [0, 1, 3, 2, 4, -1, -2, -5])
    def test_exp_moment_against_mpmath(self, j):
        with mp.workdps(30):
            for p in range(9):
                want = mp.quad(lambda u: u**p * mp.expj(j * u), [0, mp.pi])
                got = mp.fsum(
                    mp.mpf(c.numerator) / c.denominator * 1j**phase * mp.pi**k for k, phase, c in exp_moment(p, j)
                )
                got_re, got_im = got.real, got.imag
                scale = max(1, abs(want))
                assert abs(got_re - want.real) <= 1e-25 * scale, (p, j)
                assert abs(got_im - want.imag) <= 1e-25 * scale, (p, j)

    def test_sin_sin2_power_pointwise(self):
        us = np.linspace(0.0, math.pi, 13)
        for k in range(7):
            got = sum(float(c) * 1j**phase * np.exp(1j * j * us) for j, phase, c in sin_sin2_power(k))
            want = np.sin(us) * np.sin(2 * us) ** k
            np.testing.assert_allclose(got.real, want, atol=1e-14)
            np.testing.assert_allclose(got.imag, 0.0, atol=1e-14)

    def test_polygon_beta0_frozen_table(self):
        for n, coeffs in POLYGON_BETA0_EXACT.items():
            assert expect.polygon_beta0(n).exact == PiPoly(coeffs), n

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_polygon_table_golden(self, fmt):
        want = (GOLDEN / f"polygon_beta0_3_12.{fmt}").read_text()
        assert cli.table_text("polygon-beta0", 3, 12, fmt) == want
