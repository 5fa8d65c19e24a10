"""Formula engine: expectation values against exact families and oracles.

Fixed reference values used below:
* 35/(48 pi): classical expected area of a uniform triangle in the unit
  disk (checked independently by the absorption sampler in test_mcsim).
* 4 pi/105: classical expected Euclidean volume of the hull of 4
  uniform points on the 2-sphere.
Both are reproduced by the subset-sum engine to machine accuracy.
"""

import math
import time
import warnings
from fractions import Fraction

import mpmath as mp
import pytest

from hypvol import expect, specfun
from hypvol.exact import PiPoly
from hypvol.expect import BetaSpec
from hypvol.quad import QuadConfig, QuadratureError
from hypvol.verify import _richardson3

CFG = QuadConfig()


class TestBetaSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BetaSpec(1, (0.0, 0.0))
        with pytest.raises(ValueError):
            BetaSpec(2, (0.0, 0.0))
        with pytest.raises(ValueError):
            BetaSpec(2, (0.0, 0.0, -1.5))
        with pytest.raises(ValueError, match="integer d"):
            BetaSpec(3.5, (0.0,) * 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_betas(self, bad):
        with pytest.raises(ValueError, match="every beta parameter must be finite"):
            BetaSpec(3, (bad, 0.0, 0.0, 0.0))

    def test_gammas(self):
        spec = BetaSpec(3, (-1.0, 0.0, 1.0, 2.0))
        assert spec.gammas() == (0.5, 1.5, 2.5, 3.5)


class TestEnumerateClasses:
    def test_all_equal_single_class(self):
        spec = BetaSpec(3, (-1.0,) * 6)
        classes = expect.enumerate_classes(spec, [4])
        assert len(classes) == 1
        assert classes[0].multiplicity == math.comb(6, 4)

    def test_distinct_betas(self):
        spec = BetaSpec(2, (0.0, 0.5, 1.0))
        classes = expect.enumerate_classes(spec, [2])
        assert len(classes) == 3
        assert all(c.multiplicity == 1 for c in classes)

    def test_multinomial_counts(self):
        spec = BetaSpec(2, (-1.0, -1.0, 0.0, 0.0, 0.0))
        classes = expect.enumerate_classes(spec, [2])
        mults = sorted(c.multiplicity for c in classes)
        assert mults == [1, 3, 6]
        assert sum(mults) == math.comb(5, 2)

    def test_totals_match_binomials(self):
        spec = BetaSpec(3, (-1.0, -0.5, 0.0, 1.0, 1.0))
        for k in range(0, 6):
            classes = expect.enumerate_classes(spec, [k])
            assert sum(c.multiplicity for c in classes) == math.comb(5, k)
            for c in classes:
                assert len(c.inside) + len(c.outside) == 5

    def test_cardinality_validation(self):
        with pytest.raises(ValueError):
            expect.enumerate_classes(BetaSpec(2, (0.0,) * 3), [4])


class TestExpectedBetaIntegral:
    def test_classical_disk_triangle(self):
        spec = BetaSpec(2, (0.0, 0.0, 0.0))
        for rep in ("upper", "lower", "auto"):
            res = expect.expected_beta_integral(spec, 0.0, CFG, representation=rep)
            assert res.value == pytest.approx(35.0 / (48.0 * math.pi), abs=1e-12)

    def test_classical_sphere_tetrahedron(self):
        res = expect.expected_beta_integral(BetaSpec(3, (-1.0,) * 4), 0.0, CFG)
        assert res.value == pytest.approx(4.0 * math.pi / 105.0, abs=1e-12)

    def test_representations_agree(self):
        for spec in (BetaSpec(2, (-1.0, 0.0, 1.0, 2.0)), BetaSpec(3, (0.0,) * 5)):
            for beta in (0.0, -0.4, -0.5 * (spec.d + 1) + 0.1):
                up = expect.expected_beta_integral(spec, beta, CFG, representation="upper")
                lo = expect.expected_beta_integral(spec, beta, CFG, representation="lower")
                assert up.value == pytest.approx(lo.value, abs=1e-9)
                assert up.representation == "upper" and lo.representation == "lower"

    def test_near_pole_widens_error(self):
        spec = BetaSpec(3, (-1.0,) * 4)
        exact = expect.expected_beta_integral(spec, -1.0, CFG)
        for gap in (1e-8, 1e-9, 1e-11):
            res = expect.expected_beta_integral(spec, -1.0 + gap, CFG)
            assert not res.pole_path
            assert abs(res.value - exact.value) <= res.abs_err_est + exact.abs_err_est

    def test_domain(self):
        with pytest.raises(ValueError):
            expect.expected_beta_integral(BetaSpec(2, (0.0,) * 3), -1.5, CFG)
        with pytest.raises(ValueError):
            expect.expected_beta_integral(BetaSpec(3, (0.0,) * 5), -1.0, CFG, representation="bogus")

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_exponent(self, bad):
        with pytest.raises(ValueError, match="requires a finite beta"):
            expect.expected_beta_integral(BetaSpec(2, (0.0,) * 3), bad, CFG)


class TestSubsetSumBar:
    @pytest.mark.parametrize("exponent", [0.3, 2.7])
    def test_representations_agree_within_bars_over_ideal_points(self, exponent):
        spec = BetaSpec(3, (-1.0,) * 11)
        up = expect.expected_beta_integral(spec, exponent, CFG, representation="upper")
        lo = expect.expected_beta_integral(spec, exponent, CFG, representation="lower")
        assert abs(up.value - lo.value) <= up.abs_err_est + lo.abs_err_est

    def test_representations_agree_within_bars_over_40_points(self):
        # the upper sum multiplies normalized a~ over up to 39 small parameters, far below 1, by C(40, k):
        # at a fixed floor of 1e-14 they stopped unresolved, and the upper value missed the lower one
        # by 27 times the bars
        spec = BetaSpec(2, (0.5,) * 40)
        up = expect.expected_beta_integral(spec, -0.5, CFG, representation="upper")
        lo = expect.expected_beta_integral(spec, -0.5, CFG, representation="lower")
        assert abs(up.value - lo.value) <= up.abs_err_est + lo.abs_err_est

    def test_representations_agree_within_bars_with_cosh_power_parameters_above_13(self):
        # parameters above 13 take the cosh-power kernel's upward recurrence
        spec = BetaSpec(3, (10.0, 0.5, 1.5, 2.5, 11.3))
        up = expect.expected_beta_integral(spec, 0.7, CFG, representation="upper")
        lo = expect.expected_beta_integral(spec, 0.7, CFG, representation="lower")
        assert abs(up.value - lo.value) <= up.abs_err_est + lo.abs_err_est

    def test_upper_sum_over_80_unit_betas_fails_or_holds_its_bar(self):
        # a b integral far below its closed term: with a floor of 4 ulps of that term it stopped early
        # and the upper sum read 8.509 +- 2.74, off the lower 2.6088 by more than both bars; it must
        # raise or agree
        spec = BetaSpec(2, (1.0,) * 80)
        lo = expect.expected_beta_integral(spec, -0.5, representation="lower")
        assert lo.value == pytest.approx(2.608846664873623, abs=4e-12)
        try:
            up = expect.expected_beta_integral(spec, -0.5, representation="upper")
        except QuadratureError:
            return
        assert abs(up.value - lo.value) <= up.abs_err_est + lo.abs_err_est


class TestLargeN:
    """Subset sums at large n: the normalized class terms stay in the double range at every n."""

    @staticmethod
    def _lower_sum(n):
        """The d=2 volume of n points at beta = 1/2 in 30-digit mpmath: -2 (pi - c**n n a (alpha+1) b).

        One lower class, one point inside: c = Gamma(5/2)/(sqrt(pi) Gamma(2)) = 3/4,
        a(4; (3,)) = 8/9, alpha + 1 = 3, and b(2; (3,)*(n-1)) the integral of
        cos(y)**2 F_3(y)**(n-1) with F_3(y) = 2/3 + sin y - sin(y)**3/3.
        """
        with mp.workdps(30):
            h = mp.pi / 2
            scaled = lambda y: mp.cos(y) ** 2 * (mp.mpf(3) / 4 * (mp.mpf(2) / 3 + mp.sin(y) - mp.sin(y) ** 3 / 3)) ** (n - 1)  # noqa: E731
            b = mp.quad(scaled, [-h, 0, h - 1, h - 0.5, h - 0.25, h])
            return -2 * (mp.pi - n * mp.mpf(8) / 9 * 3 * mp.mpf(3) / 4 * b)

    @pytest.mark.parametrize("n", [1300, 2000, 2500, 10_000])
    def test_equal_betas_against_mpmath(self, n):
        # a product of the constants was exp(sum) * pi**(-n/2), whose power is 0 from n ~ 1302,
        # and (3/4)**n is subnormal from n = 2463: the rows are now normalized instead
        res = expect.expected_hyp_volume(BetaSpec(2, (0.5,) * n), CFG)
        assert res.representation == "lower"
        assert abs(res.value - self._lower_sum(n)) <= res.abs_err_est

    @pytest.mark.parametrize("n", [621, 622, 10_000])
    def test_ideal_polygons_generic(self, n):
        # the subset sum of n ideal points is (n - 2) pi; the constants' product (1/pi)**n was
        # subnormal from n = 621 and P = pi**(n - 1) not finite from n = 622
        res = expect.expected_hyp_volume(BetaSpec(2, (-1.0,) * n), CFG, method="generic")
        assert res.exact is None and res.representation == "lower"
        with mp.workdps(30):
            assert abs(res.value - (n - 2) * mp.pi) <= res.abs_err_est

    def test_upper_multiplicities_beyond_the_float_range(self):
        with pytest.raises(expect.NotRepresentableError, match="multiplicity"):
            expect.expected_beta_integral(BetaSpec(3, (2.0,) * 1100), 0.5, CFG, representation="upper")


class TestExpectedHypVolume:
    def test_ideal_polygons_exact(self):
        for n in (3, 4, 7):
            res = expect.expected_hyp_volume(BetaSpec(2, (-1.0,) * n), CFG)
            assert res.exact == PiPoly({1: Fraction(n - 2)})
            assert res.value == (n - 2) * math.pi

    def test_ideal_polytopes3_exact(self):
        res = expect.expected_hyp_volume(BetaSpec(3, (-1.0,) * 6), CFG)
        assert res.exact == PiPoly({1: Fraction(43, 60)})

    def test_exact_values_carry_the_bar_of_their_rounding(self):
        # the value is the exact one correctly rounded, so its bar is 2**-53 |value|; a bar of 0
        # missed the exact value by up to half an ulp (ideal3 n = 40 by 2.1e-15)
        with mp.workdps(60):
            for d, ns in ((2, range(3, 41)), (3, range(4, 41))):
                for n in ns:
                    res = expect.expected_hyp_volume(BetaSpec(d, (-1.0,) * n), CFG)
                    coeff = n - 2 if d == 2 else mp.mpf(n) / 2 - mp.fsum(mp.mpf(1) / k for k in range(1, n))
                    assert res.abs_err_est == 2.0**-53 * abs(res.value) > 0.0
                    assert abs(res.value - coeff * mp.pi) <= res.abs_err_est, (d, n)
            for d in (3, 5, 7, 9):
                res = expect.ideal_simplex_volume(d, CFG)
                ((power, coeff),) = res.exact.coeffs.items()
                assert res.abs_err_est == 2.0**-53 * abs(res.value) > 0.0
                assert abs(res.value - mp.mpf(coeff.numerator) / coeff.denominator * mp.pi**power) <= res.abs_err_est, d

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_odd_d_generic_volumes_take_the_upper_pole_path(self, d):
        # the exponent -(d+1)/2 is a negative integer at odd d, whatever representation is asked for
        spec = BetaSpec(d, [-0.5 + 0.3 * i for i in range(d + 2)])
        for rep in ("auto", "upper", "lower"):
            res = expect.expected_hyp_volume(spec, CFG, method="generic", representation=rep)
            assert res.pole_path is True and res.representation == "upper" and res.exact is None, (d, rep)

    def test_generic_matches_exact_d3(self):
        for n in (4, 5, 6):
            generic = expect.expected_hyp_volume(
                BetaSpec(3, (-1.0,) * n), CFG, method="generic", closed_forms=False
            )
            exact = expect.ideal_polytope3(n).evaluate()
            assert generic.value == pytest.approx(exact, rel=1e-8)

    def test_generic_matches_exact_d2(self):
        for rep in ("upper", "lower"):
            generic = expect.expected_hyp_volume(
                BetaSpec(2, (-1.0,) * 4), CFG, method="generic", representation=rep
            )
            assert generic.value == pytest.approx(2.0 * math.pi, abs=1e-10)

    def test_generic_matches_polygon_beta0(self):
        generic = expect.expected_hyp_volume(BetaSpec(2, (0.0,) * 3), CFG, method="generic")
        assert generic.value == pytest.approx(expect.polygon_beta0(3).value, abs=1e-10)

    def test_monotone_limit_of_beta_integral(self):
        for spec in (
            BetaSpec(3, (-1.0, 0.0, 0.5, 1.0)),
            BetaSpec(4, (-1.0, -0.5, 0.0, 1.0, 1.0, 2.0)),
            BetaSpec(5, (-1.0,) * 7),
        ):
            b0 = -0.5 * (spec.d + 1)
            vals = [expect.expected_beta_integral(spec, b0 + e, CFG).value for e in (4e-4, 2e-4, 1e-4)]
            assert vals[0] < vals[1] < vals[2]
            limit = _richardson3(lambda e: expect.expected_beta_integral(spec, b0 + e, CFG).value, 4e-4)
            hv = expect.expected_hyp_volume(spec, CFG, method="generic")
            assert limit == pytest.approx(hv.value, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            expect.expected_hyp_volume(BetaSpec(3, (-1.0, 0.0, 0.5, 1.0, 2.0)), CFG, representation="bogus")

    def test_parameters_beyond_the_kernels_fail_fast(self):
        # 2 * beta + d >= 1024 raises before any kernel runs, in either
        # representation, where it used to overflow or recur for minutes
        for rep in ("upper", "lower"):
            for betas in ((1e9, 0.0, 0.0), (511.0, 0.0, 0.0)):
                start = time.perf_counter()
                with pytest.raises(ValueError, match="below 1024"):
                    expect.expected_hyp_volume(BetaSpec(2, betas), CFG, representation=rep)
                assert time.perf_counter() - start < 1.0
        # just below the limit the lower representation still converges, and auto lies within the combined bars
        res = expect.expected_hyp_volume(BetaSpec(2, (510.0, 0.0, 0.0)), CFG, representation="lower")
        assert 0.0 < res.value < math.pi and res.abs_err_est < 1e-8
        auto = expect.expected_hyp_volume(BetaSpec(2, (510.0, 0.0, 0.0)), CFG)
        assert abs(auto.value - res.value) <= auto.abs_err_est + res.abs_err_est

    def test_ideal_points_without_closed_forms(self):
        # ideal inside points put a b at its pole alpha = -1, where it is the limit
        # P with or without closed forms: no quadrature runs there
        spec = BetaSpec(2, (0.669, -1.0) * 4)
        on = expect.expected_hyp_volume(spec, CFG, representation="upper")
        off = expect.expected_hyp_volume(spec, CFG, representation="upper", closed_forms=False)
        assert abs(on.value - off.value) <= on.abs_err_est + off.abs_err_est

    @pytest.mark.parametrize("eps", [1e-13, 5e-10, 2.5e-8])
    def test_near_ideal_d2_in_both_representations(self, eps):
        # every class has its linear factor within 10 * eps of the b-pole;
        # the volume is 3 pi - 49.25 * eps to first order, and the bars stay
        # those of the quadrature, not of a band around the pole limit
        # a valid query emits no warning, also when tiny parameters make a
        # factor underflow to 0 at the outermost nodes
        spec = BetaSpec(2, (-1.0 + eps,) * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            up = expect.expected_hyp_volume(spec, CFG, representation="upper")
            lo = expect.expected_hyp_volume(spec, CFG, representation="lower")
        assert abs(up.value - lo.value) <= up.abs_err_est + lo.abs_err_est
        for res in (up, lo):
            assert abs(res.value - 3.0 * math.pi) <= res.abs_err_est + 60.0 * eps
            assert res.abs_err_est <= 1e-10


class TestPrefactor:
    @pytest.mark.parametrize("d", range(2, 10))
    def test_within_its_bound_of_mpmath(self, d):
        # pi**(d/2 - 1) Gamma(x)/Gamma(x + d/2), x = beta + 1, and on the pole path twice its residue at beta = -k
        half = mp.mpf(d) / 2
        with mp.workdps(40):
            for k in range(1, (d + 1) // 2 + 1):  # at odd d the last is the volume's exponent -(d+1)/2
                value, rel = expect._prefactor(d, -k, True)
                exact = 2 * mp.pi ** (half - 1) * (-1) ** (k - 1) / (mp.factorial(k - 1) * mp.gamma(half + 1 - k))
                assert abs(value - exact) <= rel * abs(exact), (d, k)
            for beta in (-0.5 * (d + 1) + d % 2 * 0.5, -0.5 * d + 0.25, -1.5, -0.75, 0.0, 0.3, 2.5, 10.0):
                value, rel = expect._prefactor(d, beta, False)
                x = mp.mpf(beta) + 1
                exact = mp.pi ** (half - 1) * mp.gamma(x) / mp.gamma(x + half)
                assert abs(value - exact) <= rel * abs(exact), (d, beta)

    def test_d2_pole_prefactor_reports_its_roundings(self):
        # no Gamma ratio is evaluated at even d or on the pole path: the bound is the scale's one rounding
        assert expect._prefactor(2, -1.0, True) == (2.0, specfun._U)


class TestPickRepresentation:
    def test_equals_the_sums_over_every_card(self):
        # the upper count is 2**(n-1) less the lower one: the pick is that of the sums over every card
        for d in range(2, 10):
            for n in range(d + 1, 60):
                spec = BetaSpec(d, (0.0,) * n)
                upper = sum(math.comb(n, k) for k in expect._upper_cards(spec))
                lower = sum(math.comb(n, k) for k in expect._lower_cards(spec))
                assert expect._pick_representation(spec, "auto") == ("lower" if lower < upper else "upper"), (d, n)


class TestSimplexCorollaries:
    """The paper's n = d+1 corollaries: the upper sum has a single class."""

    def test_hyp_volume_ideal_cases(self):
        for d, want, tol in ((2, math.pi, 1e-10), (3, math.pi / 6, 1e-12)):
            spec = BetaSpec(d, (-1.0,) * (d + 1))
            assert expect._pick_representation(spec, "auto") == "upper"
            assert len(expect.enumerate_classes(spec, expect._upper_cards(spec))) == 1
            res = expect.expected_hyp_volume(spec, CFG, method="generic")
            assert res.value == pytest.approx(want, abs=tol)

    def test_beta_integral_consistency(self):
        for d, betas in ((2, (0.0, 0.0, 0.0)), (3, (-1.0, 0.5, 0.0, 1.0))):
            up = expect.expected_beta_integral(BetaSpec(d, betas), 0.0, CFG, representation="upper")
            lo = expect.expected_beta_integral(BetaSpec(d, betas), 0.0, CFG, representation="lower")
            assert up.value == pytest.approx(lo.value, abs=1e-9)

    def test_beta_integral_pole_vs_richardson(self):
        spec = BetaSpec(3, (-1.0, -0.5, 0.0, 1.0))
        pole = expect.expected_beta_integral(spec, -1.0, CFG)
        assert pole.pole_path
        extrapolated = _richardson3(lambda e: expect.expected_beta_integral(spec, -1.0 + e, CFG).value, 1e-2)
        assert pole.value == pytest.approx(extrapolated, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            BetaSpec(3, (-1.0,) * 3)
        with pytest.raises(ValueError):
            expect.expected_beta_integral(BetaSpec(3, (-1.0,) * 4), -2.5, CFG)


class TestIdealPolytope3:
    def test_paper_values(self):
        assert expect.ideal_polytope3(4) == PiPoly({1: Fraction(1, 6)})
        assert expect.ideal_polytope3(7) == PiPoly({1: Fraction(21, 20)})
        assert expect.ideal_polytope3(8) == PiPoly({1: Fraction(197, 140)})

    def test_via_sum(self):
        assert expect.ideal_polytope3_via_sum(4) == PiPoly({1: Fraction(1, 6)})
        assert expect.ideal_polytope3_via_sum(5) == PiPoly({1: Fraction(5, 12)})
        assert expect.ideal_polytope3_via_sum(50) == expect.ideal_polytope3(50)

    def test_domain(self):
        with pytest.raises(ValueError):
            expect.ideal_polytope3(3)
        with pytest.raises(ValueError):
            expect.ideal_polytope3_via_sum(3)


class TestAlternatingHarmonicSum:
    def test_values(self):
        from hypvol.specfun import harmonic

        assert expect.alternating_harmonic_sum(4) == Fraction(1, 6)
        assert expect.alternating_harmonic_sum(3) == 0
        assert expect.alternating_harmonic_sum(10) == 5 - harmonic(9)

    def test_identity_range(self):
        from hypvol.specfun import harmonic

        for n in range(2, 80):
            assert expect.alternating_harmonic_sum(n) == Fraction(n, 2) - harmonic(n - 1)


class TestIdealSimplexVolume:
    def test_odd_exact(self):
        assert expect.ideal_simplex_volume(3, CFG).exact == PiPoly({1: Fraction(1, 6)})
        assert expect.ideal_simplex_volume(5, CFG).exact == PiPoly({2: Fraction(943, 942480)})
        assert expect.ideal_simplex_volume(7, CFG).exact == PiPoly(
            {3: Fraction(6952469612009, 2292117595080112800)}
        )

    def test_even_quadrature(self):
        assert expect.ideal_simplex_volume(2, CFG).value == pytest.approx(math.pi, abs=1e-9)
        v4 = 4.0 * math.pi**2 / 3.0 - 86528.0 / 6615.0
        assert expect.ideal_simplex_volume(4, CFG).value == pytest.approx(v4, rel=1e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            expect.ideal_simplex_volume(1, CFG)


class TestPolygonBeta0:
    def test_exact_renders(self):
        assert expect.polygon_beta0(3).exact.render() == "pi - 128/15*pi^-1"
        assert expect.polygon_beta0(4).exact.render() == "2*pi - 256/15*pi^-1"
        assert (
            expect.polygon_beta0(5).exact.render()
            == "3*pi - 128/3*pi^-1 + 5537792/33075*pi^-3"
        )

    def test_value_matches_exact(self):
        for n in (3, 4, 5, 6):
            res = expect.polygon_beta0(n)
            assert res.value == res.exact.evaluate()
            assert abs(res.value - res.exact.evaluate()) <= res.abs_err_est

    def test_against_the_generic_path(self):
        for n in range(3, 41):
            exact = expect.polygon_beta0(n)
            generic = expect.expected_hyp_volume(BetaSpec(2, (0.0,) * n), CFG, method="generic")
            assert abs(exact.value - generic.value) <= exact.abs_err_est + generic.abs_err_est, n

    def test_exact_sums_are_memoized(self):
        # a polygon-beta0 table asks for the same Fraction sums on every row of every op
        expect._b_ones_param2_exact.cache_clear()
        first = expect.polygon_beta0(12)
        assert expect.polygon_beta0(12) == first
        info = expect._b_ones_param2_exact.cache_info()
        assert (info.hits, info.misses) == (1, 1) and info.maxsize is not None

    def test_against_segment_quadrature(self):
        from hypvol import abcore

        for n in (3, 4, 5):
            b_num = abcore.b_fn(1.0, abcore.ParamMultiset([2.0] * (n - 1)), CFG).value
            numeric = -2.0 * math.pi + 2.0 ** (n - 1) * n * math.pi ** (2 - n) * b_num
            assert expect.polygon_beta0(n).value == pytest.approx(numeric, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            expect.polygon_beta0(2)

