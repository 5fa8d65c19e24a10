"""Formula engine: expectation values against exact families and oracles.

Fixed reference values used below:
* 35/(48 pi): classical expected area of a uniform triangle in the unit
  disk (checked independently by the absorption sampler in test_mcsim).
* 4 pi/105: classical expected Euclidean volume of the hull of 4
  uniform points on the 2-sphere.
Both are reproduced by the subset-sum engine to machine accuracy.
"""

import math
import warnings
from fractions import Fraction

import pytest

from hypvol import expect
from hypvol.exact import PiPoly
from hypvol.expect import BetaSpec
from hypvol.quad import QuadConfig
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


class TestExpectedHypVolume:
    def test_ideal_polygons_exact(self):
        for n in (3, 4, 7):
            res = expect.expected_hyp_volume(BetaSpec(2, (-1.0,) * n), CFG)
            assert res.exact == PiPoly({1: Fraction(n - 2)})
            assert res.value == (n - 2) * math.pi

    def test_ideal_polytopes3_exact(self):
        res = expect.expected_hyp_volume(BetaSpec(3, (-1.0,) * 6), CFG)
        assert res.exact == PiPoly({1: Fraction(43, 60)})

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
        assert generic.value == pytest.approx(expect.polygon_beta0(3, CFG).value, abs=1e-10)

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

    @pytest.mark.parametrize("eps", [1e-13, 5e-10, 2.5e-8])
    def test_near_ideal_d2_in_both_representations(self, eps):
        # every class has its linear factor within 10 * eps of the b-pole,
        # so each takes the limit with a band of 100 * |linear factor|;
        # the volume moves from 3 pi by far less than that band
        # a valid query emits no warning, also when tiny parameters make a
        # factor underflow to 0 at the outermost nodes
        spec = BetaSpec(2, (-1.0 + eps,) * 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            up = expect.expected_hyp_volume(spec, CFG, representation="upper")
            lo = expect.expected_hyp_volume(spec, CFG, representation="lower")
        assert abs(up.value - lo.value) <= up.abs_err_est + lo.abs_err_est
        for res in (up, lo):
            assert abs(res.value - 3.0 * math.pi) <= res.abs_err_est
            assert res.abs_err_est <= 2e4 * eps + 1e-8


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
        assert expect.polygon_beta0(3, CFG).exact.render() == "pi - 128/15*pi^-1"
        assert expect.polygon_beta0(4, CFG).exact.render() == "2*pi - 256/15*pi^-1"
        assert (
            expect.polygon_beta0(5, CFG).exact.render()
            == "3*pi - 128/3*pi^-1 + 5537792/33075*pi^-3"
        )

    def test_value_matches_exact(self):
        for n in (3, 4, 5, 6):
            res = expect.polygon_beta0(n, CFG)
            assert res.value == res.exact.evaluate()
            assert abs(res.value - res.exact.evaluate()) <= res.abs_err_est

    def test_against_segment_quadrature(self):
        from hypvol import abcore

        for n in (3, 4, 5):
            b_num = abcore.b_fn(1.0, abcore.ParamMultiset([2.0] * (n - 1)), CFG).value
            numeric = -2.0 * math.pi + 2.0 ** (n - 1) * n * math.pi ** (2 - n) * b_num
            assert expect.polygon_beta0(n, CFG).value == pytest.approx(numeric, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            expect.polygon_beta0(2, CFG)


class TestPolyLogCos:
    def test_monomial_cases(self):
        left, right = expect.poly_log_cos_check(1, [1])
        assert right == pytest.approx(math.pi / 2, rel=1e-14)
        assert left == pytest.approx(right, abs=1e-10)
        left, right = expect.poly_log_cos_check(2, [1])
        assert right == pytest.approx(-math.pi / 4, rel=1e-14)
        assert left == pytest.approx(right, abs=1e-10)
        left, right = expect.poly_log_cos_check(1, [0, 1])
        assert right == pytest.approx(-math.pi / 4, rel=1e-14)
        assert left == pytest.approx(right, abs=1e-10)

    def test_polynomial_case(self):
        left, right = expect.poly_log_cos_check(2, [Fraction(1, 3), -2, Fraction(5, 7)])
        assert left == pytest.approx(right, abs=1e-9)
