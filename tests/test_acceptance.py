"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass line once its assertions hold, so a
verbose run reads as a checklist.  Runtime budgets are asserted for the
criteria that carry one.

Criteria 5-7 are registered checks in ``hypvol.verify`` and run, at full
grids, from ``tests/test_verify.py``: representation equality with its
60 s budget (``expect.representation-equality``), the pole path against
Richardson extrapolation (``expect.pole-consistency``) and the absorption
identity (``abcore.absorption-identity``).  The odd-parameter imaginary-axis
identity of criterion 9 is ``specfun.imag-axis-odd-params``.  Its log-cos
moment lemma is the closed form ``abcore.a_prime_odd_repeated``, checked
exactly and against quadrature by ``TestAPrime`` in ``tests/test_abcore.py``.
"""

import math
import time
from fractions import Fraction

from hypvol import expect, mcsim
from hypvol.exact import PiPoly
from hypvol.expect import BetaSpec
from hypvol.mcsim import SampleConfig
from hypvol.quad import QuadConfig
from hypvol.specfun import f_real_total, harmonic

CFG = QuadConfig()


def _report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_01_ideal_polytopes_dimension3():
    budget = 5.0
    start = time.time()
    exact_values = {
        4: Fraction(1, 6), 5: Fraction(5, 12), 6: Fraction(43, 60),
        7: Fraction(21, 20), 8: Fraction(197, 140),
    }
    worst = 0.0
    for n, frac in exact_values.items():
        spec = BetaSpec(3, (-1.0,) * n)
        res = expect.expected_hyp_volume(spec, CFG)
        assert res.exact == PiPoly({1: frac})
        generic = expect.expected_hyp_volume(spec, CFG, method="generic", closed_forms=False)
        rel = abs(generic.value - res.value) / res.value
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.time() - start
    assert elapsed < budget
    _report("criterion-1", f"n=4..8 exact and quadrature paths agree (worst rel {worst:.1e}, {elapsed:.2f}s)")


def test_criterion_02_wz_identity():
    budget = 2.0
    start = time.time()
    for n in range(4, 201):
        assert expect.ideal_polytope3_via_sum(n) == PiPoly({1: Fraction(n, 2) - harmonic(n - 1)})
    elapsed = time.time() - start
    assert elapsed < budget
    _report("criterion-2", f"alternating sum equals n/2 - H_(n-1) exactly for 4 <= n <= 200 ({elapsed:.2f}s)")


def test_criterion_03_ideal_simplices():
    budget = 30.0
    start = time.time()
    assert expect.ideal_simplex_volume(3, CFG).exact == PiPoly({1: Fraction(1, 6)})
    assert expect.ideal_simplex_volume(5, CFG).exact == PiPoly({2: Fraction(943, 942480)})
    assert expect.ideal_simplex_volume(7, CFG).exact == PiPoly(
        {3: Fraction(6952469612009, 2292117595080112800)}
    )
    v2 = expect.ideal_simplex_volume(2, CFG).value
    assert abs(v2 - math.pi) <= 1e-9
    v4_exact = PiPoly({2: Fraction(4, 3), 0: Fraction(-86528, 6615)}).evaluate()
    v4 = expect.ideal_simplex_volume(4, CFG).value
    assert abs(v4 - v4_exact) / v4_exact <= 1e-7
    v6_exact = PiPoly(
        {
            3: Fraction(34, 15),
            1: Fraction(-1166172999537393664, 47992913336092725),
            -1: Fraction(7754705186848768, 407510816383125),
        }
    ).evaluate()
    v6 = expect.ideal_simplex_volume(6, CFG).value
    assert abs(v6 - v6_exact) / v6_exact <= 1e-7
    elapsed = time.time() - start
    assert elapsed < budget
    _report("criterion-3", f"odd exact, even quadrature within tolerance ({elapsed:.2f}s)")


def test_criterion_04_beta0_polygons():
    budget = 10.0
    start = time.time()
    expected = {
        3: PiPoly({1: 1, -1: Fraction(-128, 15)}),
        4: PiPoly({1: 2, -1: Fraction(-256, 15)}),
        5: PiPoly({1: 3, -1: Fraction(-128, 3), -3: Fraction(5537792, 33075)}),
        6: PiPoly({1: 4, -1: Fraction(-256, 3), -3: Fraction(5537792, 11025)}),
    }
    for n, want in expected.items():
        res = expect.polygon_beta0(n)
        assert res.exact == want
        assert abs(res.value - want.evaluate()) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < budget
    _report("criterion-4", f"n=3..6 match the exact expressions ({elapsed:.2f}s)")


def test_criterion_08_monte_carlo_concordance():
    budget = 120.0
    start = time.time()
    zs = []
    for n in (4, 6):
        est = mcsim.mc_ideal_polytope3_volume(n, SampleConfig(seed=100 + n, n_samples=100000, streams=4))
        target = expect.ideal_polytope3(n).evaluate()
        z = (est.mean - target) / est.stderr
        zs.append(f"n={n}: z={z:+.2f}")
        assert abs(z) <= 3.0
    absorb_specs = [
        (BetaSpec(2, (0.0, 0.0, 0.0)), 200),
        (BetaSpec(3, (-1.0,) * 5), 201),
        (BetaSpec(3, (-1.0, 0.0, 1.0, 2.0)), 202),
    ]
    for spec, seed in absorb_specs:
        est = mcsim.mc_absorption(spec, 0.0, SampleConfig(seed=seed, n_samples=150000, streams=4))
        target = expect.expected_beta_integral(spec, 0.0, CFG).value
        z = (est.mean - target) / est.stderr
        zs.append(f"absorb d={spec.d}: z={z:+.2f}")
        assert abs(z) <= 3.0
    rng = mcsim._stream_rng(77, 0)
    pts = mcsim._sample_block(2, (-1.0,), rng, 500 * 6)[:, 0].reshape(500, 6, 2)
    for i in range(500):
        area = mcsim.hyp_area_polygon_d2(mcsim.hull_d2(pts[i]))
        assert abs(area - 4.0 * math.pi) <= 1e-9
    elapsed = time.time() - start
    assert elapsed < budget
    _report("criterion-8", f"{'; '.join(zs)}; 500 ideal d2 hulls exact ({elapsed:.1f}s)")


def test_criterion_09_special_function_suite():
    from hypvol import abcore

    P = abcore.ParamMultiset
    worst = 0.0
    # repeated-unit closed forms against raw quadrature
    for d, alpha in ((2, 3.5), (3, 5.0), (4, 6.0), (3, 4.2)):
        got = abcore.a_fn(alpha, P([1.0] * d), CFG, closed_forms=False).value
        worst = max(worst, abs(got - abcore.a_ones(d, alpha)))
    for d, alpha in ((1, 0.0), (2, 1.3), (3, 1.0), (4, 0.5)):
        got = abcore.b_fn(alpha, P([1.0] * d), CFG, closed_forms=False).value
        worst = max(worst, abs(got - abcore.b_ones(d, alpha)))
    # limit of (alpha + 1) b at the pole: equals the product of the full
    # inner integrals, each evaluated here by quadrature (the direct
    # alpha -> -1 approach concentrates its mass below double-precision
    # node depth and cannot be quadratured)
    from hypvol import quad as _quad

    for params in (P([0.0]), P([0.7, 1.3]), P([2.0, 2.0, 2.0])):
        want = math.prod(f_real_total(b) for b in params)
        got = 1.0 if len(params) else 2.0
        for b in params:
            inner = _quad.integrate_finite(
                lambda v, bb=b: (v * (2.0 - v)) ** (0.5 * (bb - 1.0)), 0.0, 1.0, CFG
            )
            got *= 2.0 * inner.value
        worst = max(worst, abs(got - want))
    assert worst <= 1e-8
    _report("criterion-9", f"closed forms vs quadrature, worst deviation {worst:.2e}")


def test_criterion_10_growth_trend():
    # the stated large-d scaling is checked as a property: the ratio to
    # e^(5/4)/sqrt(pi) * (sqrt(e)/d)^d stays in (0.5, 2) and decreases
    # toward 1 monotonically on d = 6..12
    ratios = []
    for d in range(6, 13):
        value = expect.ideal_simplex_volume(d, CFG).value
        asymptote = math.exp(1.25) / math.sqrt(math.pi) * (math.sqrt(math.e) / d) ** d
        ratios.append(value / asymptote)
    for r in ratios:
        assert 0.5 < r < 2.0
    for a, b in zip(ratios, ratios[1:]):
        assert abs(b - 1.0) < abs(a - 1.0)
    _report("criterion-10", "ratios " + ", ".join(f"{r:.3f}" for r in ratios))
