"""Named verification checks over all modules.

Each check re-derives a family of identities or invariants and compares
against an independent route (quadrature against closed forms, exact
rationals against floating point, Monte Carlo against the formula
engine).  The CLI ``verify`` command runs every check and reports one
line per check id; ``quick`` shrinks the random grids.  The test suite
runs each check registered with ``@_check`` as its own item at full
grids, so this registry is the one definition of each invariant.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import abcore, expect, mcsim, quad, specfun
from .abcore import ParamMultiset
from .expect import BetaSpec
from .mcsim import SampleConfig
from .quad import QuadConfig

_CFG = QuadConfig()


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    detail: str


_REGISTRY: list[tuple[str, Callable[[bool], tuple[bool, str]]]] = []


def _check(check_id):
    def wrap(fn):
        _REGISTRY.append((check_id, fn))
        return fn

    return wrap


def _run_one(check_id: str, fn, quick: bool) -> CheckResult:
    """Run one check; a check that raises is reported as a failure."""
    try:
        return CheckResult(check_id, *fn(quick))
    except Exception as exc:
        return CheckResult(check_id, False, f"raised {type(exc).__name__}: {exc}")


def run_all(quick: bool = False) -> list[CheckResult]:
    return [_run_one(cid, fn, quick) for cid, fn in _REGISTRY]


def _bounded(worst: float, tol: float) -> tuple[bool, str]:
    return worst <= tol, f"worst {worst:.3e} (tol {tol:.0e})"


# -- specfun ------------------------------------------------------------------

def _quad_f_beta(beta: float, x: float) -> float:
    """Independent segment-integral oracle with the singularity moved to 0."""
    pio2_hi, pio2_lo = 1.5707963267948966, 6.123233995736766e-17
    if x <= 0.0:
        upper = (pio2_hi + x) + pio2_lo
        if upper <= 0.0:
            return 0.0
        return quad.integrate_finite(lambda t, b=beta: np.sin(t) ** b, 0.0, upper, _CFG).value
    head = quad.integrate_finite(lambda t, b=beta: np.sin(t) ** b, 0.0, 0.5 * math.pi, _CFG).value
    w = (pio2_hi - x) + pio2_lo
    if w <= 0.0:
        return 2.0 * head
    tail = quad.integrate_finite(lambda t, b=beta: np.sin(t) ** b, 0.0, w, _CFG).value
    return 2.0 * head - tail


@_check("specfun.f-real-vs-quadrature")
def _f_real_vs_quadrature(quick: bool):
    rng = np.random.default_rng(2024)
    count = 100 if quick else 1000
    worst = 0.0
    for _ in range(count):
        beta = float(rng.uniform(-0.95, 8.0))
        x = float(rng.uniform(-0.5 * math.pi, 0.5 * math.pi))
        worst = max(worst, abs(specfun.f_real(beta, x) - _quad_f_beta(beta, x)))
    return _bounded(worst, 1e-10)


@_check("specfun.cos-power-identity")
def _cos_power_identity(quick: bool):
    worst = 0.0
    for beta in (-0.9, -0.5, 0.0, 1.0, 2.7, 10.0):
        got = 2.0 * quad.integrate_finite(lambda t, b=beta: np.sin(t) ** b, 0.0, 0.5 * math.pi, _CFG).value
        worst = max(worst, abs(got - 1.0 / specfun.c_one_dim(0.5 * (beta - 1.0))))
    return _bounded(worst, 1e-10)


@_check("specfun.imag-axis-odd-params")
def _imag_axis_odd(quick: bool):
    # the two sides reach ~1e6 at m=4, u=-3, so the comparison is
    # relative: an absolute 1e-10 would be below machine resolution
    worst = 0.0
    for m in (1, 2, 3, 4):
        for u in (-3.0, -1.0, 0.0, 0.5, 2.0):
            got = specfun.f_imag(2 * m - 1, u)
            theta = math.atan(math.sinh(u))
            bmm = math.factorial(m - 1) ** 2 / math.factorial(2 * m - 1)
            want = (
                bmm
                * complex(math.cos(theta), math.sin(theta))
                / math.cos(theta) ** (2 * m - 1)
                * specfun.p_m_poly(m, complex(math.cos(2 * theta), math.sin(2 * theta)))
            )
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    return _bounded(worst, 1e-10)


@_check("specfun.lobachevsky-identities")
def _lobachevsky_identities(quick: bool):
    ts = np.linspace(-2.0, 2.0, 17 if quick else 81)
    lob = specfun.lobachevsky
    worst = float(np.abs(lob(ts) + lob(-ts)).max())
    worst = max(worst, float(np.abs(lob(ts + math.pi) - lob(ts)).max()))
    worst = max(worst, float(np.abs(0.5 * lob(2 * ts) - lob(ts) - lob(ts + 0.5 * math.pi)).max()))
    ref = quad.integrate_finite(lambda t: -np.log(2.0 * np.sin(t)), 0.0, math.pi / 3, _CFG)
    worst = max(worst, abs(lob(math.pi / 3) - ref.value))
    return _bounded(worst, 1e-10)


@_check("specfun.harmonic-differences")
def _harmonic_differences(quick: bool):
    from fractions import Fraction

    top = 200 if quick else 1000
    acc = Fraction(0)
    for n in range(1, top + 1):
        acc += Fraction(1, n)
        if acc != specfun.harmonic(n):
            return False, f"mismatch at n={n}"
    return True, f"exact up to n={top}"


# -- quad ---------------------------------------------------------------------

def _closed_form_suite():
    erf5 = math.erf(5.0)
    b34 = math.exp(2 * specfun.log_gamma(0.75) - specfun.log_gamma(1.5))
    cases = [
        ("finite", lambda t: t**-0.5, (0.0, 1.0), 2.0),
        ("finite", lambda t: t**-0.7, (0.0, 1.0), 1.0 / 0.3),
        ("finite", lambda t: np.log(t), (0.0, 1.0), -1.0),
        ("finite", lambda t: np.sin(t) ** -0.5, (0.0, 0.5 * math.pi), 0.5 / specfun.c_one_dim(-0.75)),
        # endpoint singularities are placed at 0 (exactly representable)
        ("finite", lambda s: 1.0 / np.sqrt(s * (2.0 - s)), (0.0, 1.0), 0.5 * math.pi),
        ("finite", lambda t: np.exp(t), (0.0, 2.0), math.expm1(2.0)),
        ("finite", lambda t: 4.0 / (1.0 + t * t), (0.0, 1.0), math.pi),
        ("finite", lambda t: np.sin(t), (0.0, math.pi), 2.0),
        ("finite", lambda t: t**3, (0.0, 1.0), 0.25),
        ("finite", lambda t: np.exp(-t * t), (0.0, 5.0), 0.5 * math.sqrt(math.pi) * erf5),
        ("finite", lambda t: np.sqrt(t) * np.log(t), (0.0, 1.0), -4.0 / 9.0),
        ("finite", lambda s: np.exp(-s) / np.sqrt(s), (0.0, 1.0), math.sqrt(math.pi) * math.erf(1.0)),
        ("finite", lambda t: 2.0 * t**-0.25 * (1.0 - t) ** -0.25, (0.0, 0.5), b34),
        ("finite", lambda t: np.cos(t), (0.0, 1.0), math.sin(1.0)),
        ("line", lambda x: 1.0 / np.cosh(x), None, math.pi),
        ("line", lambda x: np.exp(-x * x), None, math.sqrt(math.pi)),
        ("line", lambda x: x * x * np.exp(-x * x), None, 0.5 * math.sqrt(math.pi)),
        ("line", lambda x: np.cosh(x) ** -2.0, None, 2.0),
        ("line", lambda x: x * x / np.cosh(x), None, math.pi**3 / 4.0),
        ("line", lambda x: np.cos(x) * np.exp(-x * x), None, math.sqrt(math.pi) * math.exp(-0.25)),
    ]
    return cases


def _closed_form_errors(case: int, rels):
    """(rel_tol, true error, abs_err_est, rounding slack) of closed-form
    case ``case`` at each rel_tol in ``rels``."""
    kind, f, ab, truth = _closed_form_suite()[case]
    for rel in rels:
        cfg = QuadConfig(rel_tol=rel, abs_tol=1e-15)
        res = (
            quad.integrate_finite(f, ab[0], ab[1], cfg)
            if kind == "finite"
            else quad.integrate_real_line(f, cfg)
        )
        yield rel, abs(res.value - truth), res.abs_err_est, 5e-15 * max(1.0, abs(truth))


def _error_bound_case(case: int) -> tuple[str | None, float]:
    """The failure of one closed-form case (None if it holds) and its worst
    true-error / estimate ratio."""
    worst = 0.0
    for rel, err, est, slack in _closed_form_errors(case, (1e-8, 1e-10, 1e-12)):
        if err > est + slack:
            return f"case {case} at rel_tol={rel:.0e}: estimate too small: true {err:.2e} vs est {est:.2e}", worst
        worst = max(worst, err / max(est, 1e-300))
    return None, worst


def _monotone_case(case: int) -> str | None:
    """The failure of one closed-form case (None if it holds)."""
    prev = None
    for rel, err, _, slack in _closed_form_errors(case, (1e-6, 1e-8, 1e-10, 1e-12)):
        if prev is not None and err > prev + slack:
            return f"case {case} at rel_tol={rel:.0e}: error grew from {prev:.2e} to {err:.2e}"
        prev = err
    return None


@_check("quad.error-estimate-bounds")
def _quad_error_bounds(quick: bool):
    worst_ratio = 0.0
    for case in range(len(_closed_form_suite())):
        failure, ratio = _error_bound_case(case)
        if failure:
            return False, failure
        worst_ratio = max(worst_ratio, ratio)
    return True, f"estimates bound true error (worst ratio {worst_ratio:.2f})"


@_check("quad.tolerance-monotonic")
def _quad_tolerance_monotonic(quick: bool):
    for case in range(len(_closed_form_suite())):
        failure = _monotone_case(case)
        if failure:
            return False, failure
    return True, "true error non-increasing as rel_tol halves"


# -- abcore -------------------------------------------------------------------

def _random_params(rng, max_len=3, allow_empty=True):
    length = int(rng.integers(0 if allow_empty else 1, max_len + 1))
    return ParamMultiset(float(v) for v in rng.uniform(0.0, 3.0, length))


@_check("abcore.a-quadrature-consistency")
def _a_quadrature_consistency(quick: bool):
    rng = np.random.default_rng(7)
    count = 12 if quick else 50
    worst = 0.0
    for _ in range(count):
        params = _random_params(rng)
        alpha = params.total() + float(rng.uniform(0.5, 4.0))
        if len(params) <= 1:  # the closed forms cover at most one parameter
            value = abcore.a_fn(alpha, params, _CFG, closed_forms=False).value
            worst = max(worst, abs(value - abcore.a_fn(alpha, params, _CFG).value))
    for d, alpha in ((2, 3.5), (3, 5.0), (4, 6.25)):
        got = abcore.a_fn(alpha, ParamMultiset([1.0] * d), _CFG, closed_forms=False).value
        worst = max(worst, abs(got - abcore.a_ones(d, alpha)))
    return _bounded(worst, 1e-10)


@_check("abcore.b-alternative-representation")
def _b_alternative(quick: bool):
    rng = np.random.default_rng(8)
    count = 12 if quick else 50
    worst = 0.0
    for _ in range(count):
        params = _random_params(rng)
        alpha = float(rng.uniform(-0.9, 4.0))
        r1 = abcore.b_fn(alpha, params, _CFG, closed_forms=False)
        r2 = abcore.b_fn_alt(alpha, params, _CFG)
        excess = abs(r1.value - r2.value) - (r1.abs_err_est + r2.abs_err_est)
        worst = max(worst, excess)
    return worst <= 1e-11, f"worst excess over combined estimates {worst:.3e}"


@_check("abcore.a-prime-finite-differences")
def _a_prime_fd(quick: bool):
    rng = np.random.default_rng(9)
    count = 6 if quick else 20
    worst = 0.0
    step = 1e-4
    for _ in range(count):
        params = _random_params(rng)
        alpha = params.total() + float(rng.uniform(1.0, 4.0))
        fd = (
            abcore.a_fn(alpha + step, params, _CFG).value
            - abcore.a_fn(alpha - step, params, _CFG).value
        ) / (2.0 * step)
        worst = max(worst, abs(abcore.a_prime(alpha, params, _CFG).value - fd))
    return _bounded(worst, 1e-6)


@_check("abcore.vanishing-points")
def _vanishing(quick: bool):
    rng = np.random.default_rng(10)
    worst = 0.0
    cases = 0
    while cases < 10:
        m = int(rng.integers(2, 5))
        ell_max = (m - 2) // 2
        ell = int(rng.integers(0, ell_max + 1))
        if m - 1 - 2 * ell < 1:
            continue
        params = ParamMultiset(float(v) for v in rng.uniform(0.0, 2.0, m))
        alpha = m - 1 - 2 * ell + params.total()
        worst = max(worst, abs(abcore.a_fn(alpha, params, _CFG, closed_forms=False).value))
        cases += 1
    return _bounded(worst, 1e-10)


_ABSORPTION_GRID = [
    (2, (-1.0, -1.0, -1.0), 0.0),
    (2, (-1.0, 0.0, 1.0, 2.0), -1.0),
    (2, (0.0,) * 5, 0.5),
    (3, (-1.0,) * 4, 0.0),
    (3, (-1.0, -0.5, 0.0, 1.0, 2.0), 0.5),
    (3, (-1.0,) * 6, 1.0),
    (4, (-1.0,) * 5, 0.0),
    (4, (-1.0, -1.0, 0.0, 0.0, 1.0, 1.0), -1.0),
    (5, (-1.0,) * 6, 0.0),
    (5, (0.0, 0.0, 0.0, -0.5, -0.5, 1.0, 2.0), 2.0),
]


def _absorption_theta_sum(d: int, betas, beta: float) -> float:
    spec = BetaSpec(d, betas)
    terms = []
    for cards in (range(d + 1, spec.n + 1, 2), range(d - 1, -1, -2)):
        for cls in expect.enumerate_classes(spec, cards):
            y = cls.inside.scaled(0.5)
            z = cls.outside.scaled(0.5)
            terms.append(cls.multiplicity * expect.theta_fn(beta + 0.5 * d, y, z, _CFG).value)
    return math.fsum(terms)


@_check("abcore.absorption-identity")
def _absorption_identity(quick: bool):
    grid = _ABSORPTION_GRID[:4] if quick else _ABSORPTION_GRID
    worst = 0.0
    for d, betas, beta in grid:
        worst = max(worst, abs(_absorption_theta_sum(d, betas, beta) - 0.5))
    return _bounded(worst, 1e-9)


@_check("abcore.theta-empty-is-one")
def _theta_empty(quick: bool):
    worst = 0.0
    for x in (-0.49, 0.0, 0.5, 3.0, 10.0):
        worst = max(worst, abs(expect.theta_fn(x, ParamMultiset(), ParamMultiset(), _CFG).value - 1.0))
    return _bounded(worst, 1e-12)


# -- expect -------------------------------------------------------------------

_REP_GRID = [
    BetaSpec(2, (-1.0, -1.0, -1.0)),
    BetaSpec(2, (-1.0, -0.5, 0.0, 1.0)),
    BetaSpec(2, (0.0,) * 4),
    BetaSpec(2, (-0.5, -0.5, 1.0, 1.0, 1.0)),
    BetaSpec(3, (-1.0,) * 4),
    BetaSpec(3, (-1.0, -0.5, 0.0, 1.0)),
    BetaSpec(3, (0.0, 0.0, 0.0, 0.0, 1.0)),
    BetaSpec(3, (-1.0,) * 5),
    BetaSpec(4, (-1.0,) * 5),
    BetaSpec(4, (-1.0, -0.5, 0.0, 1.0, 1.0)),
    BetaSpec(4, (0.0,) * 6),
    BetaSpec(4, (-0.5,) * 7),
]


@_check("expect.representation-equality")
def _representation_equality(quick: bool):
    start = time.perf_counter()
    grid = _REP_GRID[::3] if quick else _REP_GRID
    worst = 0.0
    for spec in grid:
        for beta in (0.0, -0.4, -0.5 * (spec.d + 1) + 0.1):
            up = expect.expected_beta_integral(spec, beta, _CFG, representation="upper").value
            lo = expect.expected_beta_integral(spec, beta, _CFG, representation="lower").value
            worst = max(worst, abs(up - lo))
    if time.perf_counter() - start >= 60.0:
        return False, "over the 60 s time budget"
    return _bounded(worst, 1e-9)


def _richardson3(f, eps: float) -> float:
    i1, i2, i4 = f(eps), f(0.5 * eps), f(0.25 * eps)
    r1a = 2.0 * i2 - i1
    r1b = 2.0 * i4 - i2
    return (4.0 * r1b - r1a) / 3.0


_POLE_GRID = [
    (3, (-1.0,) * 4, 1),
    (4, (-1.0, -0.5, 0.0, 1.0, 0.0), 1),
    (5, (-1.0,) * 6, 1),
    (5, (0.0,) * 6, 2),
]


@_check("expect.pole-consistency")
def _pole_consistency(quick: bool):
    worst = 0.0
    for d, betas, k in _POLE_GRID:
        spec = BetaSpec(d, betas)
        pole = expect.expected_beta_integral(spec, -float(k), _CFG)
        if not pole.pole_path:
            return False, f"pole path not taken for d={d}, k={k}"
        extrapolated = _richardson3(
            lambda e: expect.expected_beta_integral(spec, -float(k) + e, _CFG).value, 1e-2
        )
        worst = max(worst, abs(pole.value - extrapolated))
    return _bounded(worst, 1e-6)


@_check("expect.monotone-hyperbolic-limit")
def _monotone_limit(quick: bool):
    worst = 0.0
    for spec in (BetaSpec(2, (0.0,) * 3), BetaSpec(3, (-1.0,) * 4), BetaSpec(3, (-1.0, 0.0, 0.5, 1.0))):
        b0 = -0.5 * (spec.d + 1)
        vals = [expect.expected_beta_integral(spec, b0 + e, _CFG).value for e in (4e-4, 2e-4, 1e-4)]
        if not (vals[0] < vals[1] < vals[2]):
            return False, f"not increasing toward the limit for d={spec.d}"
        extrapolated = _richardson3(
            lambda e: expect.expected_beta_integral(spec, b0 + e, _CFG).value, 4e-4
        )
        hv = expect.expected_hyp_volume(spec, _CFG, method="generic").value
        worst = max(worst, abs(extrapolated - hv))
    return _bounded(worst, 1e-6)


@_check("expect.wz-identity")
def _wz_identity(quick: bool):
    top = 60 if quick else 200
    for n in range(4, top + 1):
        if expect.ideal_polytope3_via_sum(n) != expect.ideal_polytope3(n):
            return False, f"mismatch at n={n}"
    return True, f"exact agreement for 4 <= n <= {top}"


@_check("expect.simplex-consistency")
def _simplex_consistency(quick: bool):
    worst = 0.0
    for d in (2, 3, 4, 5):
        v1 = expect.ideal_simplex_volume(d, _CFG).value
        v2 = expect.expected_hyp_volume(BetaSpec(d, (-1.0,) * (d + 1)), _CFG, method="generic").value
        worst = max(worst, abs(v1 - v2))
    return _bounded(worst, 1e-8)


@_check("expect.ideal-polygon-exact")
def _ideal_polygon_exact(quick: bool):
    for n in range(3, 13):
        res = expect.expected_hyp_volume(BetaSpec(2, (-1.0,) * n), _CFG)
        if res.exact is None or res.value != (n - 2) * math.pi:
            return False, f"not exact at n={n}"
    return True, "exact (n-2)*pi for 3 <= n <= 12"


# -- mcsim --------------------------------------------------------------------

@_check("mcsim.determinism")
def _mc_determinism(quick: bool):
    cfg = SampleConfig(seed=42, n_samples=4000, streams=4)
    a = mcsim.mc_ideal_polytope3_volume(5, cfg)
    b = mcsim.mc_ideal_polytope3_volume(5, cfg)
    spec = BetaSpec(2, (0.0, 0.0, 0.0))
    c = mcsim.mc_absorption(spec, 0.0, cfg)
    d = mcsim.mc_absorption(spec, 0.0, cfg)
    ok = a == b and c == d
    return ok, "bit-identical reruns" if ok else "estimates differ between reruns"


@_check("mcsim.volume-bound")
def _mc_volume_bound(quick: bool):
    n = 6
    rng = np.random.default_rng(13)
    count = 500 if quick else 3000
    P = rng.standard_normal((count, n, 3))
    P /= np.linalg.norm(P, axis=2, keepdims=True)
    vols = mcsim._hull_volumes_bruteforce(P)
    bound = math.comb(n, 4) * 3.0 * specfun.lobachevsky(math.pi / 3.0)
    worst = float(np.nanmax(vols))
    return worst <= bound + 1e-9, f"max sampled volume {worst:.4f} <= bound {bound:.4f}"


@_check("mcsim.contains-invariance")
def _contains_invariance(quick: bool):
    rng = np.random.default_rng(14)
    for _ in range(10 if quick else 40):
        n, d = int(rng.integers(4, 9)), int(rng.integers(2, 4))
        pts = rng.standard_normal((n, d))
        x = rng.standard_normal(d) * 0.5
        base = mcsim.contains(pts, x)
        perm = rng.permutation(n)
        if mcsim.contains(pts[perm], x) != base:
            return False, "relabeling changed the result"
        centroid = pts.mean(axis=0)
        augmented = np.vstack([pts, centroid[None, :]])
        if mcsim.contains(augmented, x) != base:
            return False, "adding an interior point changed the result"
    return True, "invariant under relabeling and interior augmentation"


@_check("mcsim.gauss-bonnet-zero-variance")
def _gauss_bonnet_zero_variance(quick: bool):
    rng = np.random.default_rng(15)
    n = 5
    count = 200 if quick else 1000
    worst = 0.0
    for _ in range(count):
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        area = mcsim.hyp_area_polygon_d2(mcsim.hull_d2(pts))
        hull_size = len(mcsim.hull_d2(pts))
        worst = max(worst, abs(area - (hull_size - 2) * math.pi))
    return _bounded(worst, 1e-9)


@_check("mcsim.hull-euler-count")
def _hull_euler(quick: bool):
    rng = np.random.default_rng(16)
    for _ in range(20 if quick else 100):
        n = int(rng.integers(4, 12))
        P = rng.standard_normal((n, 3))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        if len(mcsim.hull_d3(P)) != 2 * n - 4:
            return False, f"facet count violated Euler relation for n={n}"
    return True, "triangulated hulls satisfy F = 2V - 4"


def _beta_block(rng, d: int, betas, count: int) -> np.ndarray:
    return np.stack([mcsim._sample_beta_batch(d, b, rng, count) for b in betas], axis=1)


@_check("mcsim.batched-oracles")
def _batched_oracles(quick: bool):
    """Each batched Monte-Carlo kernel against its scalar oracle."""
    rng = np.random.default_rng(17)
    reps = 1 if quick else 4
    samples = 0
    for d, n, count in ((3, 6, 50), (4, 6, 50), (4, 8, 25), (5, 7, 25)):
        count *= reps
        pts = _beta_block(rng, d, rng.choice([-1.0, -0.5, 0.0, 2.0], n), count)
        x0 = mcsim._sample_beta_batch(d, 0.0, rng, count)
        got = mcsim._inside_hull_batch(pts - x0[:, None, :])
        want = np.array([mcsim.contains(pts[s], x0[s]) for s in range(count)])
        if (got != want).any():
            return False, f"containment differs from the LP at d={d}, n={n} on {int((got != want).sum())} samples"
        samples += count
    errs = []
    for n, count in ((5, 40), (8, 20), (12, 10)):
        P = _beta_block(rng, 3, (-1.0,) * n, count * reps)
        slow = [mcsim._hull_volume_via_hull_d3(p) for p in P]
        errs.append(np.abs(mcsim._hull_volumes_bruteforce(P) - slow))
    for betas in ((-0.999,) * 6, (-1.0, -0.999, -0.5, 0.0, 2.0)):
        pts = _beta_block(rng, 2, betas, 100 * reps)
        slow = [mcsim.hyp_area_polygon_d2(mcsim.hull_d2(p)) for p in pts]
        errs.append(np.abs(mcsim._hyp_areas_d2(pts) - slow))
    worst = float(np.concatenate(errs).max())
    ok = worst <= 1e-9
    return ok, f"containment equal to the LP on {samples} samples; hull volumes and areas worst {worst:.3e} (tol 1e-09)"


# -- cli-facing output invariants ---------------------------------------------

@_check("cli.json-roundtrip")
def _json_roundtrip(quick: bool):
    from . import cli

    record = cli.output_record(
        "hypvolume", {"case": "ideal3", "n": 6}, expect.expected_hyp_volume(BetaSpec(3, (-1.0,) * 6))
    )
    text = cli.render_json(record)
    if cli.render_json(json.loads(text)) != text:
        return False, "JSON did not round-trip byte-identically"
    return True, "parse -> re-emit is byte-identical"


@_check("cli.exact-field-consistency")
def _exact_field_consistency(quick: bool):
    from . import cli

    for n in (3, 4, 5, 6):
        res = expect.polygon_beta0(n, _CFG)
        record = cli.output_record("hypvolume", {"case": "polygon-beta0", "n": n}, res)
        if "exact" in record:
            err = abs(res.exact.evaluate() - record["value"])
            if err > max(record["abs_err_est"], 1e-13):
                return False, f"exact field off by {err:.2e} at n={n}"
    return True, "exact strings match numeric values"


@_check("cli.csv-stable-layout")
def _csv_stable(quick: bool):
    from . import cli

    t1 = cli.table_text("ideal3", 4, 6, "csv")
    t2 = cli.table_text("ideal3", 4, 6, "csv")
    ok = t1 == t2 and t1.startswith("param,value,abs_err_est,exact\n") and "\r" not in t1
    return ok, "header and bytes stable" if ok else "CSV output unstable"
