"""Expectation engine for random beta polytopes in the Klein ball model.

Computes expected beta integrals E[int over hull of (1-|x|^2)^beta dx]
and expected hyperbolic volumes for n independent beta-distributed
points in dimension d.  Every such query is one subset sum,
``_subset_sum``: over the subset classes it adds up the class term
A~(t+2+s) * (t+1+s) * b~(t+s), with s the inside parameter total and t =
2*beta + d, and scales it by its own Gamma prefactor (``_prefactor``).
A hyperbolic volume is the beta integral at beta = -(d+1)/2, t = -1.  A
is a_fn, or its derivative a_prime for the removable singularity at
negative-integer exponents (the pole path, which odd-d volumes take); ~
marks abcore's normalized integrals, which carry their own points'
normalizing constants, so no class term grows with n.  ``_class_terms``
hands every integral of the classes, closed forms included, to one
``abcore._integrals`` call, which refines the others together, one step
of refinement levels at a time, with one factor kernel call per step and
kind; each integral keeps its own value and error estimate.
``theta_fn`` is the class term over 2 pi, and a
simplex (n = d+1) is the upper sum with its single class.  The
integral values and factor rows stay in abcore's one table for later
queries until ``abcore.clear_cache``; past its byte budget the oldest
are dropped first and computed again when needed.  Several families
admit exact closed forms (rational multiples of powers of pi): ideal
polytopes in dimension 3, ideal simplices in odd dimension, ideal
polygons, and uniform-in-the-disk polygons.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abcore import (  # noqa: F401  (a_fn, a_prime and b_fn: perfbench wraps these names here)
    NotRepresentableError,
    ParamMultiset,
    _as_params,
    _integrals,
    a_fn,
    a_prime,
    b_fn,
)
from .exact import PiPoly, exp_moment, poly_integral_01, poly_pow, sin_sin2_power
from .quad import QuadConfig, ValueWithError
from .specfun import _U, gamma_quotient, harmonic
from . import quad as _quad

__all__ = [
    "BetaSpec",
    "NotRepresentableError",
    "SubsetClass",
    "ExpectationResult",
    "enumerate_classes",
    "expected_beta_integral",
    "expected_hyp_volume",
    "theta_fn",
    "ideal_polytope3",
    "ideal_polytope3_via_sum",
    "alternating_harmonic_sum",
    "ideal_simplex_volume",
    "polygon_beta0",
]

# distance to a pole below which its limit is taken (beta at a negative
# integer), and below which the direct value needs a widened error band
_POLE_EXACT = 1e-12
_POLE_NEAR = 1e-6
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class BetaSpec:
    """Dimension and the distribution parameters of the n points."""

    d: int
    betas: tuple[float, ...]

    def __init__(self, d: int, betas):
        betas = tuple(float(b) for b in betas)
        if not float(d).is_integer():
            raise ValueError("BetaSpec requires an integer d")
        if d < 2:
            raise ValueError("BetaSpec requires d >= 2")
        if len(betas) < d + 1:
            raise ValueError("BetaSpec requires at least d+1 points")
        if not all(-1.0 <= b < math.inf for b in betas):
            raise ValueError("every beta parameter must be finite and >= -1")
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "betas", betas)

    @property
    def n(self) -> int:
        return len(self.betas)

    def gammas(self) -> tuple[float, ...]:
        return tuple(b + 0.5 * self.d for b in self.betas)


@dataclass(frozen=True)
class SubsetClass:
    """All subsets sharing one (inside, outside) parameter split."""

    inside: ParamMultiset
    outside: ParamMultiset
    multiplicity: int


@dataclass
class ExpectationResult:
    value: float
    abs_err_est: float
    exact: PiPoly | None
    representation: str
    pole_path: bool


def enumerate_classes(spec: BetaSpec, cardinalities) -> list[SubsetClass]:
    """Group the subset sums by multiset of parameters.

    Equal beta values are interchangeable, so a subset is determined up
    to multiplicity by how many indices it takes from each distinct
    value; the class multiplicity is the product of binomials.
    """
    cards = sorted(set(int(k) for k in cardinalities))
    if any(k < 0 or k > spec.n for k in cards):
        raise ValueError("cardinalities must lie in [0, n]")
    gammas = spec.gammas()
    groups: dict[float, int] = {}
    for g in gammas:
        groups[g] = groups.get(g, 0) + 1
    values = sorted(groups)
    counts = [groups[v] for v in values]

    out: list[SubsetClass] = []

    def recurse(idx: int, remaining: int, taken: list[int], mult: int):
        if idx == len(values):
            if remaining == 0:
                inside = []
                outside = []
                for v, m, t in zip(values, counts, taken):
                    inside.extend([2.0 * v] * t)
                    outside.extend([2.0 * v] * (m - t))
                out.append(SubsetClass(ParamMultiset(inside), ParamMultiset(outside), mult))
            return
        tail_capacity = sum(counts[idx + 1 :])
        lo = max(0, remaining - tail_capacity)
        hi = min(counts[idx], remaining)
        for t in range(lo, hi + 1):
            recurse(idx + 1, remaining - t, taken + [t], mult * math.comb(counts[idx], t))

    for k in cards:
        recurse(0, k, [], 1)
    return out


def _upper_cards(spec: BetaSpec):
    return range(spec.d + 1, spec.n + 1, 2)


def _lower_cards(spec: BetaSpec):
    return range(spec.d - 1, -1, -2)


def _pick_representation(spec: BetaSpec, representation: str) -> str:
    """The representation asked for, or under "auto" the one with fewer subsets.

    Both take the cards of the parity of d - 1, which hold 2**(n-1) subsets, so the upper count is
    that less the lower one: O(d) binomials, whatever n.
    """
    if representation in ("upper", "lower"):
        return representation
    if representation != "auto":
        raise ValueError("representation must be 'upper', 'lower' or 'auto'")
    lower_count = sum(math.comb(spec.n, k) for k in _lower_cards(spec))
    return "lower" if 2 * lower_count < 1 << (spec.n - 1) else "upper"


def _class_terms(
    t: float, splits, derivative: bool, cfg: QuadConfig, closed_forms: bool
) -> list[tuple[float, float]]:
    """A~(t+2+s) * (t+1+s) * b~(t+s) per (inside, outside) split, as (value, abs_err_est).

    s is the inside parameter total and A = a_prime when ``derivative``
    else a_fn, both normalized (~).  (t+1+s) * b~(t+s) is abcore's "b"
    integral, finite also at and near its pole t+s = -1 (ideal and
    near-ideal points).  Every integral, closed forms included, goes to
    one ``abcore._integrals`` call, in class order, A before b.
    """
    requests = []
    for inside, outside in splits:
        s = inside.total()
        requests += [("a'" if derivative else "a", t + 2.0 + s, inside), ("b", t + s, outside)]
    values = _integrals(requests, cfg, closed_forms)
    terms = []
    for a, b in zip(values[::2], values[1::2]):
        terms.append((a.value * b.value, a.abs_err_est * abs(b.value) + abs(a.value) * b.abs_err_est))
    return terms


def _subset_sum(
    spec: BetaSpec, beta: float, pole: bool, rep: str, cfg: QuadConfig, closed_forms: bool
) -> tuple[float, float]:
    """The subset sum behind every query at exponent beta, as (value, abs_err_est).

    Sums the multiplicity times the normalized class term at t = 2*beta + d
    over the subset classes of the representation, A = a_prime on the pole
    path (beta a negative integer): the upper form is prefactor * sum, the
    lower one prefactor * (pi - sum), the prefactor ``_prefactor(d, beta,
    pole)``.  The error bar adds to the class terms' bars the rounding of
    the sum (n_terms * eps * sum |m * term|), in the lower representation
    that of pi - sum, and the prefactor's bound.  Raises
    NotRepresentableError, before any integral runs, when a multiplicity
    is not finite, and when a class term is not.
    """
    prefactor, rel = _prefactor(spec.d, beta, pole)
    classes = enumerate_classes(spec, _upper_cards(spec) if rep == "upper" else _lower_cards(spec))
    try:
        mults = [float(cls.multiplicity) for cls in classes]
    except OverflowError:
        raise NotRepresentableError(f"a multiplicity of the {rep} representation exceeds the float range") from None
    splits = [(cls.inside, cls.outside) for cls in classes]
    vals, errs = [], []
    for m, (value, err) in zip(mults, _class_terms(2.0 * beta + spec.d, splits, pole, cfg, closed_forms)):
        vals.append(m * value)
        errs.append(m * err)
    if not all(map(math.isfinite, vals)):
        raise NotRepresentableError("a class term, or its multiple, exceeds the float range")
    total = math.fsum(vals)
    err = math.fsum(errs) + len(vals) * _EPS * math.fsum(map(abs, vals))
    if rep == "upper":
        value, err = prefactor * total, abs(prefactor) * err
    else:
        value, err = prefactor * (math.pi - total), abs(prefactor) * (err + _EPS * (math.pi + abs(total)))
    return value, err + abs(value) * rel


def theta_fn(x: float, y, z, cfg: QuadConfig | None = None) -> ValueWithError:
    """Normalized class term (1/2pi) * prod(c) * a(...) * (linear) * b(...), that is (1/2pi) * a~ * (linear) * b~.

    y and z are the inside and outside gammas; the term is the class term
    of ``_class_terms`` at t = 2x with parameters 2y and 2z, so it is
    finite also at the b-pole x = -1/2 with no inside parameters.
    """
    y = _as_params(y)
    z = _as_params(z)
    cfg = cfg or QuadConfig()
    if x < -0.5:
        raise ValueError("theta_fn requires x >= -1/2")
    ((value, err),) = _class_terms(2.0 * x, [(y.scaled(2.0), z.scaled(2.0))], False, cfg, closed_forms=True)
    return ValueWithError(value / (2.0 * math.pi), max(err / (2.0 * math.pi), cfg.abs_tol), "theta")


def _prefactor(d: int, beta: float, pole: bool) -> tuple[float, float]:
    """pi**(d/2 - 1) Gamma(x)/Gamma(x + d/2), x = beta + 1, or on the pole path (beta = -k) twice its residue
    (d/d beta = 2 d/dt), as a ``gamma_quotient`` (value, rel); rel adds the roundings of pi's power."""
    if pole:
        # Gamma(x)'s residue is (-1)**(k-1)/(k-1)!, and Gamma(d/2 + 1 - k) a factorial at even d and sqrt(pi)
        # times the half-integers below it at odd d (DLMF 5.4.6): pi's power is d//2 - 1 in both
        k = -round(beta)
        den = [float(i) for i in range(1, k)] + [i + 1.0 - 0.5 * (d % 2) for i in range((d + 1) // 2 - k)]
        value, rel = gamma_quotient((-1.0) ** (k - 1) * 2.0 * math.pi ** (d // 2 - 1.0), den=den)
        return value, rel + abs(d // 2 - 1.0) * _U
    # Gamma(x)/Gamma(x + d/2) is over the x + i, i < k, and the x + 1/2 + i, k <= i < d//2, and at odd d
    # over R(x + k), k the steps to a positive argument
    k = d // 2 if d % 2 == 0 else (0 if beta + 1.0 > 0.0 else math.floor(-(beta + 1.0)) + 1)
    den = [beta + (1.0 + i) for i in range(k)] + [beta + (1.5 + i) for i in range(k, d // 2)]
    value, rel = gamma_quotient(math.pi ** (0.5 * d - 1.0), den=den, down=beta + (1.0 + k) if d % 2 else None)
    return value, rel + abs(0.5 * d - 1.0) * _U


def _beta_integral(
    spec: BetaSpec, beta: float, cfg: QuadConfig, representation: str, closed_forms: bool
) -> ExpectationResult:
    """``expected_beta_integral`` on the closed domain beta >= -(d+1)/2: its bound is the volume's exponent."""
    rep = _pick_representation(spec, representation)
    nearest = round(beta)
    gap = abs(beta - nearest)
    if nearest <= -1 and gap <= _POLE_EXACT:
        value, err = _subset_sum(spec, nearest, True, "upper", cfg, closed_forms)
        return ExpectationResult(value, err, None, "upper", True)
    value, err = _subset_sum(spec, beta, False, rep, cfg, closed_forms)
    if nearest <= -1 and gap < _POLE_NEAR:
        ref, ref_err = _subset_sum(spec, nearest, True, "upper", cfg, closed_forms)
        err = err + abs(value - ref) + ref_err
    return ExpectationResult(value, err, None, rep, False)


def expected_beta_integral(
    spec: BetaSpec,
    beta: float,
    cfg: QuadConfig | None = None,
    representation: str = "auto",
    closed_forms: bool = True,
) -> ExpectationResult:
    """Expected integral of (1 - |x|^2)**beta over the random hull.

    Requires beta > -(d+1)/2.  At negative integers the derivative path
    replaces the plain formula, whose singularity there is removable;
    within (1e-12, 1e-6) of a negative integer the plain value is kept
    but its error bound is widened by the disagreement with the
    derivative path at the rounded exponent.
    """
    if not -0.5 * (spec.d + 1) < beta < math.inf:
        raise ValueError("expected_beta_integral requires a finite beta > -(d+1)/2")
    return _beta_integral(spec, beta, cfg or QuadConfig(), representation, closed_forms)


def expected_hyp_volume(
    spec: BetaSpec,
    cfg: QuadConfig | None = None,
    method: str = "auto",
    representation: str = "auto",
    closed_forms: bool = True,
) -> ExpectationResult:
    """Expected hyperbolic volume of the random beta polytope: the beta integral at beta = -(d+1)/2.

    method="auto" returns exact values on the two special families (d=2
    and d=3 with all points ideal); method="generic" always runs the
    subset sum, which is the cross-validation path.  That exponent is a
    negative integer at odd d, so odd d takes the pole path, which always
    sums the upper representation.
    """
    if method not in ("auto", "generic"):
        raise ValueError("method must be 'auto' or 'generic'")
    rep = _pick_representation(spec, representation)
    d = spec.d
    all_ideal = all(b == -1.0 for b in spec.betas)
    if method == "auto" and all_ideal and d in (2, 3):
        exact = PiPoly({1: Fraction(spec.n - 2)}) if d == 2 else ideal_polytope3(spec.n)
        value = exact.evaluate()  # correctly rounded: the bar is the rounding's
        return ExpectationResult(value, _U * abs(value), exact, "lower" if d == 2 else "upper", d == 3)
    return _beta_integral(spec, -0.5 * (d + 1), cfg or QuadConfig(), rep, closed_forms)


# -- exact families ---------------------------------------------------------

def ideal_polytope3(n: int) -> PiPoly:
    """Exact expected hyperbolic volume for n ideal points in dimension 3."""
    if n < 4:
        raise ValueError("requires n >= 4")
    return PiPoly({1: Fraction(n, 2) - harmonic(n - 1)})


def ideal_polytope3_via_sum(n: int) -> PiPoly:
    """Same value through the alternating binomial sum, fully in rationals."""
    if n < 4:
        raise ValueError("requires n >= 4")
    return PiPoly({1: alternating_harmonic_sum(n)})


def alternating_harmonic_sum(n: int) -> Fraction:
    """Exact sum of (-1)^l C(n,2l) (l-1)! (n-l-1)! / (n-1)! for l = 2..n//2."""
    if n < 2:
        raise ValueError("requires n >= 2")
    acc = Fraction(0)
    for ell in range(2, n // 2 + 1):
        acc += (
            Fraction((-1) ** ell)
            * math.comb(n, 2 * ell)
            * Fraction(math.factorial(ell - 1) * math.factorial(n - ell - 1), math.factorial(n - 1))
        )
    return acc


def _ideal_simplex_poly(d: int) -> list[Fraction]:
    """Integrand polynomial for the odd-dimension ideal simplex."""
    top = (d - 3) // 2
    return [Fraction((-1) ** j * math.comb(d - 2, top - j)) for j in range(top + 1)]


def _ideal_simplex_odd_exact(d: int) -> PiPoly:
    m = (d - 1) // 2
    integral = poly_integral_01(poly_pow(_ideal_simplex_poly(d), d + 1), extra_power=m)
    half_binom = math.comb(d * d - d - 2, (d * d - d - 2) // 2)
    coeff = Fraction(2) / (math.factorial(m) * half_binom) * integral
    return PiPoly({m: coeff})


@functools.lru_cache(maxsize=64)  # one entry per even dimension asked for
def _sinh_pow_series(p: int) -> tuple[float, ...]:
    """The coefficients c_j, j < 26, of integral_0^t sinh(u)**p du = sum c_j t**(p+1+2j)."""
    base = [Fraction(0)] * 52
    base[::2] = [Fraction(1, math.factorial(2 * i + 1)) for i in range(26)]  # sinh(u)/u series
    powed = poly_pow(base, p)
    return tuple(float(powed[k] / (p + 1 + k)) for k in range(0, min(52, len(powed)), 2))


def _ideal_simplex_even_integrand(d: int):
    """Stable even integrand (inner sinh-power integral)^(d+1) / sinh^(d(d-1)-1).

    Works in log space with the inner integral scaled by exp(-p t) 2**p,
    which keeps every intermediate representable; the exponents satisfy
    (d+1)p - (d(d-1)-1) = -1, so the value decays like exp(-t).
    """
    p = d - 2
    dd = d * (d - 1) - 1
    log2 = math.log(2.0)
    binom = [math.comb(p, k) for k in range(p + 1)]
    series = _sinh_pow_series(p)

    def f(t):
        t = np.abs(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        pos = t > 0.0
        tp = t[pos]
        log_scaled = np.empty_like(tp)
        small = tp < 0.5
        if small.any():
            # positive power series of the inner integral: no cancellation
            ts = tp[small]
            acc = np.zeros_like(ts)
            tpow = ts ** (p + 1)
            t2 = ts * ts
            for c in series:
                acc += c * tpow
                tpow = tpow * t2
            log_scaled[small] = np.log(acc) - p * ts + p * log2
        big = ~small
        if big.any():
            tb = tp[big]
            acc = np.zeros_like(tb)
            emp = np.exp(-p * tb)
            for k, ck in enumerate(binom):
                ex = p - 2 * k
                if ex == 0:
                    acc += ck * (-1.0) ** k * tb * emp
                else:
                    acc += ck * (-1.0) ** k * (np.exp(-2.0 * k * tb) - emp) / ex
            log_scaled[big] = np.log(np.maximum(acc, 1e-300))
        expo = -tp + (d + 1) * log_scaled + log2 - dd * np.log1p(-np.exp(-2.0 * tp))
        out[pos] = np.exp(expo)
        return out

    return f


def ideal_simplex_volume(d: int, cfg: QuadConfig | None = None) -> ExpectationResult:
    """Expected hyperbolic volume of the simplex on d+1 ideal points.

    Odd d reduces to an exact rational polynomial integral times
    pi**((d-1)/2); even d is a single real-line quadrature with an
    exactly evaluated gamma-ratio prefactor.
    """
    cfg = cfg or QuadConfig()
    if d < 2:
        raise ValueError("requires d >= 2")
    if d % 2 == 1:
        exact = _ideal_simplex_odd_exact(d)
        value = exact.evaluate()  # correctly rounded: the bar is the rounding's
        return ExpectationResult(value, _U * abs(value), exact, "upper", True)
    from .exact import gamma_half_ratio

    r1, s1 = gamma_half_ratio(d, d - 1)
    r2, s2 = gamma_half_ratio(d * (d - 1), d * (d - 1) - 1)
    frac = Fraction(2 ** (1 + d // 2), math.prod(range(d - 1, 0, -2))) * r1 ** (d + 1) * r2
    s_total = s1 * (d + 1) + s2 - 2  # extra -2 for the leading 1/pi
    pref = float(frac) * math.pi ** (0.5 * s_total)
    res = _quad.integrate_real_line(_ideal_simplex_even_integrand(d), cfg)
    value = pref * res.value
    # the roundings of frac, of pi (times the exponent), of the power, of pref's product and of the value's
    rounding = (4.0 + abs(0.5 * s_total)) * _U * abs(value)
    return ExpectationResult(value, abs(pref) * res.abs_err_est + rounding, None, "upper", False)


def polygon_beta0(n: int) -> ExpectationResult:
    """Expected hyperbolic area for n uniform points in the unit disk.

    Exact: -2 pi + 2**(n-1) n pi**-(n-2) b_{n-1}(1; 2), where the
    segment integral b is a finite sum of exact moments
    (``_b_ones_param2_exact``).  The value is that sum correctly rounded,
    and its bar the rounding's, 2**-53 |value|.
    """
    if n < 3:
        raise ValueError("requires n >= 3")
    b_exact = _b_ones_param2_exact(n - 1)
    total = PiPoly({1: Fraction(-2)}) + b_exact.shift(-(n - 2)) * Fraction(2 ** (n - 1) * n)
    value = total.evaluate()  # correctly rounded
    return ExpectationResult(value, _U * abs(value), total, "lower", False)


@functools.lru_cache(maxsize=256)  # one entry per polygon size asked for
def _b_ones_param2_exact(m: int) -> PiPoly:
    """Exact segment integral with m repeated parameters equal to 2 at alpha 1.

    b = integral of cos(y) F_2(y)**m over (-pi/2, pi/2), with
    F_2(y) = pi/4 + y/2 + sin(2y)/4.  After u = y + pi/2 it is the
    integral of sin(u) (u/2 - sin(2u)/4)**m over (0, pi), expanded
    binomially into sum_k C(m, k) 2**(k-m) (-1/4)**k times the integral
    of u**(m-k) sin(u) sin(2u)**k, which is a sum of ``exp_moment`` terms
    over the frequencies of ``sin_sin2_power(k)``.
    """
    parts = ({}, {})  # the real and imaginary coefficient of each power of pi
    for k in range(m + 1):
        weight = Fraction(math.comb(m, k) * (-1) ** k, 2 ** (m + k))
        for j, phase, c in sin_sin2_power(k):
            wc = weight * c
            for power, m_phase, m_c in exp_moment(m - k, j):
                turn = (phase + m_phase) % 4  # the term is wc * m_c * i**turn
                acc = parts[turn % 2]
                term = wc * m_c
                acc[power] = acc.get(power, 0) + (term if turn < 2 else -term)
    if any(parts[1].values()):
        raise ArithmeticError("imaginary part did not cancel in exact integration")
    return PiPoly(parts[0])

