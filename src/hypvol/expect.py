"""Expectation engine for random beta polytopes in the Klein ball model.

Computes expected beta integrals E[int over hull of (1-|x|^2)^beta dx]
and expected hyperbolic volumes for n independent beta-distributed
points in dimension d.  Every such query is one subset sum,
``_subset_sum``: over the subset classes it adds up the class term
A(t+2+s) * (t+1+s) * b(t+s), with s the inside parameter total, t =
2*beta + d for beta integrals and t = -1 for hyperbolic volumes.  A is
a_fn, or its derivative a_prime for the removable singularity at
negative-integer exponents (the pole path) and for odd-d volumes.
``_class_terms`` takes the closed forms where they apply and hands all
the other integrals of the classes to one ``abcore._integrals`` call,
which refines them together, one level at a time, with one factor
kernel call per level and kind; each integral keeps its own value and
error estimate.  ``theta_fn`` is the class term normalized, and a
simplex (n = d+1) is the upper sum with its single class.  Factor rows
stay in abcore's table for later queries until ``abcore.clear_cache``
(rows past its byte budget are dropped oldest first and computed again
when needed).  Several families admit exact closed forms (rational
multiples of powers of pi): ideal polytopes in dimension 3, ideal
simplices in odd dimension, ideal polygons, and uniform-in-the-disk
polygons.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .abcore import (  # noqa: F401  (a_fn, a_prime and b_fn: perfbench wraps these names here)
    _REL_CLOSED,
    ParamMultiset,
    _as_params,
    _closed_form,
    _integrals,
    a_fn,
    a_prime,
    b_fn,
    limit_alpha_plus_one_times_b,
)
from .exact import PiPoly, exp_moment, poly_integral_01, poly_pow, sin_sin2_power
from .quad import QuadConfig, ValueWithError
from .specfun import LOG_GAMMA_ERR, c_one_dim, gamma_real, harmonic, log_gamma
from . import quad as _quad

__all__ = [
    "BetaSpec",
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
    "poly_log_cos_check",
]

# distance to a pole below which its limit is taken (beta at a negative
# integer), and below which the direct value needs a widened error band;
# _POLE_NEAR is also the |t+1+s| below which _class_terms takes the b-pole
# limit (see its docstring)
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


def _c_product(gammas) -> tuple[float, float]:
    """prod_i Gamma(g_i + 1) / (sqrt(pi) Gamma(g_i + 1/2)), as (value, relative error bound).

    The bound covers the error of each log-gamma, the rounding of their
    2n-term sum (2n * eps relative to each), and of exp, the pi power and
    the product.
    """
    acc, scale = 0.0, 0.0
    for g in gammas:
        hi, lo = log_gamma(g + 1.0), log_gamma(g + 0.5)
        acc += hi - lo
        scale += max(1.0, abs(hi)) + max(1.0, abs(lo))
    n = len(gammas)
    rel = (LOG_GAMMA_ERR + 2 * n * _EPS) * scale + (n + 3) * _EPS
    return math.exp(acc) * math.pi ** (-0.5 * n), rel


def _pick_representation(spec: BetaSpec, representation: str) -> str:
    if representation in ("upper", "lower"):
        return representation
    if representation != "auto":
        raise ValueError("representation must be 'upper', 'lower' or 'auto'")
    upper_count = sum(math.comb(spec.n, k) for k in _upper_cards(spec))
    lower_count = sum(math.comb(spec.n, k) for k in _lower_cards(spec))
    return "lower" if lower_count < upper_count else "upper"


def _class_terms(
    t: float, splits, derivative: bool, cfg: QuadConfig, closed_forms: bool
) -> list[tuple[float, float]]:
    """A(t+2+s) * (t+1+s) * b(t+s) per (inside, outside) split, as (value, abs_err_est).

    s is the inside parameter total and A = a_prime when ``derivative``
    else a_fn.  The integrals without a closed form go to one
    ``abcore._integrals`` call, in class order, A before b.  Within
    _POLE_NEAR of the b-pole (linear factor near 0, e.g. d = 2 volumes
    with near-ideal inside points) the b-integrand's mass sits below the
    depth of double-precision nodes, so the product (t+1+s) * b takes its
    limit at the pole, with an error band of 100 * |t+1+s| relative on
    top of the closed-form error.
    """
    requests = []

    def integral(kind, alpha, params):
        """The closed form's (value, abs_err_est), or the index of a new request."""
        closed = _closed_form(kind, alpha, params) if closed_forms else None
        if closed is None:
            requests.append((kind, alpha, params))
            return len(requests) - 1
        return closed.value, closed.abs_err_est

    pending = []
    for inside, outside in splits:
        s = inside.total()
        lin = t + 1.0 + s
        a = integral("a'" if derivative else "a", t + 2.0 + s, inside)
        b = None if abs(lin) < _POLE_NEAR else integral("b", t + s, outside)
        pending.append((a, lin, b, outside))
    values = _integrals(requests, cfg)
    terms = []
    for a, lin, b, outside in pending:
        a_value, a_err = values[a] if isinstance(a, int) else a
        if b is None:
            prod = limit_alpha_plus_one_times_b(outside)
            prod_err = abs(prod) * (_REL_CLOSED + 100.0 * abs(lin))
        else:
            b_value, b_err = values[b] if isinstance(b, int) else b
            prod = lin * b_value
            prod_err = abs(lin) * b_err
        terms.append((a_value * prod, a_err * abs(prod) + abs(a_value) * prod_err))
    return terms


def _subset_sum(
    spec: BetaSpec, t: float, derivative: bool, rep: str, prefactor: float, cfg: QuadConfig, closed_forms: bool
) -> tuple[float, float]:
    """The subset sum behind every query, as (value, abs_err_est).

    Sums the multiplicity times the class term over the subset classes
    of the representation.  The error bar adds to the class terms' bars
    the rounding of the sum (n_terms * eps * sum |m * term|), the error
    of ``_c_product`` and, in the lower representation, the rounding of
    pi - cprod * sum.
    """
    classes = enumerate_classes(spec, _upper_cards(spec) if rep == "upper" else _lower_cards(spec))
    splits = [(cls.inside, cls.outside) for cls in classes]
    vals, errs = [], []
    for cls, (value, err) in zip(classes, _class_terms(t, splits, derivative, cfg, closed_forms)):
        m = float(cls.multiplicity)
        vals.append(m * value)
        errs.append(m * err)
    total = math.fsum(vals)
    cprod, cprod_rel = _c_product(spec.gammas())
    err = math.fsum(errs) + len(vals) * _EPS * math.fsum(map(abs, vals)) + abs(total) * cprod_rel
    if rep == "upper":
        value = prefactor * cprod * total
        err = abs(prefactor) * cprod * err
    else:
        value = prefactor * (math.pi - cprod * total)
        err = abs(prefactor) * (cprod * err + _EPS * (math.pi + cprod * abs(total)))
    return value, err + 1e-15 * abs(value)


def theta_fn(x: float, y, z, cfg: QuadConfig | None = None, closed_forms: bool = True) -> ValueWithError:
    """Normalized class term (1/2pi) * prod(c) * a(...) * (linear) * b(...).

    y and z are the inside and outside gammas; the term is the class term
    of ``_class_terms`` at t = 2x with parameters 2y and 2z, so it follows
    the same b-pole rule.
    """
    y = _as_params(y)
    z = _as_params(z)
    cfg = cfg or QuadConfig()
    if x < -0.5:
        raise ValueError("theta_fn requires x >= -1/2")
    pref = 1.0 / (2.0 * math.pi)
    for w in (*y, *z):
        pref *= c_one_dim(w - 0.5)
    ((value, err),) = _class_terms(2.0 * x, [(y.scaled(2.0), z.scaled(2.0))], False, cfg, closed_forms)
    return ValueWithError(pref * value, max(abs(pref) * err, cfg.abs_tol), "theta")


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
    cfg = cfg or QuadConfig()
    if not -0.5 * (spec.d + 1) < beta < math.inf:
        raise ValueError("expected_beta_integral requires a finite beta > -(d+1)/2")
    rep = _pick_representation(spec, representation)
    d = spec.d
    nearest = round(beta)
    gap = abs(beta - nearest)

    def pole_path():
        k = -int(nearest)
        pole = -float(k)
        prefactor = (
            2.0
            * math.pi ** (0.5 * d - 1.0)
            / math.exp(log_gamma(pole + 0.5 * d + 1.0))
            * (-1.0) ** (k - 1)
            / math.factorial(k - 1)
        )
        return _subset_sum(spec, 2.0 * pole + d, True, "upper", prefactor, cfg, closed_forms)

    if nearest <= -1 and gap <= _POLE_EXACT:
        value, err = pole_path()
        return ExpectationResult(value, err, None, "upper", True)
    prefactor = (
        math.pi ** (0.5 * d - 1.0) * gamma_real(beta + 1.0) / math.exp(log_gamma(0.5 * d + beta + 1.0))
    )
    value, err = _subset_sum(spec, 2.0 * beta + d, False, rep, prefactor, cfg, closed_forms)
    if nearest <= -1 and gap < _POLE_NEAR:
        ref, ref_err = pole_path()
        err = err + abs(value - ref) + ref_err
    return ExpectationResult(value, err, None, rep, False)


def _double_factorial(m: int) -> float:
    return float(math.prod(range(m, 0, -2))) if m > 0 else 1.0


def expected_hyp_volume(
    spec: BetaSpec,
    cfg: QuadConfig | None = None,
    method: str = "auto",
    representation: str = "auto",
    closed_forms: bool = True,
) -> ExpectationResult:
    """Expected hyperbolic volume of the random beta polytope.

    method="auto" returns exact values on the two special families
    (d=2 and d=3 with all points ideal); method="generic" always runs
    the subset-sum formulas, which is the cross-validation path.  Odd d
    always sums the upper representation.
    """
    cfg = cfg or QuadConfig()
    if method not in ("auto", "generic"):
        raise ValueError("method must be 'auto' or 'generic'")
    rep = _pick_representation(spec, representation)
    d = spec.d
    all_ideal = all(b == -1.0 for b in spec.betas)
    if method == "auto" and all_ideal and d == 2:
        exact = PiPoly({1: Fraction(spec.n - 2)})
        return ExpectationResult(exact.evaluate(), 0.0, exact, "lower", False)
    if method == "auto" and all_ideal and d == 3:
        exact = ideal_polytope3(spec.n)
        return ExpectationResult(exact.evaluate(), 0.0, exact, "upper", True)
    if d % 2 == 0:
        prefactor = (-2.0 * math.pi) ** (d // 2) / (math.pi * _double_factorial(d - 1))
        value, err = _subset_sum(spec, -1.0, False, rep, prefactor, cfg, closed_forms)
        return ExpectationResult(value, err, None, rep, False)
    half = (d - 1) // 2
    prefactor = 2.0 * math.pi ** (half - 1.0) * (-1.0) ** half / math.factorial(half)
    value, err = _subset_sum(spec, -1.0, True, "upper", prefactor, cfg, closed_forms)
    return ExpectationResult(value, err, None, "upper", True)


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


def _sinh_pow_series(p: int, terms: int = 26) -> list[float]:
    """Coefficients c_j of integral_0^t sinh(u)**p du = sum c_j t**(p+1+2j)."""
    base = [Fraction(0)] * (2 * terms)
    for i in range(terms):
        base[2 * i] = Fraction(1, math.factorial(2 * i + 1))  # sinh(u)/u series
    powed = poly_pow(base, p)
    out = []
    for j in range(terms):
        idx = 2 * j
        if idx < len(powed):
            out.append(float(powed[idx] / (p + 1 + idx)))
    return out


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
        value = exact.evaluate()
        return ExpectationResult(value, 1e-15 * abs(value), exact, "upper", True)
    from .exact import gamma_half_ratio

    r1, s1 = gamma_half_ratio(d, d - 1)
    r2, s2 = gamma_half_ratio(d * (d - 1), d * (d - 1) - 1)
    frac = Fraction(2 ** (1 + d // 2)) * r1 ** (d + 1) * r2
    s_total = s1 * (d + 1) + s2 - 2  # extra -2 for the leading 1/pi
    pref = (
        float(frac)
        / _double_factorial(d - 1)
        * math.pi ** (0.5 * s_total)
    )
    res = _quad.integrate_real_line(_ideal_simplex_even_integrand(d), cfg)
    value = pref * res.value
    return ExpectationResult(value, abs(pref) * res.abs_err_est + 1e-15 * abs(value), None, "upper", False)


def polygon_beta0(n: int, cfg: QuadConfig | None = None) -> ExpectationResult:
    """Expected hyperbolic area for n uniform points in the unit disk.

    Exact: -2 pi + 2**(n-1) n pi**-(n-2) b_{n-1}(1; 2), where the
    segment integral b is a finite sum of exact moments
    (``_b_ones_param2_exact``).
    """
    if n < 3:
        raise ValueError("requires n >= 3")
    b_exact = _b_ones_param2_exact(n - 1)
    total = PiPoly({1: Fraction(-2)}) + b_exact.shift(-(n - 2)) * Fraction(2 ** (n - 1) * n)
    value = total.evaluate()
    return ExpectationResult(value, 1e-14 * abs(value), total, "lower", False)


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


def poly_log_cos_check(q: int, coeffs) -> tuple[float, float]:
    """Both sides of the log-cos moment identity for a rational polynomial Q.

    Left: quadrature of exp(2iq theta) Q(exp(2i theta)) log(cos theta)
    over (-pi/2, pi/2).  Right: (-1)**(q+1) (pi/2) * integral of
    t**(q-1) Q(-t) over (0, 1), exact.  Returns (left, right).
    """
    if q < 1:
        raise ValueError("requires q >= 1")
    coeffs = [Fraction(c) for c in coeffs]
    cfg = QuadConfig()
    left_parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        m = q + k
        # cos(2m theta) log cos theta over (-pi/2, pi/2), substituted to
        # put the log singularity at 0: theta = pi/2 - t
        f = lambda t, mm=m: np.cos(2 * mm * (0.5 * math.pi - t)) * np.log(np.sin(t))
        res = _quad.integrate_finite(f, 0.0, 0.5 * math.pi, cfg)
        left_parts.append(float(c) * 2.0 * res.value)
    left = math.fsum(left_parts)
    acc = Fraction(0)
    for k, c in enumerate(coeffs):
        acc += c * Fraction((-1) ** k, q + k)
    right = PiPoly({1: Fraction((-1) ** (q + 1), 2) * acc}).evaluate()
    return left, right
