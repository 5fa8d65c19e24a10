"""Scalar special functions.

Gamma machinery, the one-dimensional normalizing constants, the
cos-power primitive on the real segment and its cosh-power counterpart
on the imaginary axis, the non-regularized incomplete beta function,
binomial polynomials with odd-parameter structure, exact harmonic
numbers, and the log-sine integral used as an independent oracle for
ideal tetrahedra in dimension 3.

All functions are pure; array arguments are supported where noted.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import quad
from .exact import zeta_even_over_pi_power

__all__ = [
    "log_gamma",
    "gamma_fn",
    "c_one_dim",
    "c_d_beta",
    "inc_beta",
    "f_real",
    "f_imag",
    "p_m_poly",
    "harmonic",
    "lobachevsky",
]

# pi/2 split into high and low doubles; PIO2_HI + PIO2_LO carries ~32
# extra bits, enough to compute cos near +-pi/2 at full relative accuracy.
_PIO2_HI = 1.5707963267948966
_PIO2_LO = 6.123233995736766e-17


def cos_near_half_pi(x):
    """cos(x) with full relative accuracy near +-pi/2 (array-capable)."""
    x = np.abs(np.asarray(x, dtype=float))
    s = (_PIO2_HI - x) + _PIO2_LO
    return np.where(x > 1.0, np.sin(s), np.cos(np.minimum(x, 1.0)))


# |log_gamma(x) - log Gamma(x)| <= LOG_GAMMA_ERR * max(1, |log Gamma(x)|);
# measured within 1.4e-15 against 40-digit mpmath on (0, 200]
LOG_GAMMA_ERR = 2e-15


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0, from the C library (``math.lgamma``).

    Accurate to ``LOG_GAMMA_ERR * max(1, |log Gamma(x)|)``.
    """
    if not x > 0:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0."""
    return math.exp(log_gamma(x))


def gamma_real(x: float) -> float:
    """Gamma(x) for any non-pole real x, via reflection for x <= 0."""
    if x > 0:
        return math.exp(log_gamma(x))
    r = x - round(x)
    if r == 0.0:
        raise ValueError("gamma_real is undefined at non-positive integers")
    sin_pi_x = math.sin(math.pi * r) * (-1.0) ** (round(x) % 2)
    return math.pi / (sin_pi_x * math.exp(log_gamma(1.0 - x)))


def c_one_dim(beta: float) -> float:
    """Normalizing constant Gamma(beta + 3/2) / (sqrt(pi) Gamma(beta + 1))."""
    if not beta > -1.0:
        raise ValueError("c_one_dim requires beta > -1")
    return math.exp(log_gamma(beta + 1.5) - log_gamma(beta + 1.0)) / math.sqrt(math.pi)


def c_d_beta(d: int, beta: float) -> float:
    """Normalizing constant Gamma(d/2 + beta + 1) / (pi**(d/2) Gamma(beta + 1))."""
    if d < 1:
        raise ValueError("c_d_beta requires d >= 1")
    if not beta > -1.0:
        raise ValueError("c_d_beta requires beta > -1")
    return math.exp(log_gamma(0.5 * d + beta + 1.0) - log_gamma(beta + 1.0) - 0.5 * d * math.log(math.pi))


# -- incomplete beta: continued fraction (modified Lentz), vectorized --

_FPMIN = 1e-300
_CF_EPS = 1e-16
_EPS = sys.float_info.epsilon
_CF_MAX_ITER = 500


def _betacf(p, q, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta; x below the swap point.

    p and q are scalars, or (k, 1) columns against the row x (result
    (k, len(x))).  Each row stops at the iteration where the fraction for
    its own p and q alone would stop, so every row is the same in every
    bit as a one-row call.
    """
    if np.size(p) == 1 and np.ndim(p) == 2:  # one row runs on Python floats, which are cheaper
        return _betacf(float(p[0, 0]), float(q[0, 0]), x)[None, :]
    qab, qap, qam = p + q, p + 1.0, p - 1.0
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    c = np.ones_like(d)
    h = d.copy()
    out = np.empty_like(h)
    rows = np.arange(len(h)) if h.ndim == 2 else ...  # the rows still iterating
    done = np.zeros(h.shape, dtype=bool)
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (q - m) * x / ((qam + m2) * (p + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        h *= d * c
        aa = -(p + m) * (qab + m) * x / ((p + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
        c = 1.0 + aa / c
        np.copyto(c, _FPMIN, where=np.abs(c) < _FPMIN)
        d = 1.0 / d
        delta = d * c
        h *= delta
        done |= np.abs(delta - 1.0) < _CF_EPS
        if done.all():
            break
        if h.ndim == 2:  # drop the rows that have stopped
            stop = done.all(axis=1)
            if stop.any():
                out[rows[stop]] = h[stop]
                go = ~stop
                state = (rows, p, q, qab, qap, qam, c, d, h, done)
                rows, p, q, qab, qap, qam, c, d, h, done = (v[go] for v in state)
    out[rows] = h
    return out


def complete_beta_rel_err(p: float, q: float) -> float:
    """Relative error bound of the complete B(p, q) that _inc_beta_parts uses.

    That value is exp(log_gamma(p) + log_gamma(q) - log_gamma(p + q)).
    The bound covers the error of each log-gamma (LOG_GAMMA_ERR), the
    rounding of p + q and of the two additions (2 eps relative to each
    term's magnitude), and the rounding of exp and of one more product.
    """
    scale = sum(max(1.0, abs(log_gamma(x))) for x in (p, q, p + q))
    return (LOG_GAMMA_ERR + 2 * _EPS) * scale + 3 * _EPS


def _inc_beta_parts(z: np.ndarray, zc: np.ndarray, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Non-regularized B_z(p, q) and B_zc(q, p), given z and an accurately computed zc = 1-z.

    p and q are scalars, or columns with the same p/(p+q) in every row
    (as when p is q), one output row each.  Each half takes the continued
    fraction at its own argument below the swap point and at the
    complement above it (Numerical Recipes ``betai``).  As
    B_zc(q, p) = B(p, q) - B_z(p, q) (DLMF 8.17.4), the two halves need the
    same fraction wherever one swaps and the other does not, and evaluate
    it once there.
    """
    pa, qa = np.broadcast_arrays(p, q)
    pairs = zip(pa.ravel().tolist(), qa.ravel().tolist())
    complete = np.reshape([math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b)) for a, b in pairs], pa.shape)
    interior = (z > 0.0) & (zc > 0.0)
    fractions = {}

    def fraction(x, xc, a, b, mask):
        # a B_x(a, b) term: x**a xc**b / a times the fraction at x
        key = (x is z, mask.tobytes())
        if key not in fractions:
            xm = x[mask]
            front = np.exp(a * np.log(xm) + b * np.log(xc[mask])) / a
            fractions[key] = front * _betacf(a, b, xm)
        return fractions[key]

    halves = []
    for x, xc, a, b in ((z, zc, p, q), (zc, z, q, p)):
        out = np.zeros(np.broadcast_shapes(np.shape(a), x.shape))
        swap = interior & (x > np.ravel(a / (a + b))[0])
        direct = interior & ~swap
        if direct.any():
            out[..., direct] = fraction(x, xc, a, b, direct)
        if swap.any():
            out[..., swap] = complete - fraction(xc, x, b, a, swap)
        out[..., xc <= 0.0] = complete
        halves.append(out)
    return tuple(halves)


def inc_beta(z, p: float, q: float):
    """Incomplete beta integral of t**(p-1) (1-t)**(q-1) from 0 to z.

    Non-regularized; z may be a scalar or an array in [0, 1].  Relative
    error is ~1e-14, comfortably within the 1e-12 contract, with the
    symmetry swap applied for z beyond p/(p+q).
    """
    if not (p > 0 and q > 0):
        raise ValueError("inc_beta requires p, q > 0")
    za = np.asarray(z, dtype=float)
    if np.any((za < 0.0) | (za > 1.0)):
        raise ValueError("inc_beta requires 0 <= z <= 1")
    out = _inc_beta_parts(np.atleast_1d(za), np.atleast_1d(1.0 - za), p, q)[0]
    return float(out[0]) if za.ndim == 0 else out.reshape(za.shape)


_ROW_BLOCK = 4096  # parameters x abscissae per kernel block


def _f_real_from_z(beta, z: np.ndarray, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows 2**beta B_z(p, p) and 2**beta B_zc(p, p), p = (beta + 1)/2, for zc = 1 - z.

    These are the integrals of cos**beta up to a node and up to its
    mirror image (f_real).  beta is a scalar, or a column of parameters
    with one row each, evaluated in blocks of about _ROW_BLOCK values;
    both rows of a parameter come from one continued fraction.
    """
    betas = np.ravel(beta).tolist()
    scale = np.array([[2.0**b] for b in betas])  # Python powers: numpy's may differ by an ulp
    step = max(1, _ROW_BLOCK // max(z.size, 1))
    at_z = np.empty((len(betas), z.size))
    at_zc = np.empty_like(at_z)
    for lo in range(0, len(betas), step):
        rows = slice(lo, lo + step)
        p = 0.5 * (np.array(betas[rows])[:, None] + 1.0)
        at_z[rows], at_zc[rows] = _inc_beta_parts(z, zc, p, p)
    at_z *= scale
    at_zc *= scale
    if np.ndim(beta) == 0:
        return at_z[0], at_zc[0]
    return at_z, at_zc


def f_real(beta: float, x):
    """Integral of cos(y)**beta from -pi/2 to x, for x in [-pi/2, pi/2].

    Evaluated through the incomplete beta at z = (1 + sin x)/2, with the
    complement formed from cos(x)**2 to stay accurate near +-pi/2.
    Accepts scalar or array x.
    """
    if not beta > -1.0:
        raise ValueError("f_real requires beta > -1")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 0.5 * math.pi + 1e-9):
        raise ValueError("f_real requires |x| <= pi/2")
    x1 = np.atleast_1d(xa)
    s = np.sin(x1)
    csq = cos_near_half_pi(x1) ** 2
    z = np.empty_like(s)
    zc = np.empty_like(s)
    pos = s >= 0.0
    z[pos] = 0.5 * (1.0 + s[pos])
    zc[pos] = csq[pos] / (2.0 * (1.0 + s[pos]))
    neg = ~pos
    z[neg] = csq[neg] / (2.0 * (1.0 - s[neg]))
    zc[neg] = 0.5 * (1.0 - s[neg])
    # the float +-pi/2 denotes the exact interval endpoint
    hi = x1 >= _PIO2_HI
    z[hi], zc[hi] = 1.0, 0.0
    lo = x1 <= -_PIO2_HI
    z[lo], zc[lo] = 0.0, 1.0
    out = _f_real_from_z(beta, z, zc)[0]
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


# -- cosh-power primitive: g(beta, x) = integral of cosh(y)**beta, 0..x --


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    The nodes are numpy's; the weights are 2/((1 - x**2) P_n'(x)**2) with
    P_n' from the three-term recurrence.  numpy's own weights for n = 48
    are off by 1.3e-12 relative at the ends and, once rescaled to sum to 2,
    by about 4e-15 inside: enough for a relative error of about
    1e-15 * beta in g(beta, x).
    """
    x = np.polynomial.legendre.leggauss(n)[0]
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    derivative = n * (p_prev - x * p) / one_minus_x2
    return x, 2.0 / (one_minus_x2 * derivative * derivative)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(48)


@lru_cache(maxsize=None)
def _binom_series_coeffs(beta: float) -> np.ndarray:
    """Generalized binomial coefficients C(beta, k) for the large-x tail."""
    coeffs = np.ones(41)
    for k in range(1, 41):
        # integer beta truncates the series exactly
        coeffs[k] = coeffs[k - 1] * (beta - (k - 1)) / k
    return coeffs


@lru_cache(maxsize=None)
def _tail_terms(beta: float) -> int:
    """How many leading terms of the x > 1 series can change its sum at some x.

    For k > beta/2, term k is at most 2**-beta |C(beta, k)| e**(beta - 2k)
    / (2k - beta) cosh(x)**-beta, and the sum is at least g(beta, 1)
    cosh(x)**-beta.  A term below 2**-55 of that lies under a quarter ulp
    of the sum, so adding it rounds back to the sum; the count ends at the
    last term that is not below, whatever x is.
    """
    coeffs = _binom_series_coeffs(beta)
    k = np.arange(coeffs.size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bound = 2.0**-beta * np.abs(coeffs) * np.exp(beta - 2.0 * k) / (2.0 * k - beta)
    negligible = (2.0 * k > beta) & (bound < 2.0**-55 * _g_at_one(beta))
    return int(np.flatnonzero((coeffs != 0.0) & ~negligible)[-1]) + 1


def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _cosh_pow_integral_small(betas: list[float], x: np.ndarray) -> np.ndarray:
    """g(beta, x) for 0 <= x <= 1 by Gauss-Legendre, one row per beta."""
    half = 0.5 * x
    cosh_nodes = np.cosh(half[..., None] * (_GL_NODES + 1.0))
    # Python-float exponents: numpy's power has fast paths (2.0 squares)
    # for a scalar exponent that an array of exponents does not take
    return np.array([half * ((cosh_nodes**b) * _GL_WEIGHTS).sum(axis=-1) for b in betas])


@lru_cache(maxsize=None)
def _g_at_one(beta: float) -> float:
    return float(_cosh_pow_integral_small([beta], np.array([1.0]))[0, 0])


def _cosh_pow_tail(betas: list[float], xb: np.ndarray, Lb: np.ndarray) -> np.ndarray:
    """Scaled g(beta, x) for x > 1, one row per beta: g(beta, 1) plus the binomial series.

    Term k integrates 2**-beta C(beta, k) exp((beta - 2k) y) over (1, x).
    A row keeps its first _tail_terms(beta) terms; the rest of the block's
    terms are zero in it, and adding zero leaves its non-negative sum as
    it is.  The terms are added in order of k, so each row is the same in
    every bit as a term-by-term loop over all the series terms.
    """
    counts = [_tail_terms(b) for b in betas]
    k = np.arange(max(counts))[:, None]
    coeffs = np.array([_binom_series_coeffs(b)[: k.size] for b in betas]).T  # (terms, rows)
    keep = (k < counts) & (coeffs != 0.0)  # integer beta truncates the series exactly
    ck = (np.array([2.0**-b for b in betas]) * coeffs)[..., None]
    beta = np.array(betas)[:, None]
    ex = (beta[:, 0] - 2.0 * k)[..., None]
    bL = beta * Lb
    e_beta = np.exp(-bL)
    # ex*x - beta*L = -2k*x + beta*(log 2 - log1p(exp(-2x))): the right side
    # keeps the beta*log 2 that the left loses to rounding at large x
    lead = beta * (math.log(2.0) - np.log1p(np.exp(-2.0 * xb)))
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        # (exp(ex*x) - exp(ex)) / ex, scaled by exp(-beta*L); both
        # exponents are bounded above, so the plain difference is safe
        # except when they nearly coincide
        arg = ex * (xb - 1.0)
        e2 = np.exp(ex - bL)
        via_expm1 = e2 * np.expm1(np.clip(arg, -1.0, 1.0)) / ex
        plain = (np.exp(-2.0 * k[..., None] * xb + lead) - e2) / ex
        terms = ck * np.where(np.abs(arg) < 1.0, via_expm1, plain)
        flat_k, flat_row = np.nonzero(np.abs(ex[..., 0]) < 1e-12)  # exponent 0: the term is linear in x
        terms[flat_k, flat_row] = ck[flat_k, flat_row] * (xb - 1.0) * e_beta[flat_row]
        terms[~keep] = 0.0
        acc = np.array([[_g_at_one(b)] for b in betas]) * e_beta
        for row in terms:
            acc += row
    return acc


def cosh_pow_integral_scaled(beta, x) -> np.ndarray:
    """g(beta, x) * cosh(x)**(-beta) with g the cosh-power primitive from 0.

    beta is a scalar, giving one value per abscissa of x (a scalar or a
    1-D array), or a column of parameters, giving one row each; a scalar
    is the one-row case.  The tail series stops at the term count
    _tail_terms derives for each beta, past which no term can change the
    sum; rows and abscissae are taken in blocks of about _ROW_BLOCK values.
    The scaled form stays representable for any beta >= 0 and |x| up to
    the largest finite double, and for beta <= 13 its relative error is
    within 5e-15 over that whole range; used inside the real-line
    integrands.
    """
    betas = np.ravel(beta).tolist()
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(xa)
    L = _log_cosh(ax)
    out = np.empty((len(betas), ax.size))
    small = ax <= 1.0
    if small.any():
        out[:, small] = _cosh_pow_integral_small(betas, ax[small]) * np.exp(-np.array(betas)[:, None] * L[small])
    big = ~small
    if big.any():
        xb, Lb = ax[big], L[big]
        step = max(1, _ROW_BLOCK // xb.size)
        width = min(xb.size, _ROW_BLOCK)
        tail = np.empty((len(betas), xb.size))
        for lo in range(0, len(betas), step):
            for at in range(0, xb.size, width):
                block = slice(at, at + width)
                tail[lo : lo + step, block] = _cosh_pow_tail(betas[lo : lo + step], xb[block], Lb[block])
        out[:, big] = tail
    out *= np.sign(xa)
    return out[0] if np.ndim(beta) == 0 else out


_F_IMAG_CFG = quad.QuadConfig(rel_tol=1e-13, abs_tol=1e-15)


def f_imag(beta: float, x: float) -> complex:
    """Value on the imaginary axis: 1/(2 c_{(beta-1)/2}) + i * integral of cosh**beta.

    The real integral is evaluated with integrate_finite; beta >= 0.
    The integral grows like cosh(x)**beta, so accuracy is relative.
    """
    if beta < 0:
        raise ValueError("f_imag requires beta >= 0")
    re = 0.5 / c_one_dim(0.5 * (beta - 1.0))
    if x == 0.0:
        return complex(re, 0.0)
    sign = 1.0 if x > 0 else -1.0
    res = quad.integrate_finite(lambda y: np.cosh(y) ** beta, 0.0, abs(float(x)), _F_IMAG_CFG)
    return complex(re, sign * res.value)


def p_m_poly(m: int, z) -> complex:
    """Sum of binomial(2m-1, m-1-r) z**r for r = 0..m-1."""
    if m < 1:
        raise ValueError("p_m_poly requires m >= 1")
    acc = 0
    for r in range(m - 1, -1, -1):
        acc = acc * z + math.comb(2 * m - 1, m - 1 - r)
    return acc


def harmonic(n: int) -> Fraction:
    """Exact harmonic number 1 + 1/2 + ... + 1/n."""
    if n < 1:
        raise ValueError("harmonic requires n >= 1")
    acc = Fraction(0)
    for j in range(1, n + 1):
        acc += Fraction(1, j)
    return acc


# -- Lobachevsky function --
#
# L(t) = -integral of log|2 sin u| from 0 to t.  After reduction to
# |t| <= pi/2 (odd, pi-periodic), the log-sine power series
#     L(t) = t - t log(2t) + sum_m  [zeta(2m)/pi^(2m)] t^(2m+1) / (m (2m+1))
# converges geometrically with ratio (t/pi)^2 <= 1/4; 30 terms leave a
# tail below 1e-19, well inside the 1e-12 contract.

_LOB_COEFFS = [float(c) / (m * (2 * m + 1)) for m, c in enumerate(zeta_even_over_pi_power(30), start=1)]


def lobachevsky(theta):
    """Lobachevsky function, absolute error <= 1e-12; scalar or array."""
    ta = np.asarray(theta, dtype=float)
    t1 = np.atleast_1d(ta)
    r = t1 - math.pi * np.round(t1 / math.pi)
    s = np.sign(r)
    r = np.abs(r)
    out = np.zeros_like(r)
    nz = r > 0.0
    if nz.any():
        rr = r[nz]
        r2 = rr * rr
        poly = np.zeros_like(rr)
        for coeff in reversed(_LOB_COEFFS):  # Horner's rule in r**2
            poly *= r2
            poly += coeff
        out[nz] = rr - rr * np.log(2.0 * rr) + rr * r2 * poly
    out *= s
    return float(out[0]) if ta.ndim == 0 else out.reshape(ta.shape)
