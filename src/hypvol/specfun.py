"""Scalar special functions.

The kernel R(x) = Gamma(x + 1/2)/Gamma(x) behind every Gamma quotient
(``gamma_quotient``), the one-dimensional normalizing constants, the
cos-power primitive on the real segment (a series of positive terms)
and its cosh-power counterpart on the imaginary axis, the
non-regularized incomplete beta function (a continued fraction, behind
``inc_beta`` and the independent oracle ``abcore.b_fn_alt``), binomial
polynomials with odd-parameter structure, exact harmonic numbers, and
the log-sine integral used as an independent oracle for ideal
tetrahedra in dimension 3.

The two factor functions ``f_real`` and ``f_imag`` run the kernels the
quadrature integrands run (``_f_real_from_z`` and
``cosh_pow_integral_scaled``, called from ``abcore``), so the checks of
the factors certify the code behind every query.  The cosh-power kernel
takes its abscissae plain or as a read-only ``CoshPowNodes`` table of
the arrays it derives from them alone, one code path either way.

All functions are pure; array arguments are supported where noted.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact import bernoulli_numbers, zeta_even_over_pi_power

__all__ = [
    "log_gamma",
    "gamma_ratio_half",
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
# extra bits, enough to form pi/2 - |x| at full relative accuracy near +-pi/2.
_PIO2_HI = 1.5707963267948966
_PIO2_LO = 6.123233995736766e-17


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


_U = 2.0**-53  # unit roundoff: one rounding errs by at most _U relative
_SQRT_PI, _INV_SQRT_PI = 1.772453850905516, 0.5641895835477563  # both rounded to nearest
# log R(x) - log(x)/2 = sum_j C_j x**(1 - 2j) with C_j = (2**(1 - 2j) - 2) B_2j / ((2j - 1) 2j), the
# difference of two Stirling series (DLMF 5.11.1); C_12 .. C_1 leave a tail below 2.5e-18 at x >= 7
_B = bernoulli_numbers(25)
_RATIO_SERIES = [float((Fraction(2) ** (1 - 2 * j) - 2) * _B[2 * j] / ((2 * j - 1) * 2 * j)) for j in range(12, 0, -1)]
# gamma_ratio_half's bound in roundings: at x >= 7 sqrt 1, exp 1.02 (libm within an ulp of a value in
# (0.98, 1)), their product 1 and the series 0.08; below 7 also the rounded exact product 1, its product 1
# and the rounding of x + N, which moves R by 0.52 of it (x (psi(x + 1/2) - psi(x)) < 0.52 at x >= 7):
# 5.6, stated as 6 for the second-order terms
GAMMA_RATIO_ERR = 6 * _U


@functools.lru_cache(maxsize=4096)  # a query asks for the same parameters often
def gamma_ratio_half(x: float) -> float:
    """R(x) = Gamma(x + 1/2) / Gamma(x) for finite x > 0, within GAMMA_RATIO_ERR relative while R(x) is normal.

    sqrt(y) exp(E(y)), E the Stirling difference series in 1/y**2 (DLMF
    5.11.13) by Horner's rule, at y = x + N >= 7, times the product of
    (x + k)/(x + k + 1/2) over k < N, formed in integers and rounded once.
    """
    if not 0.0 < x < math.inf:
        raise ValueError("gamma_ratio_half requires a finite x > 0")
    steps = max(0, math.ceil(7.0 - x))
    t = 1.0 / (x + steps)
    t2, acc = t * t, 0.0
    for c in _RATIO_SERIES:
        acc = acc * t2 + c
    value = math.sqrt(x + steps) * math.exp(t * acc)
    if steps:  # x = p/q: (x + k)/(x + k + 1/2) = (2p + 2kq)/(2p + (2k + 1)q)
        p, q = x.as_integer_ratio()
        num, den, a = 1, 1, 2 * p
        for _ in range(steps):
            num, den, a = num * a, den * (a + q), a + 2 * q
        value *= num / den  # int / int: one rounding
    return value


def quotient_err(factors: int) -> float:
    """The relative error bound of a ``gamma_quotient`` value with one ratio R and that many linear factors.

    GAMMA_RATIO_ERR, one rounding each for the ratio's argument (d log R / d log x < 1)
    and its product, and those of the quotient without a ratio: one for the scale and
    two for each factor (its own and its product).
    """
    return GAMMA_RATIO_ERR + (3 + 2 * factors) * _U


def gamma_quotient(scale: float, num=(), den=(), up: float | None = None, down: float | None = None):
    """scale * prod(num) / prod(den), times R(up) or over R(down), and its relative error bound.

    Every Gamma quotient of the engine is one after the recurrence and the duplication
    formula (DLMF 5.5.5).  Each argument may carry one rounding; a factor alpha + j,
    j an integer float, is exact next to its zero (Sterbenz), so a pole stays exact.
    The bound is quotient_err, and without a ratio only the roundings of the scale and
    the factors.
    """
    factors = len(num) + len(den)
    value = scale * math.prod(num) / math.prod(den)
    if up is None and down is None:
        return value, (1 + 2 * factors) * _U
    if up is not None:
        value *= gamma_ratio_half(up)
    if down is not None:
        value /= gamma_ratio_half(down)
    return value, quotient_err(factors)


def c_one_dim(beta: float) -> float:
    """Normalizing constant Gamma(beta + 3/2) / (sqrt(pi) Gamma(beta + 1)), within quotient_err(0) relative."""
    if not beta > -1.0:
        raise ValueError("c_one_dim requires beta > -1")
    return _INV_SQRT_PI * gamma_ratio_half(beta + 1.0)  # gamma_quotient(_INV_SQRT_PI, up=beta + 1.0) without the call


def c_d_beta(d: int, beta: float) -> float:
    """Normalizing constant Gamma(d/2 + beta + 1) / (pi**(d/2) Gamma(beta + 1))."""
    if d < 1:
        raise ValueError("c_d_beta requires d >= 1")
    if not beta > -1.0:
        raise ValueError("c_d_beta requires beta > -1")
    return math.exp(log_gamma(0.5 * d + beta + 1.0) - log_gamma(beta + 1.0) - 0.5 * d * math.log(math.pi))


# -- incomplete beta: continued fraction (modified Lentz) --

_FPMIN = 1e-300
_CF_EPS = 1e-16
_CF_MAX_ITER = 500


def _betacf(p: float, q: float, x: np.ndarray) -> np.ndarray:
    """Continued fraction for the incomplete beta; x below the swap point."""
    qab, qap, qam = p + q, p + 1.0, p - 1.0
    d = 1.0 - qab * x / qap
    np.copyto(d, _FPMIN, where=np.abs(d) < _FPMIN)
    d = 1.0 / d
    c = np.ones_like(d)
    h = d.copy()
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
    return h


def _inc_beta_parts(z: np.ndarray, zc: np.ndarray, p: float, q: float) -> np.ndarray:
    """Non-regularized B_z(p, q), given z and an accurately computed zc = 1-z.

    Below the swap point it takes the continued fraction at z, above it
    the complete B(p, q) less the fraction at zc (Numerical Recipes
    ``betai``; DLMF 8.17.4).
    """
    complete = math.exp(log_gamma(p) + log_gamma(q) - log_gamma(p + q))
    interior = (z > 0.0) & (zc > 0.0)
    swap = interior & (z > p / (p + q))
    direct = interior & ~swap
    out = np.zeros(z.shape)
    if direct.any():
        out[direct] = np.exp(p * np.log(z[direct]) + q * np.log(zc[direct])) / p * _betacf(p, q, z[direct])
    if swap.any():
        out[swap] = complete - np.exp(q * np.log(zc[swap]) + p * np.log(z[swap])) / q * _betacf(q, p, zc[swap])
    out[zc <= 0.0] = complete
    return out


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
    out = _inc_beta_parts(np.atleast_1d(za), np.atleast_1d(1.0 - za), p, q)
    return float(out[0]) if za.ndim == 0 else out.reshape(za.shape)


# -- the sin-power primitive: one series of positive terms per row --

_SIN_BLOCK = 1 << 15  # parameters x terms x abscissae per kernel block: 256 KB, faster than 2 MB
_SIN_MAX_BETA = 1024.0  # _SIN_MAX_TERMS covers the parameters below it
_SIN_MAX_TERMS = 400  # beta just below 1024 takes 312 terms
_SIN_RATIO_K = np.arange(_SIN_MAX_TERMS - 1.0)
_SIN_HALF_POWERS = 0.5 ** np.arange(_SIN_MAX_TERMS)


def f_real_total(beta: float) -> float:
    """F(pi/2), the integral of cos**beta over (-pi/2, pi/2): sqrt(pi) / R((beta + 1)/2), within quotient_err(0)."""
    # gamma_quotient(_SQRT_PI, down=...) without the call: every query asks for it per parameter
    return _SQRT_PI / gamma_ratio_half(0.5 * (beta + 1.0))


def _sin_series_rows(col: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The series coefficients c_k of each parameter in the column col, one row each, and its term count.

    c_0 = 1 and c_(k+1) = c_k (beta + 1 + k)/((beta + 3)/2 + k), by one
    cumprod per row.  A row's terms c_k z**k fall with k at every z <= 1/2,
    and term k over the sum of the terms before it grows with z, so
    z = 1/2 sets the count: it ends at the first term whose tail bound,
    the term over 1 - rho with rho = max(1/2, the ratio of the next term
    to it), is below 2**-56 of the sum, and takes that term too.  So no
    term past the count, nor all of them together, reaches a quarter ulp
    of the partial sum.
    """
    ratio = (col + 1.0 + _SIN_RATIO_K) / (0.5 * (col + 3.0) + _SIN_RATIO_K)
    coeffs = np.ones((col.shape[0], _SIN_MAX_TERMS))
    np.cumprod(ratio, axis=1, out=coeffs[:, 1:])
    at_half = coeffs * _SIN_HALF_POWERS
    tail = at_half[:, :-1] / (1.0 - np.maximum(0.5 * ratio, 0.5))
    counts = np.argmax(tail < 2.0**-56 * at_half.sum(axis=1, keepdims=True), axis=1) + 1
    return coeffs, counts.tolist()


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """terms (rows, k, abscissae) summed over k, term after term from k = 0.

    numpy reduces a middle axis one whole slice at a time while the last
    axis has more than one entry; a lone column it would sum pairwise.
    """
    if terms.shape[2] > 1:
        return terms.sum(axis=1)
    return np.add.accumulate(terms, axis=1)[:, -1]


def _f_real_from_z(beta, z: np.ndarray, sin_t: np.ndarray) -> np.ndarray:
    """Row F(t - pi/2), the integral of sin**beta over (0, t), at z = sin(t/2)**2 <= 1/2, sin_t = sin t.

    This is the integral of cos**beta up to a node (f_real).  beta is a
    scalar in (-1, _SIN_MAX_BETA), or a column of them with one row
    each.  The domain is z <= 1/2: the b integrals' nodes are t < pi/2,
    and f_real forms F(|x|) as f_real_total less the row.  The row is
    sin(t)**(beta + 1)/(beta + 1) times the sum of c_k z**k (DLMF 8.17.8
    with a = b = (beta + 1)/2), every term positive (_sin_series_rows).
    sin t comes from the node itself: 2 sqrt(z (1 - z)) would lose the
    last bits of z, and be 0 where z underflows.  Every row sums the same
    count of terms at every node, in order: the powers of z by doubling
    (z**(n + j) = z**j z**n, one array product per doubling), the
    products with the coefficients summed over k (_sum_in_order), no
    matmul.  So a row is elementwise in its nodes, and the padding to the
    largest count of its block of parameters adds terms below a quarter
    ulp, which leave its bits as they are.  Blocks hold about _SIN_BLOCK
    values.  Its relative error is within max(5e-15, 1.5e-16 * beta) at
    every node with a normal value (golden references in tests): the
    power of sin t takes most of it.
    """
    col = np.reshape(np.array(beta, dtype=float), (-1, 1))
    coeffs, counts = _sin_series_rows(col)
    most = max(counts)
    width = max(1, min(z.size, _SIN_BLOCK // most))
    step = max(1, _SIN_BLOCK // (most * width))
    out = np.empty((len(counts), z.size))
    for at in range(0, z.size, width):
        block = slice(at, at + width)
        powers = np.empty((most, z[block].size))
        powers[0] = 1.0
        done, z_done = 1, z[block]  # z**done
        while done < most:  # powers done.. from powers 0.. times z**done
            more = min(done, most - done)
            np.multiply(powers[:more], z_done, out=powers[done : done + more])
            done, z_done = done + more, z_done * z_done
        for lo in range(0, len(counts), step):
            count = max(counts[lo : lo + step])
            out[lo : lo + step, block] = _sum_in_order(coeffs[lo : lo + step, :count, None] * powers[:count])
    with np.errstate(divide="ignore", invalid="ignore"):
        out *= sin_t**col * sin_t / (col + 1.0)  # beta + 1 as an exponent would round
    out[:, sin_t == 0.0] = 0.0  # t = 0: 0**beta is inf for beta < 0
    return out[0] if np.ndim(beta) == 0 else out


def f_real(beta: float, x):
    """Integral of cos(y)**beta from -pi/2 to x, for x in [-pi/2, pi/2] and -1 < beta < _SIN_MAX_BETA.

    The b integrand's row (abcore._b_factors): F(t - pi/2) is
    ``_f_real_from_z`` at z = sin(t/2)**2 and sin t.
    F(-|x|) takes t = pi/2 - |x|, formed from the split pi/2 so that it
    keeps full relative accuracy near the ends, with sin t = cos(x), and
    F(|x|) is F(pi/2) (f_real_total) less F(-|x|).  The float +-pi/2
    denotes the exact interval endpoint.  Accepts scalar or array x.
    """
    if not -1.0 < beta < _SIN_MAX_BETA:
        raise ValueError(f"f_real requires -1 < beta < {_SIN_MAX_BETA:g}")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 0.5 * math.pi + 1e-9):
        raise ValueError("f_real requires |x| <= pi/2")
    x1 = np.atleast_1d(xa)
    ax = np.abs(x1)
    end = ax >= _PIO2_HI
    half_t = 0.5 * np.where(end, 0.0, (_PIO2_HI - ax) + _PIO2_LO)
    low = _f_real_from_z(beta, np.sin(half_t) ** 2, np.where(end, 0.0, np.cos(x1)))
    out = np.where(x1 > 0.0, f_real_total(beta) - low, low)
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


def _log_cosh(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


class CoshPowNodes:
    """Abscissae x with every array cosh_pow_integral_scaled derives from them alone, read-only.

    A caller that evaluates many parameters at the same abscissae builds
    it once and passes it in place of x: abcore holds one per refinement
    step (abcore._line_table).  A plain x gets one built inside the call.
    The kernel runs the same operations either way, so a row has the same
    bits.  size is the count of abscissae, which np.size reads.

    The arrays: the sign of x and L = log cosh|x|; the |x| <= 1 nodes
    (small), their L and the Gauss-Legendre matrix cosh(half (1 + u)) at
    half = |x|/2, with the row of x = 1 last, whose g(beta, 1) the series
    needs; for the |x| > 1 nodes (big), q = exp(-2|x|), log 2 - log1p q,
    |x| - 1, -2|x| and L; and tanh|x| and sech(x)**2 of the recurrence.
    """

    __slots__ = ("size", "sign", "L", "small", "small_L", "half", "cosh_nodes", "big",
                 "q", "log_lead", "x_less_1", "minus_2x", "big_L", "tanh", "sech2")

    def __init__(self, x):
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        ax = np.abs(xa)
        self.size = xa.size
        self.sign = np.sign(xa)
        self.L = _log_cosh(ax)
        small = ax <= 1.0
        self.small, self.big = np.flatnonzero(small), np.flatnonzero(~small)
        self.small_L = self.L[self.small]
        self.half = np.append(0.5 * ax[self.small], 0.5)
        self.cosh_nodes = np.cosh(self.half[:, None] * (_GL_NODES + 1.0))
        minus_2x = -2.0 * ax
        q = np.exp(minus_2x)
        # tanh from expm1, accurate near x = 0
        self.tanh, self.sech2 = -np.expm1(minus_2x) / (1.0 + q), 4.0 * q / (1.0 + q) ** 2
        self.q, self.minus_2x, self.big_L = q[self.big], minus_2x[self.big], self.L[self.big]
        # beta * log(2/(1 + q)) = beta * (x - L), keeping the beta*log 2 that
        # the difference loses to rounding at large x
        self.log_lead = math.log(2.0) - np.log1p(self.q)
        self.x_less_1 = ax[self.big] - 1.0
        for name in self.__slots__[1:]:
            getattr(self, name).flags.writeable = False


def _cosh_pow_integral_small(betas: list[float], nodes: CoshPowNodes) -> np.ndarray:
    """g(beta, x) at the |x| <= 1 nodes, then at x = 1, by Gauss-Legendre, one row per beta (each at most 13)."""
    # Python-float exponents: numpy's power has fast paths (2.0 squares)
    # for a scalar exponent that an array of exponents does not take
    return np.array([nodes.half * ((nodes.cosh_nodes**b) * _GL_WEIGHTS).sum(axis=-1) for b in betas])


# the series' and Gauss-Legendre's errors grow with beta, so larger
# parameters start in (11, 13] and recur up at every x (cosh_pow_integral_scaled)
_SERIES_MAX_BETA = 13.0
_ROW_BLOCK = 4096  # parameters x abscissae per kernel block
_SERIES_TERMS = 41  # the series is cut at k = 40, or sooner (_tail_rows)
_TWO_K = 2.0 * np.arange(_SERIES_TERMS)
_SERIES_STEPS = [(k, 2.0 * k, float(k), float(k + 1)) for k in range(_SERIES_TERMS)]


class _TailRows(NamedTuple):
    """The series arrays of a block of parameters (_tail_rows)."""

    beta: np.ndarray  # (rows, 1) series parameters
    horner: np.ndarray  # (count, rows, 1) poly, highest power of q first
    held: np.ndarray  # (rows, 1) A
    linear: tuple | None  # (rows, c_k column) of the near terms with e_k = 0
    near: tuple | None  # (rows, k, c_k and e_k columns) of the other near terms


def _columns(terms: list[tuple], count: int) -> tuple | None:
    """(rows, then one column per constant) of the near terms, or None if there are none.

    rows indexes the block's rows that have one: a slice where all count do.
    """
    if not terms:
        return None
    rows, *constants = zip(*terms)
    return (slice(None) if len(rows) == count else np.array(rows), *(np.array(c)[:, None] for c in constants))


def _tail_rows(starts: list[float], g_at_one: list[float]) -> _TailRows:
    """The series arrays of a block of parameters, built in one pass for all its abscissae.

    Each parameter is a start, at most 13 (cosh_pow_integral_scaled), and
    g_at_one holds its g(beta, 1), which the kernel's Gauss-Legendre pass
    gives with the |x| <= 1 nodes.  Term k of the series integrates
    c_k exp(e_k y) over (1, x), c_k = 2**-beta C(beta, k) and e_k = beta - 2k.  Scaled
    by cosh(x)**-beta, exp(e_k x) becomes q**k (2/(1 + q))**beta with
    q = exp(-2x).  So every term with |e_k| >= 1 splits into poly[k] =
    c_k/e_k, the coefficient of q**k, and a part -poly[k] exp(e_k) that
    does not depend on x, which A gathers with g(beta, 1) in one exactly
    rounded sum.  The one term with |e_k| < 1 would cancel in that split
    and is kept whole as the near term.

    The series stops at a term count per beta.  For k > beta/2, term k is
    at most |c_k| e**(beta - 2k)/(2k - beta) cosh(x)**-beta, and the sum
    is at least g(beta, 1) cosh(x)**-beta.  A term below 2**-55 of that
    lies under a quarter ulp of the sum, so adding it rounds back to the
    sum.  Past beta/2 each bound is less than e**-2 times the one before
    (|beta - k| < k + 1), and a zero C(beta, k) (integer beta) stays zero,
    so the count ends at the first term past beta/2 that is zero or below:
    no later term can change the sum, whatever x is.

    The bounds' exponentials come from one np.exp call for the whole
    block; the rest is Python floats per beta: C(beta, k) by c_k =
    c_(k-1) (beta - k + 1)/k, and A by math.fsum of math.exp terms.  Each
    row's constants come from the same floating-point operations whatever
    else is in the block.
    """
    exps = np.exp(np.array(starts)[:, None] - _TWO_K).tolist()
    held, polys, linear, near, count = [], [], [], [], 0
    for row, (beta, exp_e, g) in enumerate(zip(starts, exps, g_at_one)):
        scale, cut = 2.0**-beta, 2.0**-55 * g
        binom, terms, poly = 1.0, [g], [0.0] * _SERIES_TERMS
        for k, two_k, k_float, next_k in _SERIES_STEPS:
            ck, ek = scale * binom, beta - two_k
            if ek < 0.0 and (ck == 0.0 or abs(ck) * exp_e[k] / -ek < cut):
                break
            if ek == 0.0:
                linear.append((row, ck))
            elif -1.0 < ek < 1.0:
                near.append((row, k_float, ck, ek))
            else:
                poly[k] = p = ck / ek
                terms.append(-p * math.exp(ek))
            binom = binom * (beta - k_float) / next_k  # C(beta, k + 1); integer beta truncates the series
        else:
            k = _SERIES_TERMS
        count = max(count, k)
        held.append(math.fsum(terms))
        polys.append(poly)
    return _TailRows(
        np.array(starts)[:, None],
        np.array(polys)[:, :count].T[::-1, :, None],
        np.array(held)[:, None],
        _columns(linear, len(starts)),
        _columns(near, len(starts)),
    )


def _tail_series(s: _TailRows, nodes: CoshPowNodes, block: slice) -> np.ndarray:
    """Scaled g(beta, x) at the block of the |x| > 1 nodes, one row per series parameter of s.

    A row is A exp(-beta L) + (2/(1 + q))**beta poly(q) plus its near term
    (_tail_rows), with q = exp(-2x) and L = log cosh(x).  poly is summed by
    Horner's rule from the block's top coefficient; a row's leading zeros
    in that coefficient matrix leave it 0 until its own top coefficient,
    so each row is the same in every bit as a one-row call.  The near term
    keeps the exponential form: exp(e_k - beta L) expm1(e_k (x - 1))/e_k
    where |e_k (x - 1)| < 1, the plain difference of the two scaled
    exponentials beyond, and the linear c_k (x - 1) exp(-beta L) at e_k = 0
    exactly.  Every constant comes in as an array, made once per block of
    parameters (_tail_rows), at about 14 us per parameter (2-core x86 VM,
    blocks of four), and every array of x alone from nodes.
    """
    q = nodes.q[block]
    acc = np.empty((s.beta.shape[0], q.size))
    acc[:] = s.horner[0]  # 0 q + c is c
    for ck in s.horner[1:]:
        acc *= q
        acc += ck
    bL = s.beta * nodes.big_L[block]
    lead = s.beta * nodes.log_lead[block]
    x_less_1 = nodes.x_less_1[block]
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        acc *= np.exp(lead)
        e_beta = np.exp(-bL)
        acc += s.held * e_beta
        if s.linear is not None:
            rows, ck = s.linear
            acc[rows] += ck * x_less_1 * e_beta[rows]
        if s.near is not None:
            rows, k, ck, ex = s.near
            arg = ex * x_less_1
            e2 = np.exp(ex - bL[rows])
            via_expm1 = e2 * np.expm1(np.clip(arg, -1.0, 1.0)) / ex
            plain = (np.exp(k * nodes.minus_2x[block] + lead[rows]) - e2) / ex  # k (-2x) rounds as (-2k) x
            acc[rows] += ck * np.where(np.abs(arg) < 1.0, via_expm1, plain)
    return acc


def cosh_pow_integral_scaled(beta, x) -> np.ndarray:
    """g(beta, x) * cosh(x)**(-beta) with g the cosh-power primitive from 0.

    beta is a scalar, giving one value per abscissa of x (a scalar, a 1-D
    array or their CoshPowNodes), or a column of parameters, giving one
    row each; a scalar is the one-row case.  One rule at every x: a beta
    up to 13 is its own start, a larger one starts at beta - 2j in
    (11, 13].  The start takes Gauss-Legendre at |x| <= 1 and the
    binomial series at |x| > 1 (_tail_series), cut where no term can
    change the sum (_tail_rows); one Gauss-Legendre pass gives both the
    |x| <= 1 values and the series' g(beta, 1).
    The row then recurs up with s_b = tanh(x)/b + (b - 1)/b sech(x)**2
    s_(b-2) (Gradshteyn-Ryzhik 2.411), which shrinks the error carried
    and adds about an ulp per step.  Rows are elementwise in x, taken in
    blocks of about _ROW_BLOCK values.  The call keeps nothing per
    parameter: a row block's series constants are built in the call, and
    the arrays of x alone come from the CoshPowNodes passed in, or from
    one built in the call.  The scaled form stays representable for
    beta >= 0 and any finite |x|.  Its
    relative error is within max(5e-15, 1e-16 * beta): against 45-digit
    references (tests/golden) at most 1.8e-15 up to beta = 30, 4.4e-15 at
    60.5 and 5.8e-14 at 1022 (near x = 0.03), and 7e-16 at |x| > 1.
    Used inside the real-line integrands.
    """
    nodes = x if isinstance(x, CoshPowNodes) else CoshPowNodes(x)
    betas = np.ravel(beta).tolist()
    ups = [max(0, math.ceil(0.5 * (b - _SERIES_MAX_BETA))) for b in betas]
    starts = [b - 2.0 * j for b, j in zip(betas, ups)]
    out = np.empty((len(betas), nodes.size))
    gauss = _cosh_pow_integral_small(starts, nodes)
    out[:, nodes.small] = gauss[:, :-1] * np.exp(-np.array(starts)[:, None] * nodes.small_L)
    n_big = nodes.big.size
    if n_big:
        g_at_one = gauss[:, -1].tolist()
        step = max(1, _ROW_BLOCK // n_big)
        width = min(n_big, _ROW_BLOCK)
        tail = np.empty((len(betas), n_big))
        for lo in range(0, len(betas), step):
            rows = _tail_rows(starts[lo : lo + step], g_at_one[lo : lo + step])
            for at in range(0, n_big, width):
                tail[lo : lo + step, at : at + width] = _tail_series(rows, nodes, slice(at, at + width))
        out[:, nodes.big] = tail
    for row, (top, j) in enumerate(zip(betas, ups)):
        for b in (top - 2.0 * i for i in range(j - 1, -1, -1)):
            out[row] = nodes.tanh / b + (b - 1.0) / b * nodes.sech2 * out[row]
    out *= nodes.sign
    return out[0] if np.ndim(beta) == 0 else out


def f_imag(beta: float, x: float) -> complex:
    """Value on the imaginary axis: 1/(2 c_{(beta-1)/2}) + i * integral of cosh**beta from 0 to x.

    The imaginary part is the a integrand's kernel,
    ``cosh_pow_integral_scaled``, times cosh(x)**beta in Python floats,
    so a value beyond the float range raises OverflowError; beta >= 0.
    The integral grows like cosh(x)**beta, so accuracy is relative.
    """
    if beta < 0:
        raise ValueError("f_imag requires beta >= 0")
    re = 0.5 * f_real_total(beta)
    x = float(x)
    scaled = float(cosh_pow_integral_scaled(float(beta), x)[0])
    return complex(re, scaled * math.cosh(x) ** beta)


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
    r2 = r * r
    poly = np.zeros_like(r)
    for coeff in reversed(_LOB_COEFFS):  # Horner's rule in r**2
        poly *= r2
        poly += coeff
    with np.errstate(divide="ignore", invalid="ignore"):
        out = r - r * np.log(2.0 * r) + r * r2 * poly
    out[r == 0.0] = 0.0
    out *= s
    return float(out[0]) if ta.ndim == 0 else out.reshape(ta.shape)
