"""Parameter integrals with cosh and cos kernels, and their combinations.

``a_fn`` integrates cosh(x)**(-alpha) times a product of imaginary-axis
factors over the real line; ``b_fn`` integrates cos(x)**alpha times a
product of segment factors over (-pi/2, pi/2); the expectation engine
sums products a * (linear factor) * b of them over subsets.  Closed
forms are dispatched for empty, singleton and
all-ones parameter lists; everything else goes through double-exponential
quadrature with stable log-magnitude/phase evaluation of the integrands.

Each integrand is a product of one factor per parameter, kept in a
factor table: a factor is evaluated once per parameter and node set and
reused by every integral in the same ``shared_factors`` scope.  Every
quadrature opens one, so the two halves of a ``b`` integral share their
factors; a query (``expect.expected_beta_integral``,
``expect.expected_hyp_volume``) opens the outer one, shared by all of
its integrals.  A ``b`` node set gets the factors of all its missing
parameters, for both halves, from one incomplete-beta call.  The ``a``
integrand is evaluated at x >= 0 only: its real part is even and its
imaginary part odd, so the integral is twice that of the real part
over x >= 0.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading
from fractions import Fraction

import numpy as np

from . import quad
from .exact import PiPoly, poly_integral_01, poly_pow
from .quad import QuadConfig, ValueWithError
from .specfun import (
    _f_real_from_z,
    _inc_beta_parts,
    _log_cosh,
    c_one_dim,
    cosh_pow_integral_scaled,
    log_gamma,
)

__all__ = [
    "ParamMultiset",
    "a_fn",
    "b_fn",
    "b_fn_alt",
    "a_prime",
    "a_ones",
    "b_ones",
    "a_prime_ones_at_pole",
    "a_prime_odd_repeated",
    "limit_alpha_plus_one_times_b",
    "clear_cache",
    "shared_factors",
]

_REL_CLOSED = 1e-14  # error assigned to closed-form gamma-ratio values


class ParamMultiset:
    """Sorted multiset of non-negative real parameters."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        vals = tuple(sorted(float(v) for v in entries))
        if any(v < 0 or not math.isfinite(v) for v in vals):
            raise ValueError("parameters must be finite and >= 0")
        object.__setattr__(self, "entries", vals)

    def __setattr__(self, *a):
        raise AttributeError("ParamMultiset is immutable")

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if isinstance(other, ParamMultiset):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"ParamMultiset{self.entries!r}"

    def total(self) -> float:
        return math.fsum(self.entries)

    def scaled(self, factor: float) -> "ParamMultiset":
        return ParamMultiset(v * factor for v in self.entries)


def _as_params(params) -> ParamMultiset:
    return params if isinstance(params, ParamMultiset) else ParamMultiset(params)


# -- cache ---------------------------------------------------------------

_cache_lock = threading.Lock()
_cache: dict = {}


def clear_cache() -> None:
    with _cache_lock:
        _cache.clear()


def _cache_get(key):
    with _cache_lock:
        return _cache.get(key)


def _cache_put(key, value):
    with _cache_lock:
        _cache[key] = value


def _cfg_key(cfg: QuadConfig):
    return (cfg.rel_tol, cfg.abs_tol, cfg.max_level)


# -- per-query factor table ------------------------------------------------

_factors: contextvars.ContextVar[dict | None] = contextvars.ContextVar("hypvol_factors", default=None)


@contextlib.contextmanager
def shared_factors():
    """Share per-parameter integrand factors among the integrals run inside.

    A nested scope reuses the outer table; the table is dropped when the
    outermost scope exits.  Every quadrature runs in a scope of its own
    or an enclosing one; values and error estimates are the same in
    every bit whatever the scope.
    """
    if _factors.get() is not None:
        yield
        return
    token = _factors.set({})
    try:
        yield
    finally:
        _factors.reset(token)


def _factor(key, fn, *args):
    """fn(*args), looked up by key in the active factor table.

    A key holds the parameter and the node abscissae as bytes, so it
    never matches two different node sets.
    """
    table = _factors.get()
    hit = table.get(key)
    if hit is None:
        hit = table[key] = fn(*args)
    return hit


# -- closed forms ---------------------------------------------------------

def _a_empty(alpha: float) -> float:
    if not alpha > 0:
        raise ValueError("a with no parameters requires alpha > 0")
    return math.sqrt(math.pi) * math.exp(log_gamma(0.5 * alpha) - log_gamma(0.5 * (alpha + 1.0)))


def _a_single(alpha: float, a1: float) -> float:
    return (
        0.5
        * math.pi
        * math.exp(
            log_gamma(0.5 * alpha)
            + log_gamma(0.5 * (a1 + 1.0))
            - log_gamma(0.5 * (alpha + 1.0))
            - log_gamma(0.5 * (a1 + 2.0))
        )
    )


def _b_empty(alpha: float) -> float:
    return math.sqrt(math.pi) * math.exp(log_gamma(0.5 * (alpha + 1.0)) - log_gamma(0.5 * (alpha + 2.0)))


def _b_single(alpha: float, a1: float) -> float:
    return (
        0.5
        * math.pi
        * math.exp(
            log_gamma(0.5 * (alpha + 1.0))
            + log_gamma(0.5 * (a1 + 1.0))
            - log_gamma(0.5 * (alpha + 2.0))
            - log_gamma(0.5 * (a1 + 2.0))
        )
    )


def a_ones(d: int, alpha: float) -> float:
    """Closed form for d repeated unit parameters, alpha > d.

    Returns 0 when (alpha+1)/2 - d hits a pole of the reciprocal gamma.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if not alpha > d:
        raise ValueError("a_ones requires alpha > d")
    q = 0.5 * (alpha + 1.0) - d
    if q <= 0 and abs(q - round(q)) < 1e-12:
        return 0.0
    if q <= 0:
        # reflect the reciprocal gamma through the sine formula
        recip = math.sin(math.pi * q) / math.pi * math.exp(log_gamma(1.0 - q))
    else:
        recip = math.exp(-log_gamma(q))
    return (
        math.pi
        * math.exp(log_gamma(alpha - d) - (alpha - d - 1.0) * math.log(2.0) - log_gamma(0.5 * (alpha + 1.0)))
        * recip
    )


def b_ones(d: int, alpha: float) -> float:
    """Closed form for d repeated unit parameters, alpha > -1."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if not alpha > -1.0:
        raise ValueError("b_ones requires alpha > -1")
    return math.exp(
        (alpha + d) * math.log(2.0)
        + log_gamma(0.5 * (alpha + 1.0))
        + log_gamma(0.5 * (alpha + 1.0) + d)
        - log_gamma(alpha + d + 1.0)
    )


def a_prime_ones_at_pole(k: int) -> float:
    """First-argument derivative at (k+1; 1,...,1) for even k, where a itself vanishes."""
    if k < 2 or k % 2 != 0:
        raise ValueError("requires even k >= 2")
    return (math.pi / k) * (-1.0) ** (k // 2 - 1)


def a_prime_odd_repeated(m: int, q: int) -> PiPoly:
    """Exact derivative value for 2q repeated odd parameters 2m-1 at the vanishing point.

    B(m,m)**(2q) * (-1)**(q+1) * (pi/2) * integral of t**(q-1) P_m(-t)**(2q).
    """
    if m < 1 or q < 1:
        raise ValueError("m, q must be >= 1")
    bmm = Fraction(math.factorial(m - 1) ** 2, math.factorial(2 * m - 1))
    pm_neg = [Fraction((-1) ** r * math.comb(2 * m - 1, m - 1 - r)) for r in range(m)]
    integral = poly_integral_01(poly_pow(pm_neg, 2 * q), extra_power=q - 1)
    coeff = bmm ** (2 * q) * Fraction((-1) ** (q + 1), 2) * integral
    return PiPoly({1: coeff})


def limit_alpha_plus_one_times_b(params) -> float:
    """Limit of (alpha+1) * b(alpha; params) as alpha decreases to -1."""
    params = _as_params(params)
    if len(params) == 0:
        return 2.0
    acc = 1.0
    for a in params:
        acc *= math.sqrt(math.pi) * math.exp(log_gamma(0.5 * (a + 1.0)) - log_gamma(0.5 * (a + 2.0)))
    return acc


def _all_ones(params: ParamMultiset) -> bool:
    return len(params) > 0 and all(v == 1.0 for v in params)


# -- quadrature integrands -------------------------------------------------

def _a_factor(b: float, x: np.ndarray, L: np.ndarray):
    """(log-magnitude, phase) of one imaginary-axis factor, scaled by cosh(x)**-b."""
    g_scaled = cosh_pow_integral_scaled(b, x)
    h_scaled = 0.5 / c_one_dim(0.5 * (b - 1.0)) * np.exp(-b * L)
    # both parts underflow to 0 at the outermost nodes for tiny b: the
    # factor is 0 there and its log -inf, which the caller's exp undoes
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.hypot(h_scaled, g_scaled))
    return log_mag, np.arctan2(g_scaled, h_scaled)


def _a_integrand(alpha: float, params: ParamMultiset, log_weight: bool):
    """Real part of the a integrand, which is even; called at x >= 0 only."""
    betas = params.entries
    tau = alpha - params.total()

    def f(x):
        L = _log_cosh(x)
        logmag = -tau * L
        phase = np.zeros_like(L)
        nodes = x.tobytes()
        for b in betas:
            log_abs, arg = _factor(("a", b, nodes), _a_factor, b, x, L)
            logmag = logmag + log_abs
            phase = phase + arg
        vals = np.exp(logmag) * np.cos(phase)
        if log_weight:
            vals = vals * (-L)
        return vals

    return f


def _a_quadrature(alpha: float, params: ParamMultiset, cfg: QuadConfig, log_weight: bool) -> tuple[float, float]:
    """(value, abs_err_est) of a_fn (or a_prime with log_weight), cached."""
    key = ("a'" if log_weight else "a", alpha, params.entries, _cfg_key(cfg))
    hit = _cache_get(key)
    if hit is None:
        with shared_factors():
            res = quad.integrate_real_line(_a_integrand(alpha, params, log_weight), cfg)
        hit = (res.value, res.abs_err_est)
        _cache_put(key, hit)
    return hit


def _b_factors(betas, t: np.ndarray, upper: bool) -> list[np.ndarray]:
    """One half's segment factors at nodes t, one row per entry of betas.

    The lower half takes each factor at z = sin^2(t/2), the upper half at
    1 - z = cos^2(t/2).  The parameters with no factor at these nodes yet
    get both halves' rows from one call.
    """
    table = _factors.get()
    nodes = t.tobytes()
    missing = [b for b in dict.fromkeys(betas) if ("b", b, upper, nodes) not in table]
    if missing:
        half_t = 0.5 * t
        lows, highs = _f_real_from_z(np.array(missing)[:, None], np.sin(half_t) ** 2, np.cos(half_t) ** 2)
        for b, low, high in zip(missing, lows, highs):
            table["b", b, False, nodes] = low
            table["b", b, True, nodes] = high
    return [table["b", b, upper, nodes] for b in betas]


def _b_quadrature(alpha: float, params: ParamMultiset, cfg: QuadConfig) -> ValueWithError:
    betas = params.entries

    def half(upper: bool):
        def f(t):
            vals = np.sin(t) ** alpha
            for row in _b_factors(betas, t, upper):
                vals = vals * row
            return vals

        return quad.integrate_finite(f, 0.0, 0.5 * math.pi, cfg)

    with shared_factors():
        lo = half(False)
        hi = half(True)
    return ValueWithError(lo.value + hi.value, lo.abs_err_est + hi.abs_err_est, "tanh-sinh")


def a_fn(alpha: float, params, cfg: QuadConfig | None = None, closed_forms: bool = True) -> ValueWithError:
    """Real-line parameter integral; requires alpha > sum(params).

    The integrand's imaginary part is odd and integrates to zero, so the
    quadrature takes the even real part on x >= 0 only.
    """
    params = _as_params(params)
    cfg = cfg or QuadConfig()
    if not alpha > params.total():
        raise ValueError("a_fn requires alpha > sum of parameters")
    if closed_forms:
        if len(params) == 0:
            return ValueWithError(_a_empty(alpha), _REL_CLOSED * abs(_a_empty(alpha)), "closed-form")
        if len(params) == 1:
            v = _a_single(alpha, params.entries[0])
            return ValueWithError(v, _REL_CLOSED * abs(v), "closed-form")
        if _all_ones(params):
            v = a_ones(len(params), alpha)
            return ValueWithError(v, _REL_CLOSED * abs(v) + 1e-300, "closed-form")
    value, err = _a_quadrature(alpha, params, cfg, log_weight=False)
    return ValueWithError(value, err, "de-real-line")


def a_prime(alpha: float, params, cfg: QuadConfig | None = None, closed_forms: bool = True) -> ValueWithError:
    """Derivative of a_fn in its first argument, via the log-weighted integral."""
    params = _as_params(params)
    cfg = cfg or QuadConfig()
    if not alpha > params.total():
        raise ValueError("a_prime requires alpha > sum of parameters")
    if closed_forms and len(params) >= 2 and len(params) % 2 == 0:
        first = params.entries[0]
        if all(v == first for v in params.entries):
            odd = round(first)
            if abs(first - odd) < 1e-12 and odd >= 1 and odd % 2 == 1:
                q = len(params) // 2
                m = (odd + 1) // 2
                if abs(alpha - (2 * q * odd + 1)) < 1e-12:
                    v = a_prime_odd_repeated(m, q).evaluate()
                    return ValueWithError(v, _REL_CLOSED * abs(v), "closed-form")
    value, err = _a_quadrature(alpha, params, cfg, log_weight=True)
    return ValueWithError(value, err, "de-real-line")


def b_fn(alpha: float, params, cfg: QuadConfig | None = None, closed_forms: bool = True) -> ValueWithError:
    """Segment parameter integral; requires alpha > -1."""
    params = _as_params(params)
    cfg = cfg or QuadConfig()
    if not alpha > -1.0:
        raise ValueError("b_fn requires alpha > -1")
    if closed_forms:
        if len(params) == 0:
            v = _b_empty(alpha)
            return ValueWithError(v, _REL_CLOSED * abs(v), "closed-form")
        if len(params) == 1:
            v = _b_single(alpha, params.entries[0])
            return ValueWithError(v, _REL_CLOSED * abs(v), "closed-form")
        if _all_ones(params):
            v = b_ones(len(params), alpha)
            return ValueWithError(v, _REL_CLOSED * abs(v), "closed-form")
    key = ("b", alpha, params.entries, _cfg_key(cfg))
    hit = _cache_get(key)
    if hit is None:
        res = _b_quadrature(alpha, params, cfg)
        hit = (res.value, res.abs_err_est)
        _cache_put(key, hit)
    return ValueWithError(hit[0], hit[1], "tanh-sinh")


def b_fn_alt(alpha: float, params, cfg: QuadConfig | None = None) -> ValueWithError:
    """Alternative segment representation on (-1, 1); used as a cross-check oracle."""
    params = _as_params(params)
    cfg = cfg or QuadConfig()
    if not alpha > -1.0:
        raise ValueError("b_fn_alt requires alpha > -1")
    betas = params.entries
    h_consts = [0.5 / c_one_dim(0.5 * (b - 1.0)) for b in betas]

    def f(v):
        zc = v * (2.0 - v)  # 1 - (1-v)^2, no cancellation
        z = (1.0 - v) ** 2
        weight = zc ** (0.5 * (alpha - 1.0))
        prod_low = np.ones_like(v)
        prod_high = np.ones_like(v)
        for b, hb in zip(betas, h_consts):
            inner = 0.5 * _inc_beta_parts(z, zc, 0.5, 0.5 * (b + 1.0))[0]
            prod_low = prod_low * (hb - inner)
            prod_high = prod_high * (hb + inner)
        return weight * (prod_low + prod_high)

    res = quad.integrate_finite(f, 0.0, 1.0, cfg)
    return ValueWithError(res.value, res.abs_err_est, "tanh-sinh-alt")

