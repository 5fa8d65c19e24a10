"""Parameter integrals with cosh and cos kernels, and their combinations.

``a_fn`` integrates cosh(x)**(-alpha) times a product of imaginary-axis
factors over the real line; ``b_fn`` integrates cos(x)**alpha times a
product of segment factors over (-pi/2, pi/2); the expectation engine
sums products a * (linear factor) * b of them over subsets.  Closed
forms (``_closed_form``) are dispatched for empty, singleton and
all-ones parameter lists; everything else goes through double-exponential
quadrature with stable log-magnitude/phase evaluation of the integrands.

One level loop, ``_integrals``, refines any number of such integrals
together, one refinement level at a time: a query hands it every
integral of its subset classes, and ``a_fn``, ``a_prime`` and ``b_fn``
hand it one.  At each level it makes one ``_a_factors`` call for the
parameters of all live ``a`` integrals and one ``_b_factors`` call per
half of the segment; each integral then evaluates its own integrand on
its own rows and keeps its own stopping rule (``quad.Refinement``), so
its value and error estimate do not depend on what it was batched with.
The ``a`` integrand is evaluated at x >= 0 only: its real part is even
and its imaginary part odd, so the integral is twice that of the real
part over x >= 0.

The factor rows live in one table beside the integral values: a row is
evaluated once per parameter and node set and reused by every later
integral on those nodes, in the same query or a later one, until
``clear_cache``.  The table holds at most ``_FACTOR_BUDGET`` bytes of
rows and drops the oldest first; a dropped row is computed again when
next needed, to the same bits.  A ``b`` node set gets the factors of all
its missing parameters, for both halves, from one incomplete-beta call,
and an ``a`` node set gets those of all its missing parameters from one
cosh-power kernel call.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
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
    complete_beta_rel_err,
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


# -- caches --------------------------------------------------------------

_cache_lock = threading.Lock()
_cache: dict = {}

# integrand factor rows, keyed ("a", b, nodes) or ("b", b, upper, nodes)
# with nodes the bytes of the abscissae; each entry is (row, bytes charged:
# the row's and its key's abscissae).
# One query's rows reach about 3 MB (d = 5, near-ideal betas, level 12).
_FACTOR_BUDGET = 16 << 20
_factor_rows: OrderedDict = OrderedDict()
_factor_bytes = 0


def clear_cache() -> None:
    """Drop the cached integral values and integrand factor rows."""
    global _factor_bytes
    with _cache_lock:
        _cache.clear()
        _factor_rows.clear()
        _factor_bytes = 0


def _cache_get(key):
    with _cache_lock:
        return _cache.get(key)


def _cache_put(key, value):
    with _cache_lock:
        _cache[key] = value


def _cfg_key(cfg: QuadConfig):
    return (cfg.rel_tol, cfg.abs_tol, cfg.max_level)


def _held_factors(betas, key) -> tuple[dict, list]:
    """The rows held for the distinct betas under key(b), and the betas with none."""
    unique = dict.fromkeys(betas)
    rows = {}
    with _cache_lock:
        for b in unique:
            hit = _factor_rows.get(key(b))
            if hit is not None:
                rows[b] = hit[0]
    return rows, [b for b in unique if b not in rows]


def _hold_factors(rows: dict, row_bytes: int) -> None:
    """Add rows (key -> row) of row_bytes each; drop the oldest while over the budget.

    Each row is charged row_bytes plus the length of its key's abscissae
    bytes (key[-1]), an upper bound, since the keys of one call share
    that bytes object.  Callers keep the rows they pass and never read
    them back, so a row evicted at once (or by another thread) is not
    missed.
    """
    global _factor_bytes
    with _cache_lock:
        for key, row in rows.items():
            if key not in _factor_rows:  # another thread may have added the same row
                charged = row_bytes + len(key[-1])
                _factor_rows[key] = (row, charged)
                _factor_bytes += charged
        while _factor_bytes > _FACTOR_BUDGET:
            _, (_, nbytes) = _factor_rows.popitem(last=False)
            _factor_bytes -= nbytes


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

def _a_factors(betas, x: np.ndarray, L: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(log-magnitude, phase) rows of the imaginary-axis factors at nodes x, scaled by cosh(x)**-b.

    One pair per entry of betas; L is log cosh(x).  The parameters with no
    row held at these nodes get theirs from one kernel call.
    """
    nodes = x.tobytes()
    rows, missing = _held_factors(betas, lambda b: ("a", b, nodes))
    if missing:
        col = np.array(missing)[:, None]
        g_scaled = cosh_pow_integral_scaled(col, x)
        h_scaled = np.array([[0.5 / c_one_dim(0.5 * (b - 1.0))] for b in missing]) * np.exp(-col * L)
        # both parts underflow to 0 at the outermost nodes for tiny b: the
        # factor is 0 there and its log -inf, which the caller's exp undoes
        with np.errstate(divide="ignore"):
            log_mag = np.log(np.hypot(h_scaled, g_scaled))
        phase = np.arctan2(g_scaled, h_scaled)
        log_mag.flags.writeable = phase.flags.writeable = False  # rows outlive this query
        new = dict(zip(missing, zip(log_mag, phase)))
        rows.update(new)
        _hold_factors({("a", b, nodes): row for b, row in new.items()}, log_mag[0].nbytes + phase[0].nbytes)
    return [rows[b] for b in betas]


def _b_factors(betas, t: np.ndarray, upper: bool) -> list[np.ndarray]:
    """One half's segment factors at nodes t, one row per entry of betas.

    The lower half takes each factor at z = sin^2(t/2), the upper half at
    1 - z = cos^2(t/2).  The parameters with no row held at these nodes
    get both halves' rows from one call.
    """
    nodes = t.tobytes()
    rows, missing = _held_factors(betas, lambda b: ("b", b, upper, nodes))
    if missing:
        half_t = 0.5 * t
        lows, highs = _f_real_from_z(np.array(missing)[:, None], np.sin(half_t) ** 2, np.cos(half_t) ** 2)
        lows.flags.writeable = highs.flags.writeable = False  # rows outlive this query
        new = {}
        for b, low, high in zip(missing, lows, highs):
            rows[b] = high if upper else low
            new["b", b, False, nodes] = low
            new["b", b, True, nodes] = high
        _hold_factors(new, lows[0].nbytes)
    return [rows[b] for b in betas]


def _a_body(tau: float, betas, log_weight: bool, x: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Real part of the a integrand (times -L for a_prime) at nodes x >= 0; it is even."""
    logmag = -tau * L
    phase = np.zeros_like(L)
    for log_abs, arg in _a_factors(betas, x, L):
        logmag = logmag + log_abs
        phase = phase + arg
    vals = np.exp(logmag) * np.cos(phase)
    return vals * (-L) if log_weight else vals


def _b_body(alpha: float, betas, upper: bool, t: np.ndarray, sin_t: np.ndarray) -> np.ndarray:
    """One half of the b integrand at nodes t in (0, pi/2), t the distance to the endpoint."""
    vals = sin_t**alpha
    for row in _b_factors(betas, t, upper):
        vals = vals * row
    return vals


def _prefetch_union(states) -> tuple:
    """The parameters of all states, or () when the first state's own factor call fetches them all."""
    if len(states) < 2:
        return ()
    union = set().union(*[state[1] for state in states])
    return () if len(union) == len(set(states[0][1])) else tuple(union)


# the nodes level 0 adds at the centre of each interval: x = 0 and t = pi/4
_HALF_PI = 0.5 * math.pi
_A_CENTRE = np.zeros(1)
_L_CENTRE = _log_cosh(_A_CENTRE)
_B_CENTRE = np.array([0.5 * _HALF_PI])
_B_SIN_CENTRE = np.sin(_B_CENTRE)
for _row in (_A_CENTRE, _L_CENTRE, _B_CENTRE, _B_SIN_CENTRE):
    _row.flags.writeable = False
del _row


def _line_level(states: list, level: int) -> list:
    """Add one real-line level to each a integral (tau, betas, log_weight, run); returns the live ones.

    The level's factor rows of every integral come from one _a_factors
    call, and the level-0 centre's from one more: a call for all their
    parameters, or the first integral's own call where that holds them
    all.  Each integral then takes its rows from the table, as a
    one-integral call would.
    """
    x, weight = quad._line_nodes(level)
    L = _log_cosh(x)
    live = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        union = _prefetch_union(states)
        if union:
            _a_factors(union, x, L)
            if level == 0:
                _a_factors(union, _A_CENTRE, _L_CENTRE)
        for state in states:
            tau, betas, log_weight, run = state
            vals = 2.0 * (_a_body(tau, betas, log_weight, x, L) * weight)
            if level == 0:
                vals = np.append(vals, _a_body(tau, betas, log_weight, _A_CENTRE, _L_CENTRE))
            if not run.add(math.fsum(vals.tolist())):
                live.append(state)
    return live


def _segment_level(states: list, level: int) -> list:
    """Add one tanh-sinh level to each b half (alpha, betas, upper, run); returns the live ones.

    Per half, the level's factor rows of every integral come from one
    _b_factors call, and the level-0 centre's from one more, as in
    _line_level; the lower half's call also holds the upper rows.
    """
    t, weight = quad._finite_abscissae(0.0, _HALF_PI, level)
    sin_t = np.sin(t)
    live = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for upper in (False, True):
            half = [state for state in states if state[2] is upper]
            union = _prefetch_union(half)
            if union:
                _b_factors(union, t, upper)
                if level == 0:
                    _b_factors(union, _B_CENTRE, upper)
            for state in half:
                alpha, betas, _, run = state
                vals = _b_body(alpha, betas, upper, t, sin_t) * weight
                if level == 0:
                    vals = np.append(vals, _b_body(alpha, betas, upper, _B_CENTRE, _B_SIN_CENTRE) * _HALF_PI)
                if not run.add(0.5 * _HALF_PI * math.fsum(vals.tolist())):
                    live.append(state)
    return live


def _integrals(requests, cfg: QuadConfig) -> list[tuple[float, float]]:
    """(value, abs_err_est) of each quadrature integral (kind, alpha, params) in requests.

    kind is "a", "a'" (a_prime's log-weighted integral) or "b".  Values
    found in the cache are reused; the others are refined together, one
    level at a time (``_line_level``, ``_segment_level``), each b as its
    two halves.  Every integral keeps its own stopping rule
    (``quad.Refinement``) and its own integrand, so its value and error
    estimate are those of a one-integral call, in every bit.  Raises the
    QuadratureError of the first request that did not converge, a b's
    lower half before its upper half.
    """
    ckey = _cfg_key(cfg)
    keys = [(kind, alpha, params.entries, ckey) for kind, alpha, params in requests]
    found = {key: _cache_get(key) for key in keys}
    line, segment = {}, {}
    for key, hit in found.items():
        if hit is None:
            kind, alpha, betas, _ = key
            if kind == "b":
                segment[key] = [(alpha, betas, upper, quad.Refinement(cfg, "tanh-sinh")) for upper in (False, True)]
            else:
                line[key] = (alpha - math.fsum(betas), betas, kind == "a'", quad.Refinement(cfg, "de-real-line"))
    live_line = list(line.values())
    live_segment = [half for halves in segment.values() for half in halves]
    level = 0
    while live_line or live_segment:
        if live_line:
            live_line = _line_level(live_line, level)
        if live_segment:
            live_segment = _segment_level(live_segment, level)
        level += 1
    for key, hit in found.items():
        if hit is None:
            if key in line:
                res = line[key][-1].result()
            else:
                lo, hi = (run.result() for *_, run in segment[key])
                # each upper row is B(p, p) - B_z(p, p) >= B/2, p = (beta + 1)/2, so its
                # relative error is at most twice that of the complete B(p, p)
                rel = {b: complete_beta_rel_err(0.5 * (b + 1.0), 0.5 * (b + 1.0)) for b in set(key[2])}
                rows_err = abs(hi.value) * math.fsum(2.0 * rel[b] for b in key[2])
                res = ValueWithError(lo.value + hi.value, lo.abs_err_est + hi.abs_err_est + rows_err, "tanh-sinh")
            found[key] = (res.value, res.abs_err_est)
            _cache_put(key, found[key])
    return [found[key] for key in keys]


def _closed_form(kind: str, alpha: float, params: ParamMultiset) -> ValueWithError | None:
    """The closed-form value of integral kind ("a", "a'" or "b") where there is one, else None.

    a and b: empty, singleton and all-ones parameter lists; a': 2q equal
    odd parameters at the vanishing point alpha = 2q*odd + 1.
    """
    n, entries = len(params), params.entries
    floor = 0.0
    if kind == "a'":
        if not (n >= 2 and n % 2 == 0 and len(set(entries)) == 1):
            return None
        odd, q = round(entries[0]), n // 2
        if not (abs(entries[0] - odd) < 1e-12 and odd % 2 == 1 and abs(alpha - (2 * q * odd + 1)) < 1e-12):
            return None
        v = a_prime_odd_repeated((odd + 1) // 2, q).evaluate()
    elif n == 0:
        v = _a_empty(alpha) if kind == "a" else _b_empty(alpha)
    elif n == 1:
        v = (_a_single if kind == "a" else _b_single)(alpha, entries[0])
    elif _all_ones(params):
        v = (a_ones if kind == "a" else b_ones)(n, alpha)
        floor = 1e-300 if kind == "a" else 0.0  # a_ones is 0 at its vanishing points
    else:
        return None
    return ValueWithError(v, _REL_CLOSED * abs(v) + floor, "closed-form")


def _integral(kind: str, alpha: float, params: ParamMultiset, cfg: QuadConfig, closed_forms: bool) -> ValueWithError:
    """One integral: its closed form when allowed and known, else a one-request level loop."""
    closed = _closed_form(kind, alpha, params) if closed_forms else None
    if closed is not None:
        return closed
    value, err = _integrals([(kind, alpha, params)], cfg)[0]
    return ValueWithError(value, err, "tanh-sinh" if kind == "b" else "de-real-line")


def a_fn(alpha: float, params, cfg: QuadConfig | None = None, closed_forms: bool = True) -> ValueWithError:
    """Real-line parameter integral; requires alpha > sum(params).

    The integrand's imaginary part is odd and integrates to zero, so the
    quadrature takes the even real part on x >= 0 only.
    """
    params = _as_params(params)
    if not alpha > params.total():
        raise ValueError("a_fn requires alpha > sum of parameters")
    return _integral("a", alpha, params, cfg or QuadConfig(), closed_forms)


def a_prime(alpha: float, params, cfg: QuadConfig | None = None, closed_forms: bool = True) -> ValueWithError:
    """Derivative of a_fn in its first argument, via the log-weighted integral."""
    params = _as_params(params)
    if not alpha > params.total():
        raise ValueError("a_prime requires alpha > sum of parameters")
    return _integral("a'", alpha, params, cfg or QuadConfig(), closed_forms)


def b_fn(alpha: float, params, cfg: QuadConfig | None = None, closed_forms: bool = True) -> ValueWithError:
    """Segment parameter integral; requires alpha > -1."""
    params = _as_params(params)
    if not alpha > -1.0:
        raise ValueError("b_fn requires alpha > -1")
    return _integral("b", alpha, params, cfg or QuadConfig(), closed_forms)


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

