"""Parameter integrals with cosh and cos kernels, and their combinations.

``a_fn`` integrates cosh(x)**(-alpha) times a product of imaginary-axis
factors over the real line; ``b_fn`` integrates cos(x)**alpha times a
product of segment factors F_j over (-pi/2, pi/2); the expectation
engine sums products a * (alpha+1) * b of them over subsets.  Each
integral is a request to ``_integrals``: closed forms (``_closed_form``)
for empty, singleton and all-ones parameter lists, everything else
double-exponential quadrature with stable log-magnitude/phase evaluation.

Every factor row is divided by its total B_j = F_j(pi/2) = 1/c_j, c_j
the point's normalizing constant: so every integral here, closed forms
included, is the normalized a~ = prod c_j * a or b~ = prod c_j * b,
and only the public ``a_fn``, ``a_prime`` and ``b_fn`` multiply by P =
prod B_j, which can leave the double range.

A ``"b"`` integral is (alpha+1) * b~(alpha; p), finite down to the pole
alpha = -1 that ideal points reach, where it is 1 (2 with no
parameters) and no quadrature runs.  Above the pole it is the closed
term (1/2) * (alpha+1) * b(alpha; ()) plus (alpha+1) times one tanh-sinh
quadrature over t in (0, pi/2), t the distance to the endpoint.  Its
integrand is the lower half-segment, cos**alpha * prod F~_j as it is,
plus the upper half-segment less 1,
sin(t)**alpha * expm1(sum_j log1p(-F~_j(t - pi/2))), which is O(t) at
the endpoint, so no mass sits below the smallest tanh-sinh node.  Its
stopping rule is relative to b: the closed term over alpha+1 is the
offset of its ``quad.Refinement``.  So each b has one integral and one
error estimate.

``_integrals`` takes any number of such integrals: a query hands it
every integral of its subset classes, closed forms included, and
``a_fn``, ``a_prime`` and ``b_fn`` one.  It runs ``quad.refine`` twice
over the rest, once over the ``a`` and once over the ``b`` integrals, so they take
``quad``'s steps of refinement levels: the first covers levels 0..5,
where nearly every integral stops at the default tolerance, and every
later step one level, so a default query makes one kernel call per
kind.  At each step it fetches the factor rows of the parameters of all
live integrals of the kind at all the step's nodes with one
``_level_rows`` call, hands each integral its own rows, evaluates each
integrand once, and adds the step's levels to its refinement
(``quad.Refinement.add_levels``), stopping at the same level as a
one-level-per-step loop.  Its integrand is a pure function of those
rows, and it keeps its own stopping rule, so its value and error
estimate do not depend on what it was batched with.
The ``a`` integrand is evaluated at x >= 0 only: its real part is even
and its imaginary part odd, so the integral is twice that of the real
part over x >= 0.  A step's real-line nodes reach x = 1.4e153, but every
``a`` integrand is exp(-tau log cosh x + sum_j log|factor_j|) cos(phase)
with |factor_j| <= 1/2 + x/B_j, which is 0.0 in double precision far
below that: a step evaluates its rows and integrands only at its nodes
x <= 2**j, j from the least tau, the largest parameter count and the
least total B of its live integrals (``_cut_exponent``), past which
every one of them is exactly 0.0.  So each level's fsum, and every
value and bar, has the bits of the whole step's.

One table holds the integral values and the factor rows until
``clear_cache``: a value under (kind, alpha, params, cfg), charged a
fixed ``_VALUE_BYTES``, and a row pair under ("a", beta, level, j) or
("b", beta, level), level the first level of the step and j the cut of
its ``a`` nodes, charged its arrays' bytes.  ``quad``'s node tables are
read-only, so a step's nodes are fixed and a row pair is evaluated once
per parameter, step and cut, then reused by every later refinement, in
the same query or a later one.  The table holds at
most ``_BUDGET`` bytes and drops the oldest entries first; a dropped
value or row is computed again, to the same bits, by the next call
that needs it.  The rows of all parameters a step lacks come from one
kernel call per kind: the cosh-power kernel for ``a`` (``_a_factors``),
the sin-power series for ``b``, one row and its log1p complement
(``_b_factors``), each divided by its total.  Both kernels are
elementwise in their nodes, so a row has the same bits in any step.

A step's kept real-line nodes, with their weights and level cuts, and
what the cosh-power kernel derives from them alone are built once per
step and cut and held read-only beside ``quad``'s node tables, in a
cache of at most 32 tables: ``_line_table``, whose
``specfun.CoshPowNodes`` the kernel takes in place of the nodes (log
cosh x, which the ``a`` integrands read too, the Gauss-Legendre matrix
and the series' and recurrence's arrays of x).  So an ``a`` kernel call
does only the work of its parameters, at the kept nodes only.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from collections import OrderedDict
from fractions import Fraction

import numpy as np

from . import quad
from .exact import PiPoly, poly_integral_01, poly_pow
from .quad import QuadConfig, QuadratureError, ValueWithError
from .specfun import (
    _SIN_MAX_BETA,
    _SQRT_PI,
    _U,
    CoshPowNodes,
    _f_real_from_z,
    _inc_beta_parts,
    cosh_pow_integral_scaled,
    f_real_total,
    gamma_quotient,
    quotient_err,
)

__all__ = [
    "NotRepresentableError",
    "ParamMultiset",
    "a_fn",
    "b_fn",
    "b_fn_alt",
    "a_prime",
    "a_ones",
    "b_ones",
    "a_prime_odd_repeated",
    "clear_cache",
]

class NotRepresentableError(ArithmeticError):
    """A value of the engine beyond the double range: the held product P of the F_j(pi/2) that
    the public a_fn, a_prime and b_fn multiply by, or, in expect's subset sums, a multiplicity
    or a class term that is not finite.  The CLI exits 3, "not-representable".
    """


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


# -- the table -----------------------------------------------------------

# Integral values and factor row pairs, oldest first (module docstring);
# each entry is (payload, bytes charged).  A row pair of the step over
# levels 0..5 takes 1.4 KB (a, cut at j = 10; 3.4 KB uncut) or 4.8 KB (b),
# and one query of the 14 s distinct-betas and sweep plans holds at most
# 43 KB of rows (d = 4, n = 7); the rows of levels 0..12 take 0.18 MB (a at
# j = 10; 0.43 MB uncut) or 0.61 MB (b) per parameter.
_BUDGET = 16 << 20
_VALUE_BYTES = 512  # a value entry takes about 470 B (tracemalloc, 3,724 entries)
_table_lock = threading.Lock()
_table: OrderedDict = OrderedDict()
_table_bytes = 0


def clear_cache() -> None:
    """Drop the cached integral values and integrand factor rows."""
    global _table_bytes
    with _table_lock:
        _table.clear()
        _table_bytes = 0


def _cache_get(key):
    """The (value, abs_err_est) held for an integral key, or None."""
    with _table_lock:
        hit = _table.get(key)
    return None if hit is None else hit[0]


def _hold(entries: dict) -> None:
    """Add entries (key -> (payload, bytes charged)) not yet held; drop the oldest while over _BUDGET.

    Callers keep the payloads they pass, so an entry dropped at once (or
    by another thread) is not missed.
    """
    global _table_bytes
    with _table_lock:
        for key, entry in entries.items():
            if key not in _table:  # another thread may have added the same entry
                _table[key] = entry
                _table_bytes += entry[1]
        while _table_bytes > _BUDGET:
            _, (_, nbytes) = _table.popitem(last=False)
            _table_bytes -= nbytes


# -- closed forms ---------------------------------------------------------

def a_ones(d: int, alpha: float) -> float:
    """Closed form for d repeated unit parameters, alpha > d.

    pi Gamma(2z) 2**(1 - 2z) / (Gamma(v) Gamma(v - d)), 2z = alpha - d and v = (alpha + 1)/2, is by the
    duplication formula sqrt(pi) times R(z) at odd d, over R(z) at even d, times the (alpha - c)/2 over
    odd c in (d, 2d), over those over odd c <= d.  It is 0 exactly where v - d is a pole: a factor is 0.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if not alpha > d:
        raise ValueError("a_ones requires alpha > d")
    z = 0.5 * (alpha - d)
    num = [0.5 * (alpha - c) for c in range(d + 1 + d % 2, 2 * d, 2)]
    den = [0.5 * (alpha - c) for c in range(1, d + 1, 2)]
    return gamma_quotient(_SQRT_PI, num, den, up=z if d % 2 else None, down=None if d % 2 else z)[0]


def b_ones(d: int, alpha: float) -> float:
    """Closed form for d repeated unit parameters, alpha > -1.

    2**(alpha + d) Gamma(v) Gamma(v + d) / Gamma(alpha + d + 1), v = (alpha + 1)/2, is by the duplication
    formula sqrt(pi) / R(v) times the v + j over d/2 <= j < d, over the v + 1/2 + j over j < floor(d/2).
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if not alpha > -1.0:
        raise ValueError("b_ones requires alpha > -1")
    num = [0.5 * (alpha + (2 * j + 1)) for j in range((d + 1) // 2, d)]
    den = [0.5 * (alpha + 2 * j) for j in range(1, d // 2 + 1)]
    return gamma_quotient(_SQRT_PI, num, den, down=0.5 * (alpha + 1.0))[0]


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


def _held_product(betas) -> float:
    """P, the product of the B_j = F_j(pi/2); raises NotRepresentableError where it is not a normal float."""
    P = math.prod(f_real_total(b) for b in betas)
    if not sys.float_info.min <= P < math.inf:
        raise NotRepresentableError(f"the product P of {len(betas)} totals F(pi/2) is {P:g}, beyond the float range")
    return P


# -- quadrature integrands -------------------------------------------------

def _a_factors(betas, nodes: CoshPowNodes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(log-magnitude, phase) rows of the normalized imaginary-axis factors 0.5 + i g/B at nodes x, scaled by cosh(x)**-b.

    One read-only pair per entry of betas, from one kernel call on the
    nodes' table; B is its total F(pi/2) and nodes.L is log cosh(x).
    """
    col = np.array(betas)[:, None]
    g_scaled = cosh_pow_integral_scaled(col, nodes) / np.array([[f_real_total(b)] for b in betas])
    h_scaled = 0.5 * np.exp(-col * nodes.L)
    # both parts underflow to 0 at the outermost nodes for tiny b: the
    # factor is 0 there and its log -inf, which the caller's exp undoes
    with np.errstate(divide="ignore"):
        log_mag = np.log(np.hypot(h_scaled, g_scaled))
    phase = np.arctan2(g_scaled, h_scaled)
    log_mag.flags.writeable = phase.flags.writeable = False  # the table holds rows past this query
    return list(zip(log_mag, phase))


def _b_factors(betas, t: np.ndarray, sin_t: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read-only normalized (F~, log1p(-F~)) at nodes t, F~ = F(t - pi/2)/F(pi/2), for each of betas from one sin-power call."""
    rows = _f_real_from_z(np.array(betas)[:, None], np.sin(0.5 * t) ** 2, sin_t)
    rows = rows / np.array([[f_real_total(b)] for b in betas])
    comps = np.log1p(-rows)
    rows.flags.writeable = comps.flags.writeable = False  # the table holds rows past this query
    return list(zip(rows, comps))


def _level_rows(kind: str, params: tuple, step: tuple, compute) -> dict:
    """The row pair of each distinct parameter of kind ("a" or "b") at the step's nodes, by parameter.

    step names the nodes: (first level,) for b, (first level, j) for a,
    whose nodes are those x <= 2**j (_line_table).  Row pairs are held
    under (kind, beta, *step).

    Pairs held in the table are reused; compute(missing) gives those of
    all the others from one kernel call, and they are held for later.
    """
    rows = {}
    with _table_lock:
        for b in params:
            hit = _table.get((kind, b, *step))
            if hit is not None:
                rows[b] = hit[0]
    missing = [b for b in params if b not in rows]
    if missing:
        new = dict(zip(missing, compute(missing)))
        rows.update(new)
        _hold({(kind, b, *step): (pair, pair[0].nbytes + pair[1].nbytes) for b, pair in new.items()})
    return rows


def _a_body(tau: float, rows, log_weight: bool, L: np.ndarray) -> np.ndarray:
    """Real part of the a integrand (times -L for a_prime) from its factor rows; it is even.

    rows holds the (log-magnitude, phase) pair of each parameter at nodes
    x >= 0 with log cosh(x) = L.
    """
    logmag = -tau * L
    phase = np.zeros_like(L)
    for log_abs, arg in rows:
        logmag = logmag + log_abs
        phase = phase + arg
    vals = np.exp(logmag) * np.cos(phase)
    return vals * (-L) if log_weight else vals


def _b_body(alpha: float, rows, sin_t: np.ndarray) -> np.ndarray:
    """The b integrand at nodes t in (0, pi/2) from its normalized (row, complement) pairs: the lower half plus the upper less 1."""
    lower, acc = rows[0]
    for row, comp in rows[1:]:
        lower = lower * row
        acc = acc + comp
    return sin_t**alpha * (lower + np.expm1(acc))


def _level_params(states) -> tuple:
    """The distinct parameters of all states, in first-seen order."""
    return tuple(dict.fromkeys(b for state in states for b in state[1]))


_HALF_PI = 0.5 * math.pi
_LOG_2 = math.log(2.0)


# exp rounds every log-magnitude below -745.14 to 0.0; the cut (_cut_exponent)
# asks for 760, a margin over the roundings of a log-magnitude near 1e3
_UNDERFLOW_LOG = 760.0
# 2**_FULL_J is above every real-line node (quad._TMAX_LINE caps them near
# 1.4e153 < 2**508), so the table of j = _FULL_J holds the whole step
_FULL_J = 510


def _cut_exponent(states) -> int:
    """A j such that every a integrand of states (tau, betas, log_weight, run) is 0.0 at every node x > 2**j.

    A factor row is |1/2 e^(-b L) + i s_b/B_b| <= 1/2 + x/B_b, as s_b(x),
    the kernel's g(b, x) cosh(x)**-b, is at most x for b >= 0, and
    L = log cosh x >= x - log 2.  So an integrand's log-magnitude is at
    most -phi(x) = -(tau (x - log 2) - k log(1/2 + x/B)), tau the least
    tau of states, k their largest parameter count and B the least total;
    at x >= 2 > B/2 each log is >= 0.  j rises from log2 of the x where
    tau (x - log 2) alone reaches _UNDERFLOW_LOG until phi(2**j) >=
    _UNDERFLOW_LOG and phi'(2**j) >= 0: phi is convex, so it stays above
    past 2**j, and exp gives 0.0 at every node there.  tau <= 0 gives
    _FULL_J.
    """
    tau = min(state[0] for state in states)
    k = max(len(state[1]) for state in states)
    B = min((f_real_total(b) for state in states for b in state[1]), default=math.inf)
    start = _LOG_2 + _UNDERFLOW_LOG / tau if tau > 0.0 else math.inf
    if not start < 2.0**_FULL_J:
        return _FULL_J
    j = max(1, math.ceil(math.log2(start)))
    while j < _FULL_J:
        x = 2.0**j
        if tau * (x - _LOG_2) - k * math.log(0.5 + x / B) >= _UNDERFLOW_LOG and tau * (0.5 * B + x) >= k:
            break
        j += 1
    return j


@functools.lru_cache(maxsize=32)
def _line_table(levels: range, j: int) -> tuple[np.ndarray, tuple[int, ...], CoshPowNodes]:
    """The step's real-line nodes x <= 2**j (``quad._line_step_cut``), read-only: their weights, cuts and CoshPowNodes.

    j = _FULL_J keeps every node.  The CoshPowNodes holds what the
    cosh-power kernel derives from the nodes alone.  At most 32 tables
    are held, each no larger than its whole step's (README).
    """
    x, weight, cuts = quad._line_step_cut(levels, 2.0**j)
    return weight, cuts, CoshPowNodes(x)


def _line_step(states: list, levels: range) -> list:
    """Add one refinement step's levels to each a integral (tau, betas, log_weight, run); returns the live ones.

    The a rows and integrands are evaluated only at the step's nodes
    x <= 2**j, j = _cut_exponent(states): every integrand of the step is
    0.0 at the others, so each level's fsum, and every value and bar, has
    the bits of the whole step's.  The step's factor rows of every
    integral come from one _level_rows call for all their parameters,
    held under the step's first level and j; each integral's integrand
    is then one pass over its own rows at the kept nodes, summed and
    added level by level.
    """
    j = _cut_exponent(states)
    weight, cuts, nodes = _line_table(levels, j)
    params = _level_params(states)
    live = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rows = _level_rows("a", params, (levels.start, j), lambda missing: _a_factors(missing, nodes))
        for state in states:
            tau, betas, log_weight, run = state
            vals = 2.0 * (_a_body(tau, [rows[b] for b in betas], log_weight, nodes.L) * weight)
            if not run.add_levels(vals.tolist(), cuts, 1.0):
                live.append(state)
    return live


def _segment_step(states: list, levels: range) -> list:
    """Add one step's tanh-sinh levels to each b integral (alpha, betas, run), as _line_step; returns the live ones."""
    t, weight, cuts = quad._finite_step_abscissae(0.0, _HALF_PI, levels)
    sin_t = np.sin(t)
    params = _level_params(states)
    live = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rows = _level_rows("b", params, (levels.start,), lambda missing: _b_factors(missing, t, sin_t))
        for state in states:
            alpha, betas, run = state
            vals = _b_body(alpha, [rows[b] for b in betas], sin_t) * weight
            if not run.add_levels(vals.tolist(), cuts, 0.5 * _HALF_PI):
                live.append(state)
    return live


def _times_b(alpha: float, betas, offset: float, res: ValueWithError) -> ValueWithError:
    """(alpha+1) * b and its bar from a b integral's quadrature result res, whose closed term is offset."""
    held = (alpha + 1.0) * offset
    value = held + (alpha + 1.0) * res.value
    # both halves are >= 0, so at most |value|: a lower row F_j(t - pi/2)/B_j errs by the row's stated
    # bound (_f_real_from_z), B_j's and a rounding, an upper factor 1 - F~_j >= 1/2 by no more, and two roundings
    rows_err = abs(value) * math.fsum(2.0 * quotient_err(0) + max(5e-15, 1.5e-16 * b) + 2.0 * _U for b in betas)
    # the closed term (alpha + 1) * 0.5 * b(alpha; ()): b's bound and three roundings
    err = (alpha + 1.0) * res.abs_err_est + rows_err + (quotient_err(0) + 3.0 * _U) * abs(held)
    return ValueWithError(value, err, "tanh-sinh")


def _integrals(requests, cfg: QuadConfig, closed_forms: bool) -> list[ValueWithError]:
    """The normalized value and bar of each integral (kind, alpha, params) in requests, in order.

    kind is "a", "a'" (a_prime's log-weighted integral) or "b", which is
    (alpha+1) * b, alpha > -1 (module docstring).  Each takes its closed
    form where allowed and known (``_closed_form``), else its value held
    in the table, else quadrature, the method "de-real-line" for a and a'
    and "tanh-sinh" for b: those are refined together by ``quad.refine``,
    the a integrals with ``_line_step``, then the b integrals with
    ``_segment_step``, each with its own stopping rule (``quad.Refinement``)
    and integrand, so its value and bar are those of a one-integral call,
    in every bit.  Its floor is abs_tol / P, P the product of its totals,
    where that is tighter than abs_tol (README); an a or a' bar adds
    |value| times its totals' bounds, and a b integral's stopping rule is
    relative to b: its offset is the closed term over alpha+1.  Raises the
    QuadratureError of the first request that did not converge, for a b
    with the estimate of (alpha+1) * b, and ValueError, before any kernel
    runs, for a parameter bound for quadrature at or above
    specfun._SIN_MAX_BETA, the bound of the b rows' sin-power series.
    """
    out = [_closed_form(kind, alpha, params, closed_forms) for kind, alpha, params in requests]
    keys = {i: (kind, alpha, params.entries, cfg) for i, (kind, alpha, params) in enumerate(requests) if out[i] is None}
    top = max((b for key in keys.values() for b in key[2]), default=0.0)
    if top >= _SIN_MAX_BETA:
        raise ValueError(f"quadrature parameter {top:g} is beyond the kernels' range: each must be below {_SIN_MAX_BETA:g}")
    found = {key: _cache_get(key) for key in keys.values()}
    line, segment = {}, {}
    for key, hit in found.items():
        if hit is None:
            kind, alpha, betas, _ = key
            floor = cfg.abs_tol / max(1.0, math.prod(f_real_total(b) for b in betas))
            if kind == "b":
                segment[key] = (alpha, betas, quad.Refinement(cfg, "tanh-sinh", 0.5 * f_real_total(alpha), floor=floor))
            else:
                line[key] = (alpha - math.fsum(betas), betas, kind == "a'", quad.Refinement(cfg, "de-real-line", floor=floor))
    quad.refine(list(line.values()), _line_step)
    quad.refine(list(segment.values()), _segment_step)
    for key, hit in found.items():
        if hit is None:
            if key in line:
                res = line[key][-1].result()
                res.abs_err_est += abs(res.value) * len(key[2]) * (quotient_err(0) + 2.0 * _U)  # the totals B_j
            else:
                alpha, betas, run = segment[key]
                try:
                    res = _times_b(alpha, betas, run.offset, run.result())
                except QuadratureError as exc:
                    exc.estimate = _times_b(alpha, betas, run.offset, exc.estimate)
                    raise
            found[key] = (res.value, res.abs_err_est)
            _hold({key: (found[key], _VALUE_BYTES)})
    for i, key in keys.items():
        out[i] = ValueWithError(*found[key], "tanh-sinh" if key[0] == "b" else "de-real-line")
    return out


def _closed_form(kind: str, alpha: float, params: ParamMultiset, closed_forms: bool = True) -> ValueWithError | None:
    """The normalized closed-form value of integral kind ("a", "a'" or "b", which is (alpha+1) * b) where known, else None.

    a and b: empty, singleton and all-ones parameter lists, b at alpha = -1;
    a': 2q equal odd parameters at the vanishing point alpha = 2q*odd + 1.
    b with no parameters (no factor tames its lower half) and b at alpha = -1 (the limit 1, or 2
    with none, where no quadrature runs) are closed even without closed_forms.  The bar is |value| times
    the bound of the form's specfun.gamma_quotient values (quotient_err) and of the roundings joining them.
    """
    n, entries = len(params), params.entries
    if not (closed_forms or (kind == "b" and (n == 0 or alpha == -1.0))):
        return None
    if kind == "b" and alpha == -1.0:
        v, rel = (1.0 if n else 2.0), 0.0
    elif kind == "a'":
        if not (n >= 2 and n % 2 == 0 and len(set(entries)) == 1):
            return None
        odd, q = round(entries[0]), n // 2
        if not (abs(entries[0] - odd) < 1e-12 and odd % 2 == 1 and abs(alpha - (2 * q * odd + 1)) < 1e-12):
            return None
        c = Fraction(math.factorial(odd), 2**odd * math.factorial(odd // 2) ** 2)  # 1/F_odd(pi/2), its B(m, m) cancels
        v, rel = (a_prime_odd_repeated((odd + 1) // 2, q) * c ** (2 * q)).evaluate(), _U  # correctly rounded
    elif n < 2:  # a(alpha; ()) = sqrt(pi) / R(alpha/2) or b(alpha; ()) = F_alpha(pi/2); one parameter halves it
        v, rel = gamma_quotient(_SQRT_PI, down=0.5 * alpha) if kind == "a" else (f_real_total(alpha), quotient_err(0))
        v = math.ldexp(v, -n)
    elif all(p == 1.0 for p in entries):  # each total F_1(pi/2) is 2
        v, rel = math.ldexp(a_ones(n, alpha) if kind == "a" else b_ones(n, alpha), -n), quotient_err(n)
    else:
        return None
    if kind == "b" and alpha != -1.0:
        v, rel = (alpha + 1.0) * v, rel + 2.0 * _U  # the rounding of alpha + 1 and the product
    return ValueWithError(v, rel * abs(v), "closed-form")


def _integral(
    kind: str, alpha: float, params: ParamMultiset, cfg: QuadConfig, closed_forms: bool, per: float = 1.0
) -> ValueWithError:
    """The integral of the rows as they are over per: P times the one-request ``_integrals`` call; the bar adds P's bound."""
    P = _held_product(params.entries)
    scale = P / per
    rel = len(params) * (quotient_err(0) + _U) + 2.0 * _U  # P's totals and products, the division by per and the product

    def held(res: ValueWithError) -> ValueWithError:
        value = scale * res.value
        return ValueWithError(value, scale * res.abs_err_est + rel * abs(value), res.method)

    try:
        res = _integrals([(kind, alpha, params)], cfg, closed_forms)[0]
    except QuadratureError as exc:
        exc.estimate = held(exc.estimate)
        raise
    return held(res)


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
    """Segment parameter integral; requires alpha > -1.  It is the "b" integral divided by alpha + 1, its estimate too."""
    params = _as_params(params)
    if not alpha > -1.0:
        raise ValueError("b_fn requires alpha > -1")
    return _integral("b", alpha, params, cfg or QuadConfig(), closed_forms, per=alpha + 1.0)


def b_fn_alt(alpha: float, params, cfg: QuadConfig | None = None) -> ValueWithError:
    """Alternative segment representation on (-1, 1); used as a cross-check oracle."""
    params = _as_params(params)
    cfg = cfg or QuadConfig()
    if not alpha > -1.0:
        raise ValueError("b_fn_alt requires alpha > -1")
    betas = params.entries
    h_consts = [0.5 * f_real_total(b) for b in betas]

    def f(v):
        zc = v * (2.0 - v)  # 1 - (1-v)^2, no cancellation
        z = (1.0 - v) ** 2
        weight = zc ** (0.5 * (alpha - 1.0))
        prod_low = np.ones_like(v)
        prod_high = np.ones_like(v)
        for b, hb in zip(betas, h_consts):
            inner = 0.5 * _inc_beta_parts(z, zc, 0.5, 0.5 * (b + 1.0))
            prod_low = prod_low * (hb - inner)
            prod_high = prod_high * (hb + inner)
        return weight * (prod_low + prod_high)

    res = quad.integrate_finite(f, 0.0, 1.0, cfg)
    return ValueWithError(res.value, res.abs_err_est, "tanh-sinh-alt")

