"""Certified one-dimensional quadrature.

Two double-exponential schemes:

* ``integrate_finite`` -- tanh-sinh on a finite interval.  Integrable
  power-law endpoint singularities (exponent > -1) are handled, provided
  the singular point is located exactly at ``a`` or ``b`` as floats; put
  the singularity at 0 by substitution when the natural endpoint is not
  exactly representable (e.g. pi/2).
* ``integrate_real_line`` -- the map x = sinh(sinh t) for even
  integrands with exponential decay; only x >= 0 is evaluated.

Integrands are real: they are called on numpy arrays of abscissae and
must return a real array of the same shape.  Every integral refines in
steps (``_step_levels``): the first covers levels 0..5, where nearly
every integral stops at the default tolerance, and each later step one
level; ``refine`` runs the steps and ``Refinement.add_levels`` adds a
step's levels one by one, so an integrand is called once per step and
stops at the same level as with one level per step.  Node tables are
built once per level and cached as read-only arrays; a step's nodes are
its levels' tables joined (level 0 holds the centre node with the
others), cached read-only in the same way, and so are a finite
interval's, per (a, b, step): an integrand that writes to its input
raises ValueError instead of changing the nodes of every later
integral.  So a step's nodes are fixed, and ``abcore`` keys the factor
rows it holds by the step's first level (and the cut of its real-line
nodes).  No integral stops before
level _MIN_LEVEL.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

_TMAX_FINITE = 6.115  # tanh distance to endpoint underflows ~1e-300 beyond this
_TMAX_LINE = 6.56     # caps |x| = sinh(sinh t) near 1.4e153, so x*x stays finite
_MIN_LEVEL = 3        # the stopping rule's minimum: no integral stops before it
# The last level of the first refinement step.  At the default
# QuadConfig, on the seed-1 distinct-betas and sweep plans of perfbench, no
# integral stopped at level 3, 8 of 366 real-line a integrals and 45 of
# 517 b integrals at level 4, all others at level 5 and none deeper: the
# estimate |T_L - T_{L-1}| is about the error of T_{L-1}, so a 1e-12
# tolerance is first certified at level 5.
_FIRST_STEP_LAST_LEVEL = 5


class QuadratureError(RuntimeError):
    """Raised when refinement hits max_level without convergence.

    Carries the best estimate seen so far in ``estimate`` (a
    ValueWithError) for diagnostic use.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_level: int = 12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (3 <= self.max_level <= 16):
            raise ValueError("max_level must be in [3, 16]")


@dataclass
class ValueWithError:
    value: float
    abs_err_est: float
    method: str

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("value must be finite")
        if not (math.isfinite(self.abs_err_est) and self.abs_err_est >= 0):
            raise ValueError("abs_err_est must be finite and non-negative")


@functools.lru_cache(maxsize=None)  # levels are bounded by max_level <= 16
def _finite_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only positive-t tanh-sinh nodes for one refinement level.

    Returns (delta, weight): delta is the distance of the node from the
    endpoint of the standard interval [-1, 1], computed without
    cancellation; weight is the full transformed weight at that node.
    Level 0 holds t = 0, h, 2h, ...: t = 0 is the centre, delta = 1 with
    weight pi/2, the only node that does not stand for a pair.  Level
    L > 0 holds the odd multiples of h = 2**-L.
    """
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(0, int(_TMAX_FINITE / h) + 1) * h
    else:
        t = np.arange(1, int(_TMAX_FINITE / h) + 1, 2) * h
    v = 0.5 * math.pi * np.sinh(t)
    # 1 - tanh(v) = 2 exp(-2v) / (1 + exp(-2v))
    e = np.exp(-2.0 * v)
    delta = 2.0 * e / (1.0 + e)
    sech = 2.0 * np.exp(-v) / (1.0 + e)
    weight = 0.5 * math.pi * np.cosh(t) * sech * sech
    keep = weight > 1e-300
    delta, weight = delta[keep], weight[keep]
    delta.flags.writeable = weight.flags.writeable = False
    return delta, weight


@functools.lru_cache(maxsize=None)  # levels are bounded by max_level <= 16
def _line_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes (x, weight) at t >= 0 for the sinh(sinh t) map.

    Level 0 holds t = 0, h, 2h, ... with h = 1, level L > 0 the odd
    multiples of h = 2**-L.  Each node x > 0 stands for itself and -x;
    the centre x = 0 of level 0 stands for itself only, so its weight
    is halved to 1/2.
    """
    h = 2.0 ** (-level)
    if level == 0:
        t = np.arange(0, int(_TMAX_LINE / h) + 1) * h
    else:
        t = np.arange(1, int(_TMAX_LINE / h) + 1, 2) * h
    s = np.sinh(t)
    x = np.sinh(s)
    weight = np.cosh(t) * np.cosh(s)
    weight[x == 0.0] = 0.5
    keep = np.isfinite(x) & np.isfinite(weight)
    x, weight = x[keep], weight[keep]
    x.flags.writeable = weight.flags.writeable = False
    return x, weight


def _finite_abscissae(a: float, b: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only abscissae on (a, b) and their weights for one tanh-sinh level.

    Level 0's centre (delta = 1) is placed once, at 0.5 * (a + b); every
    other node stands for a pair, one near each endpoint.
    """
    delta, weight = _finite_nodes(level)
    centre = delta == 1.0
    delta, pair_weight = delta[~centre], weight[~centre]
    rad = 0.5 * (b - a)
    xm = a + rad * delta
    xp = b - rad * delta
    keep_m = xm > a  # independent masks: one side may collide with its
    keep_p = xp < b  # endpoint while the other still carries mass
    xs = np.concatenate([np.full(centre.sum(), 0.5 * (a + b)), xm[keep_m], xp[keep_p]])
    ws = np.concatenate([weight[centre], pair_weight[keep_m], pair_weight[keep_p]])
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def _step_levels(first: int) -> range:
    """The levels of the refinement step that starts at level first; the next step starts at its stop.

    The step from level 0 covers levels 0.._FIRST_STEP_LAST_LEVEL, where
    nearly every integral stops at the default tolerance, and every later
    step one level.  A step depends on its first level only, not on a
    QuadConfig: abcore holds a step's factor rows under its first level,
    so rows held by a max_level=3 query are the rows a default query
    reads.  A max_level below _FIRST_STEP_LAST_LEVEL therefore evaluates
    nodes of levels its integrals never add.
    """
    return range(first, max(first, _FIRST_STEP_LAST_LEVEL) + 1)


def _joined(tables) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Per-level (nodes, weights) tables as one read-only pair, and the cuts: table i is [cuts[i]:cuts[i + 1]]."""
    cuts = tuple(itertools.accumulate((len(x) for x, _ in tables), initial=0))
    if len(tables) == 1:
        return (*tables[0], cuts)
    x = np.concatenate([x for x, _ in tables])
    weight = np.concatenate([weight for _, weight in tables])
    x.flags.writeable = weight.flags.writeable = False
    return x, weight, cuts


def _line_step_cut(levels: range, top: float) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Read-only ``_line_nodes`` x <= top of the levels of one step, joined in order, and their cuts (``_joined``).

    Each level's kept nodes are a prefix of its ascending table.  Uncached: abcore._line_table holds the cuts.
    """
    prefixes = []
    for level in levels:
        x, weight = _line_nodes(level)
        n = np.searchsorted(x, top, side="right")
        prefixes.append((x[:n], weight[:n]))
    return _joined(prefixes)


@functools.lru_cache(maxsize=None)  # levels are bounded by max_level <= 16
def _line_step_nodes(levels: range) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The whole step: ``_line_step_cut`` keeping every node."""
    return _line_step_cut(levels, math.inf)


@functools.lru_cache(maxsize=64)  # bounded: callers such as verify._quad_f_beta pass arbitrary intervals
def _finite_step_abscissae(a: float, b: float, levels: range) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Read-only ``_finite_abscissae`` of the levels of one step, joined in order, and their cuts (``_joined``)."""
    return _joined([_finite_abscissae(a, b, level) for level in levels])


class Refinement:
    """One integral's running total over the refinement levels, and the stopping rule.

    ``add(part)`` takes the sum of w*f over the next level's new nodes and
    returns True once no further level is needed: at the first level >=
    _MIN_LEVEL whose change is within the tolerance, relative to |total +
    offset|, or after max_level.  offset is the part of the wanted
    quantity held outside the integral, so the rule is relative to the
    quantity, not to the integral alone; floor, the absolute tolerance, is
    cfg.abs_tol unless given.  ``add_levels`` adds a whole
    step's levels the same way.  ``result()`` then returns the value with
    its error estimate, or raises QuadratureError carrying the last
    estimate.
    """

    __slots__ = ("cfg", "method", "offset", "floor", "level", "total", "err", "converged")

    def __init__(self, cfg: QuadConfig, method: str, offset: float = 0.0, floor: float | None = None):
        self.cfg = cfg
        self.method = method
        self.offset = offset
        self.floor = cfg.abs_tol if floor is None else floor
        self.level = 0
        self.total = None
        self.err = math.inf
        self.converged = False

    def add(self, part: float) -> bool:
        cfg = self.cfg
        prev = self.total
        h = 2.0 ** (-self.level)
        self.total = part * h if prev is None else prev * 0.5 + part * h
        if self.level >= _MIN_LEVEL:
            self.err = abs(self.total - prev)
            self.converged = self.err <= max(self.floor, cfg.rel_tol * abs(self.total + self.offset))
        self.level += 1
        return self.converged or self.level > cfg.max_level

    def add_levels(self, vals: list, cuts: tuple, scale: float) -> bool:
        """Add scale * the fsum of each level's slice of vals (``_joined`` cuts), in order; True once done."""
        return any(self.add(scale * math.fsum(vals[lo:hi])) for lo, hi in zip(cuts, cuts[1:]))

    def result(self) -> ValueWithError:
        cfg = self.cfg
        if self.converged:
            return ValueWithError(self.total, max(self.err, self.floor), self.method)
        value, err = self.total, self.err
        if not math.isfinite(value):
            value, err = 0.0, 1e300
        if not math.isfinite(err):
            err = max(abs(value), 1.0)
        best = ValueWithError(value, max(err, self.floor), self.method)
        raise QuadratureError(f"{self.method}: no convergence within max_level={cfg.max_level}", estimate=best)


def refine(live: list, step) -> None:
    """Run the refinement steps until nothing is live: step(live, levels) adds the levels and returns what is still live."""
    levels = _step_levels(0)
    while live:
        live = step(live, levels)
        levels = _step_levels(levels.stop)


def _refined(f, nodes, scale: float, cfg: QuadConfig | None, method: str) -> ValueWithError:
    """One integral of f: nodes(levels) gives a step's (x, weight, cuts); each level adds scale * fsum(f * weight)."""
    run = Refinement(cfg or QuadConfig(), method)

    def step(live, levels):
        x, weight, cuts = nodes(levels)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vals = np.asarray(f(x)) * weight
        return [] if run.add_levels(vals.tolist(), cuts, scale) else live

    refine([run], step)
    return run.result()


def integrate_finite(f, a: float, b: float, cfg: QuadConfig | None = None) -> ValueWithError:
    """Integral of f over (a, b) by tanh-sinh refinement.

    The error estimate is the difference of the last two levels, floored
    at abs_tol; it is a conservative bound in practice because each
    level roughly doubles the number of correct digits.
    """
    if not a < b:
        raise ValueError("require a < b")
    return _refined(f, lambda levels: _finite_step_abscissae(a, b, levels), 0.5 * (b - a), cfg, "tanh-sinh")


def integrate_real_line(f, cfg: QuadConfig | None = None) -> ValueWithError:
    """Integral over the whole real line of an even f, via x = sinh(sinh t).

    f is called only at x >= 0, once per step: each node x > 0 stands
    for itself and -x, so a level adds 2 * fsum(f(x) * w), which rounds
    the same exact sum as the terms f(x)*w and f(-x)*w (doubling is
    exact, so it has the bits of fsum(2 * (f(x) * w))); the centre x = 0
    has w = 1/2, so its term is f(0) exactly.  Requires exponential
    decay of f (polynomial factors are fine).  The abscissae reach about
    1.4e153 (so that x*x stays finite), and f must underflow to zero
    there rather than overflow.  Every node of a step is evaluated here;
    abcore's a integrals, which are exactly 0.0 far below that reach,
    take each level's nodes up to a cut instead (``_line_step_cut``).
    """
    return _refined(f, _line_step_nodes, 2.0, cfg, "de-real-line")


# perfbench's tracer wraps this name on every run; it is the same function
integrate_real_line_any = integrate_real_line
