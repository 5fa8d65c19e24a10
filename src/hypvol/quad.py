"""Certified one-dimensional quadrature.

Two double-exponential schemes:

* ``integrate_finite`` -- tanh-sinh on a finite interval.  Integrable
  power-law endpoint singularities (exponent > -1) are handled, provided
  the singular point is located exactly at ``a`` or ``b`` as floats; put
  the singularity at 0 by substitution when the natural endpoint is not
  exactly representable (e.g. pi/2).
* ``integrate_real_line`` -- the map x = sinh(sinh t) for even
  integrands with exponential decay; only x >= 0 is evaluated.

Integrands are real: they are called on numpy arrays of abscissae (one
call per refinement level) and must return a real array of the same
shape.  Node tables are built once per level and cached; construction
is guarded by a lock, lookups afterwards are read-only.  The abscissae
of a finite interval are cached per (a, b, level) too, as read-only
arrays: an integrand must not write to its input.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

_TMAX_FINITE = 6.115  # tanh distance to endpoint underflows ~1e-300 beyond this
_TMAX_LINE = 6.56     # caps |x| = sinh(sinh t) near 1.4e153, so x*x stays finite
_MIN_LEVEL = 3


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


_lock = threading.Lock()
_finite_levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_line_levels: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _finite_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive-t tanh-sinh nodes for one refinement level.

    Returns (delta, weight): delta is the distance of the node from the
    endpoint of the standard interval [-1, 1], computed without
    cancellation; weight is the full transformed weight at that node.
    Level 0 holds t = h, 2h, ...; level L > 0 holds the odd multiples
    of h = 2**-L.
    """
    with _lock:
        cached = _finite_levels.get(level)
        if cached is not None:
            return cached
        h = 2.0 ** (-level)
        if level == 0:
            t = np.arange(1, int(_TMAX_FINITE / h) + 1) * h
        else:
            t = np.arange(1, int(_TMAX_FINITE / h) + 1, 2) * h
        v = 0.5 * math.pi * np.sinh(t)
        # 1 - tanh(v) = 2 exp(-2v) / (1 + exp(-2v))
        e = np.exp(-2.0 * v)
        delta = 2.0 * e / (1.0 + e)
        sech = 2.0 * np.exp(-v) / (1.0 + e)
        weight = 0.5 * math.pi * np.cosh(t) * sech * sech
        keep = weight > 1e-300
        result = (delta[keep], weight[keep])
        _finite_levels[level] = result
        return result


def _line_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive-t nodes (x, weight) for the sinh(sinh t) map."""
    with _lock:
        cached = _line_levels.get(level)
        if cached is not None:
            return cached
        h = 2.0 ** (-level)
        if level == 0:
            t = np.arange(1, int(_TMAX_LINE / h) + 1) * h
        else:
            t = np.arange(1, int(_TMAX_LINE / h) + 1, 2) * h
        s = np.sinh(t)
        x = np.sinh(s)
        weight = np.cosh(t) * np.cosh(s)
        keep = np.isfinite(x) & np.isfinite(weight)
        result = (x[keep], weight[keep])
        _line_levels[level] = result
        return result


@functools.lru_cache(maxsize=64)  # bounded: callers such as specfun.f_imag pass arbitrary intervals
def _finite_abscissae(a: float, b: float, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only abscissae on (a, b) and their weights for one tanh-sinh level."""
    delta, weight = _finite_nodes(level)
    rad = 0.5 * (b - a)
    xm = a + rad * delta
    xp = b - rad * delta
    keep_m = xm > a  # independent masks: one side may collide with its
    keep_p = xp < b  # endpoint while the other still carries mass
    xs = np.concatenate([xm[keep_m], xp[keep_p]])
    ws = np.concatenate([weight[keep_m], weight[keep_p]])
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


class Refinement:
    """One integral's running total over the refinement levels, and the stopping rule.

    ``add(part)`` takes the sum of w*f over the next level's new nodes and
    returns True once no further level is needed: at the first level >=
    _MIN_LEVEL whose change is within the tolerance, or after max_level.
    ``result()`` then returns the value with its error estimate, or raises
    QuadratureError carrying the last estimate.
    """

    __slots__ = ("cfg", "method", "level", "total", "err", "converged")

    def __init__(self, cfg: QuadConfig, method: str):
        self.cfg = cfg
        self.method = method
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
            self.converged = self.err <= max(cfg.abs_tol, cfg.rel_tol * abs(self.total))
        self.level += 1
        return self.converged or self.level > cfg.max_level

    def result(self) -> ValueWithError:
        cfg = self.cfg
        if self.converged:
            return ValueWithError(self.total, max(self.err, cfg.abs_tol), self.method)
        value, err = self.total, self.err
        if not math.isfinite(value):
            value, err = 0.0, 1e300
        if not math.isfinite(err):
            err = max(abs(value), 1.0)
        best = ValueWithError(value, max(err, cfg.abs_tol), self.method)
        raise QuadratureError(f"{self.method}: no convergence within max_level={cfg.max_level}", estimate=best)


def _run_levels(eval_level, cfg: QuadConfig, method: str) -> ValueWithError:
    """Shared refinement loop: eval_level(L) returns sum_{new nodes} w*f."""
    run = Refinement(cfg, method)
    while not run.add(eval_level(run.level)):
        pass
    return run.result()


def integrate_finite(f, a: float, b: float, cfg: QuadConfig | None = None) -> ValueWithError:
    """Integral of f over (a, b) by tanh-sinh refinement.

    The error estimate is the difference of the last two levels, floored
    at abs_tol; it is a conservative bound in practice because each
    level roughly doubles the number of correct digits.
    """
    cfg = cfg or QuadConfig()
    if not a < b:
        raise ValueError("require a < b")
    rad = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def eval_level(level):
        xs, ws = _finite_abscissae(a, b, level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vals = np.asarray(f(xs)) * ws
            if level == 0:
                vals = np.append(vals, np.asarray(f(np.array([mid]))) * (0.5 * math.pi))
        return rad * math.fsum(vals.tolist())

    return _run_levels(eval_level, cfg, "tanh-sinh")


def integrate_real_line(f, cfg: QuadConfig | None = None) -> ValueWithError:
    """Integral over the whole real line of an even f, via x = sinh(sinh t).

    f is called only at x >= 0: each node x > 0 stands for itself and -x,
    so its term is 2*(f(x)*w), which rounds the same exact sum as the two
    terms f(x)*w and f(-x)*w.  Requires exponential decay of f
    (polynomial factors are fine).  The abscissae reach about 1.4e153
    (so that x*x stays finite), and f must underflow to zero there
    rather than overflow.
    """
    cfg = cfg or QuadConfig()

    def eval_level(level):
        x, weight = _line_nodes(level)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vals = 2.0 * (np.asarray(f(x)) * weight)
            if level == 0:
                vals = np.append(vals, np.asarray(f(np.array([0.0]))))
        return math.fsum(vals.tolist())

    return _run_levels(eval_level, cfg, "de-real-line")


# perfbench's tracer wraps this name on every run; it is the same function
integrate_real_line_any = integrate_real_line
