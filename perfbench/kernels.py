"""Kernel microbenchmark: ns per abscissa of the two specfun hot spots.

The inputs are fixed (seed 0, independent of the run seed) and cover the
ranges the engine feeds the kernels: real-line nodes x = sinh(sinh t)
with |x| up to ~1.4e153 for ``cosh_pow_integral_scaled``, and z in (0, 1)
clustered at both ends as tanh-sinh places them for ``inc_beta``.  Batch
sizes are the node counts of refinement levels 0-5 on the real line,
which every integral passes through (the engine averages ~6 levels and
~32 abscissae per kernel call).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_SIZES = (6, 7, 13, 26, 52, 105)
_REPEATS = 5
_LOOPS = 16  # passes over all batches per timed repeat


def _inputs():
    rng = np.random.default_rng(0)
    cosh = []
    beta = []
    for size in _SIZES:
        t = rng.uniform(-6.5, 6.5, size)
        cosh.append((float(rng.uniform(0.0, 10.0)), np.sinh(np.sinh(t))))
        s = rng.uniform(-3.0, 3.0, size)
        z = 0.5 * (1.0 + np.tanh(0.5 * np.pi * np.sinh(s)))
        z = np.clip(z, 1e-300, 1.0 - 2.0**-53)
        p = 0.5 * (float(rng.uniform(-0.9, 9.0)) + 1.0)
        beta.append((p, z))
    return cosh, beta


def ns_per_node(specfun) -> dict[str, float]:
    """Median over repeats of (time for all batches) / (abscissae in them)."""
    cosh, beta = _inputs()
    nodes = sum(_SIZES)
    out = {}
    for name, call, batches in (
        ("cosh_pow", lambda b, x: specfun.cosh_pow_integral_scaled(b, x), cosh),
        ("inc_beta", lambda p, z: specfun.inc_beta(z, p, p), beta),
    ):
        times = []
        for _ in range(_REPEATS):
            t0 = perf_counter()
            for _ in range(_LOOPS):
                for a, x in batches:
                    call(a, x)
            times.append((perf_counter() - t0) / (_LOOPS * nodes))
        out[name] = 1e9 * statistics.median(times)
    return out
