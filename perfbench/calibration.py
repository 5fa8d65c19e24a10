"""Host-speed calibration: a fixed numpy kernel timed between the ops.

On a shared host the same code runs up to ~2x slower, in stretches from
under a second to minutes.  The kernel below does the kind of work that
dominates hypvol (short ufunc chains on arrays of ~100 abscissae, called
from a Python loop) on fixed inputs and runs no hypvol code, so a change
to hypvol cannot change its time.  It is timed before the first op and
after every op; an op's wall time times REFERENCE_S over the mean of the
two samples around it is its time at the host speed the benchmark was
defined on.  Over 60-op windows of one repeated query this cut the
spread of the window median from 37% (raw) to 3%.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# kernel time on the 2-core Xeon VM (Python 3.11, numpy 2.4) at its
# faster speed
REFERENCE_S = 0.38e-3

_X = np.linspace(-30.0, 30.0, 96)


def _kernel() -> float:
    acc = 0.0
    for k in range(40):
        a = np.exp((1.0 + 0.01 * k) * _X - 0.5 * np.abs(_X))
        b = np.where(np.abs(_X) < 1.0, np.expm1(np.clip(_X, -1.0, 1.0)), a)
        acc += float(b.sum())
    return acc


def sample() -> float:
    """Seconds for one run of the kernel."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def scaled(wall_s: float, *samples: float) -> float:
    """``wall_s`` at reference host speed, given kernel samples taken around it."""
    return wall_s * REFERENCE_S * len(samples) / sum(samples)
