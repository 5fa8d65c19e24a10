"""Write b_rows.json: high-precision references for the rows of the b integrand.

    PYTHONPATH=src python tests/golden/make_b_rows.py

A row is F(t - pi/2), the integral of sin(u)**beta over (0, t), at the
tanh-sinh nodes t in (0, pi/2) of the b integrals (specfun._f_real_from_z,
called from abcore._b_factors).  The reference is 2**beta B_z(p, p) with
p = (beta + 1)/2 and z = sin(t/2)**2, the non-regularized incomplete beta
function of mpmath, at the float t taken exactly.  Every reference is
computed at 30 and at 45 digits and kept only when the two agree to 1e-20
relative and the value is a normal double; a smaller value has no
relative accuracy to test.

Rows: parameters from -1 + 1e-6 to 1022 (the quadrature parameters stay
below 1024) at nodes of the level 0-12 sets picked near a ladder of
targets: from the smallest node, about 1e-303, through the t below about
3e-162 where sin(t/2)**2 underflows to 0 in floats, up to the largest
node, within 1e-15 of pi/2.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

from hypvol import quad

OUT = Path(__file__).with_name("b_rows.json")

BETAS = (
    -1.0 + 1e-6, -0.9, -0.5, 0.0, 0.3, 1.0, 1.7, 2.5, 5.0, 9.088, 13.0, 13.3, 40.0, 60.5, 200.0, 600.0,
    1000.3, 1022.0,
)
# targets: small ones by their log10, middle ones by value, the last ones by their distance to pi/2
SMALL = (-303, -250, -200, -165, -161, -155, -120, -80, -40, -20, -10, -5, -3, -2, -1)
MIDDLE = (0.1, 0.3, 0.5, 0.6, 0.7, 0.85, 1.0, 1.15, 1.3, 1.45, 1.5)
GAPS = (1e-3, 1e-6, 1e-10, 1e-13, 0.0)


def nodes() -> list[float]:
    """The nodes of the level 0-12 sets nearest the targets, ascending."""
    steps = [range(0, 6)] + [range(level, level + 1) for level in range(6, 13)]
    t = np.unique(np.concatenate([quad._finite_step_abscissae(0.0, 0.5 * math.pi, s)[0] for s in steps]))
    picked = {float(t[np.argmin(np.abs(np.log10(t) - e))]) for e in SMALL}
    picked |= {float(t[np.argmin(np.abs(t - m))]) for m in MIDDLE}
    picked |= {float(t[np.argmin(np.abs((0.5 * math.pi - t) - g))]) for g in GAPS}
    return sorted(picked)


def row(beta, t):
    """The integral of sin**beta over (0, t) at the working precision; beta and t are floats, taken exactly."""
    p = (mp.mpf(beta) + 1) / 2
    z = mp.sin(mp.mpf(t) / 2) ** 2
    return mp.mpf(2) ** beta * mp.betainc(p, p, 0, z, regularized=False)


def _stable(beta, t):
    """The row at 30 and 45 digits; the 45-digit value if the two agree to 1e-20 relative, else None."""
    values = []
    for dps in (30, 45):
        with mp.workdps(dps):
            values.append(row(beta, t))
    lo, hi = values
    return hi if abs(lo - hi) <= mp.mpf("1e-20") * abs(hi) else None


def main():
    rows = []
    ts = nodes()
    for beta in BETAS:
        for t in ts:
            value = _stable(beta, t)
            if value is None:
                print(f"dropped ({beta}, {t}): 30 and 45 digits disagree", flush=True)
            elif value >= mp.mpf(np.finfo(float).tiny):
                rows.append({"beta": beta, "t": t, "value": mp.nstr(value, 25)})
        print(f"beta = {beta}: {len(rows)} rows so far", flush=True)
    OUT.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
