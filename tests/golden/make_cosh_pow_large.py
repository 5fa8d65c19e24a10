"""Write cosh_pow_large.json: high-precision references for the cosh-power kernel above beta = 13.

    python tests/golden/make_cosh_pow_large.py

The kernel (specfun.cosh_pow_integral_scaled) returns the scaled primitive
s(beta, x) = g(beta, x) cosh(x)**-beta, g the integral of cosh**beta from
0 to x.  With u = x - t it is the integral over the whole of (0, x) of
((e**-u + e**(u - 2x))/(1 + e**-2x))**beta, written so that x - u is
never formed and cosh(x) never overflows.  The integrand falls from 1 at
u = 0 at the rate beta tanh(x), so the integral is split at that scale
times 1/16, ..., 256 (the cuts below x) and then runs on to x itself:
for small x the peak is wider than x and the whole interval carries the
mass.  Every reference is computed at 30 and at 45 digits and kept only
when the two agree to 1e-20 relative.

Rows: parameters from 13 to 1022 (the quadrature parameters stay below
1024) at abscissae from the smallest real-line node, about 2.4e-4, to
1e300, on both sides of x = 1.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("cosh_pow_large.json")

BETAS = (13.0, 13.5, 14.2, 20.3, 30.0, 60.5, 100.7, 200.0, 281.3, 562.0, 1000.0, 1019.0, 1022.0)
# the smallest level-12 real-line node, a ladder up to 1, 1 itself and just past it,
# two level-3 nodes, and far beyond the largest real-line node (about 1.1e153)
XS = (
    0.0002441406298506385, 1e-3, 3e-3, 0.01, 0.03, 0.05, 0.1, 0.3, 0.9, 1.0, 1.0 + 1e-6,
    1.1613710483034563, 1.8569793484772097, 3.0, 10.0, 30.0, 1e5, 1e40, 1e300,
)


def scaled(beta, x):
    """s(beta, x) at the working precision; beta and x are floats, taken exactly."""
    x, b = mp.mpf(x), mp.mpf(beta)
    scale = 1 + mp.exp(-2 * x)
    width = 1 / (b * mp.tanh(x))
    inner = sorted({width * c for c in (mp.mpf(1) / 16, mp.mpf(1) / 4, 1, 4, 16, 64, 256) if width * c < x})
    cuts = [mp.mpf(0)] + inner + [x]
    return mp.quad(lambda u: ((mp.exp(-u) + mp.exp(u - 2 * x)) / scale) ** b, cuts)


def _stable(beta, x):
    """s(beta, x) at 30 and 45 digits; the 45-digit value if the two agree to 1e-20 relative, else None."""
    values = []
    for dps in (30, 45):
        with mp.workdps(dps):
            values.append(scaled(beta, x))
    lo, hi = values
    return hi if abs(lo - hi) <= mp.mpf("1e-20") * abs(hi) else None


def main():
    rows = []
    for beta in BETAS:
        for x in XS:
            value = _stable(beta, x)
            if value is None:
                print(f"dropped ({beta}, {x}): 30 and 45 digits disagree", flush=True)
                continue
            rows.append({"beta": beta, "x": x, "value": mp.nstr(value, 25)})
        print(f"beta = {beta}: {len(rows)} rows so far", flush=True)
    OUT.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
