"""Write gamma_ratio_half.json: 45-digit references for Gamma(x + 1/2) / Gamma(x).

    PYTHONPATH=src python tests/golden/make_gamma_ratio_half.py

The kernel ``specfun.gamma_ratio_half`` behind every Gamma quotient of
the engine.  Each reference is exp(loggamma(x + 1/2) - loggamma(x)) in
mpmath, at the float x taken exactly, with 45 significant digits to spare
beyond the digits of x's integer part, computed at 45 and at 60 digits and
kept only when the two agree to 1e-40 relative.

Rows: 400 log-uniform x on [1e-8, 1e8] (seeded), and fixed points at the
ends, around the branch point 7 (one ulp either side), at half-integers,
where the ratio is a rational times a power of sqrt(pi), and at the
arguments of the closed forms' large parameters (1500 and beyond).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("gamma_ratio_half.json")

FIXED = (
    1e-8, 1e-6, 1e-3, 0.25, 0.5, 1.0, 1.5, 2.0, 3.5, 6.5, math.nextafter(7.0, 0.0), 7.0, math.nextafter(7.0, 8.0),
    7.5, 10.0, 13.5, 100.0, 250.95, 500.5, 750.15, 1000.0, 1500.3, 12345.678, 1e6, 1e8,
)


def ratio(x: float):
    """Gamma(x + 1/2) / Gamma(x) at the working precision plus the digits of x's integer part; x is taken exactly."""
    with mp.workdps(mp.mp.dps + max(0, int(math.log10(x)))):
        xm = mp.mpf(x)
        return +mp.exp(mp.loggamma(xm + mp.mpf(0.5)) - mp.loggamma(xm))


def _stable(x: float):
    values = []
    for dps in (45, 60):
        with mp.workdps(dps):
            values.append(ratio(x))
    lo, hi = values
    return lo if abs(lo - hi) <= mp.mpf("1e-40") * abs(hi) else None


def main():
    rng = random.Random(41)
    xs = sorted(set(FIXED) | {10.0 ** rng.uniform(-8.0, 8.0) for _ in range(400)})
    rows = []
    for x in xs:
        value = _stable(x)
        if value is None:
            print(f"dropped {x}: 45 and 60 digits disagree", flush=True)
        else:
            rows.append({"x": x, "value": mp.nstr(value, 30)})
    OUT.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"{len(rows)} rows")


if __name__ == "__main__":
    main()
