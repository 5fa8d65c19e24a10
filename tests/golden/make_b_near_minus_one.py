"""Write b_near_minus_one.json: high-precision references for b near its pole alpha = -1.

    python tests/golden/make_b_near_minus_one.py

b(alpha; p) is the integral of cos(y)**alpha * prod_j F_j(y) over
(-pi/2, pi/2), with F_j(y) the integral of cos**p_j from -pi/2 to y.
Near alpha = -1 its mass sits at the two endpoints, at scales like
exp(-1/(alpha+1)), where a plain ``mp.quad`` misses it.  So each half,
with t the distance to its endpoint, is integrated in u = t**(alpha+1):
sin(t)**alpha dt = (sin(t)/t)**alpha du / (alpha+1), a bounded integrand,
split at the u of t = 10**-k so that every scale of t gets its own
subinterval.  Every reference is computed at 30 and at 45 digits and
kept only when the two agree to 1e-20 relative.

Rows: b at alpha + 1 from 0.1 down to 1e-4 with parameters from tiny to
10, and whole d = 2 volumes of five points at beta = -1 + eps, whose
lower sum has one class shape: a closed-form singleton a times (alpha+1)
* b(alpha; (2 eps,)*4) at alpha = -1 + 2 eps.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).with_name("b_near_minus_one.json")

B_ROWS = [
    (-0.98, (0.02,) * 4),
    (-0.998, (0.002,) * 4),
    (-0.9999, (0.0001,) * 4),
    *[
        (-1.0 + gap, params)
        for gap in (0.1, 1e-2, 1e-3, 1e-4)
        for params in ((1e-13, 0.8), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (10.0,), (0.5, 4.0, 10.0))
    ],
]
VOLUME_EPS = (1e-2, 1e-3, 1e-5, 1e-7)


def _factor(p, t):
    """F_p(t - pi/2) = 2**p B_z((p+1)/2, (p+1)/2), z = sin(t/2)**2, and the complete B_p = F_p(pi/2)."""
    q = (p + 1) / 2
    return 2**p * mp.betainc(q, q, 0, mp.sin(t / 2) ** 2), mp.sqrt(mp.pi) * mp.gamma(q) / mp.gamma(q + 0.5)


def alpha_plus_one_times_b(alpha, params):
    """(alpha+1) * b(alpha; params) at the working precision; alpha and params are floats, taken exactly."""
    alpha, params = mp.mpf(alpha), [mp.mpf(p) for p in params]
    g = alpha + 1
    # u at t = 10**-300, ..., 10**-8, ..., 0.1, 1 and pi/2; below 10**-300 the
    # integrand is its endpoint value to far more than 45 digits
    cuts = [mp.mpf(10) ** -k for k in (300, 256, 128, 64, 32, 16, *range(8, -1, -1))] + [mp.pi / 2]
    points = [mp.mpf(0)] + [c**g for c in cuts]

    def integrand(u, upper):
        t = u ** (1 / g)
        acc = mp.mpf(1)
        for p in params:
            low, total = _factor(p, t)
            acc *= total - low if upper else low
        return (mp.sin(t) / t) ** alpha * acc if t > 0 else acc

    return sum(mp.quad(lambda u: integrand(u, upper), points) for upper in (False, True))


def volume_d2(beta):
    """Expected hyperbolic area of five points at the float beta in the unit disk, by the lower sum.

    Its one class shape has one point inside: a(1 + 2g; 2g) * (alpha+1) * b(alpha; (2g,)*4) at
    alpha = -1 + 2g, rounded to a float as in the engine, with g = beta + 1, exact in floats.
    """
    g = mp.mpf(beta) + 1  # the gamma of each point, d/2 + beta
    a1 = 2 * g
    alpha_a = 1 + a1  # t + 2 + s with t = -1
    a = mp.pi / 2 * mp.gamma(alpha_a / 2) * mp.gamma((a1 + 1) / 2) / mp.gamma((alpha_a + 1) / 2) / mp.gamma(a1 / 2 + 1)
    cprod = (mp.gamma(g + 1) / (mp.sqrt(mp.pi) * mp.gamma(g + 0.5))) ** 5
    lin_b = alpha_plus_one_times_b(float(-1 + a1), (float(a1),) * 4)
    return -2 * (mp.pi - cprod * 5 * a * lin_b)


def _stable(fn, *args):
    """fn at 30 and 45 digits; the 45-digit value, once the two agree to 1e-20 relative."""
    values = []
    for dps in (30, 45):
        with mp.workdps(dps):
            values.append(fn(*args))
    lo, hi = values
    if abs(lo - hi) > mp.mpf("1e-20") * abs(hi):
        raise ArithmeticError(f"{fn.__name__}{args}: {lo} at 30 digits, {hi} at 45")
    return hi


def main():
    rows = []
    for alpha, params in B_ROWS:
        lin_b = _stable(alpha_plus_one_times_b, alpha, params)
        with mp.workdps(45):
            b = lin_b / (mp.mpf(alpha) + 1)
        rows.append({"kind": "b", "alpha": alpha, "params": list(params), "value": mp.nstr(b, 25)})
        print(rows[-1], flush=True)
    for eps in VOLUME_EPS:
        value = _stable(volume_d2, -1.0 + eps)
        rows.append({"kind": "volume-d2", "beta": -1.0 + eps, "n": 5, "value": mp.nstr(value, 25)})
        print(rows[-1], flush=True)
    OUT.write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
