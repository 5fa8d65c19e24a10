"""Exact arithmetic helpers: rational multiples of powers of pi.

Closed-form results in this package are rational linear combinations of
integer powers of pi (powers may be negative).  ``PiPoly`` stores such a
value exactly; gamma-function ratios at half-integer arguments reduce to
rationals times a possible stray sqrt(pi), which ``gamma_half`` tracks.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


class PiPoly:
    """Exact value of the form sum_k c_k * pi**k with rational c_k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for k, c in dict(coeffs).items():
                c = Fraction(c)
                if c != 0:
                    self.coeffs[int(k)] = c

    @classmethod
    def from_rational(cls, c) -> "PiPoly":
        return cls({0: Fraction(c)})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, PiPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == PiPoly.from_rational(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "PiPoly":
        if isinstance(other, (int, Fraction)):
            other = PiPoly.from_rational(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return PiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "PiPoly":
        return PiPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other) -> "PiPoly":
        return self + (-other if isinstance(other, PiPoly) else PiPoly.from_rational(-Fraction(other)))

    def __mul__(self, other) -> "PiPoly":
        if isinstance(other, (int, Fraction)):
            return PiPoly({k: c * other for k, c in self.coeffs.items()})
        out: dict[int, Fraction] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
        return PiPoly(out)

    __rmul__ = __mul__

    def shift(self, power: int) -> "PiPoly":
        """Multiply by pi**power."""
        return PiPoly({k + power: c for k, c in self.coeffs.items()})

    def evaluate(self) -> float:
        return math.fsum(float(c) * math.pi ** k for k, c in sorted(self.coeffs.items()))

    def render(self) -> str:
        """Canonical text form: rational coefficients times pi^k, k descending."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                pi_part = "pi" if k == 1 else f"pi^{k}"
                body = pi_part if mag == 1 else f"{mag}*{pi_part}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"PiPoly({self.render()!r})"


def gamma_half(two_x: int) -> tuple[Fraction, int]:
    """Gamma(two_x / 2) as (rational, s) with value rational * pi**(s/2), s in {0, 1}.

    Requires two_x >= 1.
    """
    if two_x < 1:
        raise ValueError("argument must be a positive half-integer")
    if two_x % 2 == 0:
        return Fraction(math.factorial(two_x // 2 - 1)), 0
    m = (two_x - 1) // 2
    return Fraction(math.factorial(2 * m), 4**m * math.factorial(m)), 1


def gamma_half_ratio(two_num: int, two_den: int) -> tuple[Fraction, int]:
    """Gamma(two_num/2) / Gamma(two_den/2) as (rational, s) with s in {-1, 0, 1}."""
    rn, sn = gamma_half(two_num)
    rd, sd = gamma_half(two_den)
    return rn / rd, sn - sd


# -- dense rational polynomials (coefficient lists, index = power) --

def poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out

def poly_pow(p: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(1)]
    for _ in range(n):
        out = poly_mul(out, p)
    return out

def poly_integral_01(p: list[Fraction], extra_power: int = 0) -> Fraction:
    """Integral over (0, 1) of t**extra_power * p(t)."""
    return sum(c / (k + extra_power + 1) for k, c in enumerate(p) if c)


# -- Bernoulli numbers and the log-sine series coefficients --

def bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1} via the standard recurrence."""
    bern = [Fraction(0)] * count
    bern[0] = Fraction(1)
    for m in range(1, count):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * bern[j]
        bern[m] = -acc / (m + 1)
    return bern


def zeta_even_over_pi_power(max_m: int) -> list[Fraction]:
    """Rationals zeta(2m)/pi**(2m) for m = 1..max_m."""
    bern = bernoulli_numbers(2 * max_m + 1)
    out = []
    for m in range(1, max_m + 1):
        val = Fraction((-1) ** (m + 1)) * bern[2 * m] * Fraction(2 ** (2 * m - 1)) / Fraction(math.factorial(2 * m))
        out.append(val)
    return out


# -- exact integration of trigonometric-exponential polynomials --
#
# Terms x**j * exp(i m x) with complex coefficients whose real/imaginary
# parts are PiPoly values.  Sufficient for integrating products of
# cos x, sin(2x), x and pi over (-pi/2, pi/2) exactly.

_I_POW = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i**k for k mod 4


def _cplx(re=0, im=0):
    re = re if isinstance(re, PiPoly) else PiPoly.from_rational(re)
    im = im if isinstance(im, PiPoly) else PiPoly.from_rational(im)
    return (re, im)


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cscale(a, r: Fraction):
    return (a[0] * r, a[1] * r)


class TrigExpPoly:
    """Finite sum of c_{j,m} * x**j * exp(i m x) with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # (j, m) -> (PiPoly re, PiPoly im)
        self.terms: dict[tuple[int, int], tuple[PiPoly, PiPoly]] = dict(terms or {})

    @classmethod
    def constant(cls, c) -> "TrigExpPoly":
        c = c if isinstance(c, PiPoly) else PiPoly.from_rational(c)
        return cls({(0, 0): _cplx(c)})

    def __add__(self, other: "TrigExpPoly") -> "TrigExpPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = _cadd(out[key], c) if key in out else c
        return TrigExpPoly(out)

    def __mul__(self, other: "TrigExpPoly") -> "TrigExpPoly":
        out: dict[tuple[int, int], tuple[PiPoly, PiPoly]] = {}
        for (j1, m1), c1 in self.terms.items():
            for (j2, m2), c2 in other.terms.items():
                key = (j1 + j2, m1 + m2)
                prod = _cmul(c1, c2)
                out[key] = _cadd(out[key], prod) if key in out else prod
        return TrigExpPoly(out)

    def power(self, n: int) -> "TrigExpPoly":
        out = TrigExpPoly.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def integrate_sym_half_pi(self) -> PiPoly:
        """Exact integral over (-pi/2, pi/2); the imaginary part must cancel."""
        total = _cplx(0)
        for (j, m), c in self.terms.items():
            total = _cadd(total, _cmul(c, _term_integral(j, m)))
        if total[1]:
            raise ArithmeticError("imaginary part did not cancel in exact integration")
        return total[0]


def _half_pi_power(p: int, sign: int) -> PiPoly:
    """(sign * pi/2)**p as a PiPoly."""
    return PiPoly({p: Fraction(sign**p, 2**p)})


def _term_integral(j: int, m: int):
    """Exact integral of x**j exp(i m x) over (-pi/2, pi/2) as a complex PiPoly pair."""
    if m == 0:
        if j % 2 == 1:
            return _cplx(0)
        return _cplx(PiPoly({j + 1: Fraction(1, 2**j * (j + 1))}))
    # antiderivative: exp(imx) * sum_r (-1)^r j!/(j-r)! x^(j-r) / (im)^(r+1)
    total = _cplx(0)
    for sign in (1, -1):
        # exp(i m * sign * pi/2) = i**(sign*m)
        re_i, im_i = _I_POW[(sign * m) % 4]
        endpoint_phase = _cplx(re_i, im_i)
        acc = _cplx(0)
        for r in range(j + 1):
            coeff = Fraction((-1) ** r * math.factorial(j), math.factorial(j - r))
            # 1 / (i m)^(r+1) = i^(-(r+1)) / m^(r+1)
            re_inv, im_inv = _I_POW[(-(r + 1)) % 4]
            inv = _cscale(_cplx(re_inv, im_inv), Fraction(1, m ** (r + 1)))
            term = _cscale(inv, coeff)
            term = (term[0] * _half_pi_power(j - r, sign), term[1] * _half_pi_power(j - r, sign))
            acc = _cadd(acc, term)
        contrib = _cmul(endpoint_phase, acc)
        if sign == 1:
            total = _cadd(total, contrib)
        else:
            total = (total[0] - contrib[0], total[1] - contrib[1])
    return total
