"""Exact arithmetic helpers: rational multiples of powers of pi.

Closed-form results in this package are rational linear combinations of
integer powers of pi (powers may be negative).  ``PiPoly`` stores such a
value exactly; gamma-function ratios at half-integer arguments reduce to
rationals times a possible stray sqrt(pi), which ``gamma_half`` tracks.

The uniform-disk polygon family (``expect.polygon_beta0``) is a sum of
moments of u**p * sin(u) * sin(2u)**k over (0, pi).  ``sin_sin2_power``
writes the trigonometric factor as a short sum of exp(i j u) terms, and
``exp_moment`` gives each integral of u**p * exp(i j u) over (0, pi) in
closed form, a polynomial in pi: the only place pi enters.  Each
coefficient of either is a rational times a power of i.  Both are cached, so a table over n computes
each moment once.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


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
        """The value, correctly rounded to the nearest float.

        The value is pi**low Q(pi), Q a polynomial with integer coefficients
        over one common denominator.  Both are bounded in integers on an
        interval around pi (``_pi_interval``), each term of Q at the end that
        makes it smallest or largest, and when the two bounds of the value
        round to the same float (one correctly rounded integer division each)
        so does the value; else pi's precision doubles: the terms may cancel
        to far below their size, as in the polygon family.
        """
        if not self.coeffs:
            return 0.0
        low, den = min(self.coeffs), math.lcm(*(c.denominator for c in self.coeffs.values()))
        poly = [(k - low, c.numerator * (den // c.denominator)) for k, c in self.coeffs.items()]
        top, bits = max(self.coeffs) - low, 64
        while True:
            lo, hi = _pi_interval(bits)  # lo < pi * 2**bits < hi
            ends = []
            for lower in (True, False):
                q = sum(a * (lo if (a > 0) == lower else hi) ** j << bits * (top - j) for j, a in poly)
                p = lo if ((q >= 0) == lower) == (low >= 0) else hi  # the end of pi**low that bounds the value
                pn, pd = (p**low, 1 << bits * low) if low >= 0 else (1 << -bits * low, p**-low)
                ends.append(q * pn / ((den << bits * top) * pd))
            if ends[0] == ends[1]:
                return ends[0]
            bits *= 2

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


@functools.lru_cache(maxsize=None)  # one entry per precision, and precisions double
def _pi_interval(bits: int) -> tuple[int, int]:
    """Integers lo < pi * 2**bits < hi, hi - lo = 4, from Machin's formula.

    pi = 16 atan(1/5) - 4 atan(1/239) in integers scaled by 2**(bits + 32):
    each truncated term errs by less than 1 and the dropped tail by less
    than 1, so the sum errs by less than 20 (terms + 2), below the 2**32
    guard while bits < 1e8, and after the shift pi * 2**bits is within 2
    of it.
    """
    one = 1 << (bits + 32)

    def atan_inv(x: int) -> int:
        total, power, k = 0, one // x, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        return total

    mid = (16 * atan_inv(5) - 4 * atan_inv(239)) >> 32
    return mid - 2, mid + 2


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


# -- exact moments for the uniform-disk polygon integral --
#
# Every coefficient below is purely real or purely imaginary, so each is a
# pair (phase, c) standing for c * i**phase, with a quarter-turn phase in
# 0..3 and a rational c: the product of two is one Fraction product.


@functools.lru_cache(maxsize=1024)
def exp_moment(p: int, j: int) -> tuple[tuple[int, int, Fraction], ...]:
    """Integral of u**p * exp(i j u) over (0, pi), exact.

    Returns terms (k, phase, c), the value being sum c * i**phase * pi**k.
    For j != 0, from the antiderivative
    exp(i j u) * sum_r (-1)**r p!/(p-r)! u**(p-r) / (i j)**(r+1).
    """
    if p < 0:
        raise ValueError("requires p >= 0")
    if j == 0:
        return ((p + 1, 0, Fraction(1, p + 1)),)
    terms = []
    for r in range(p, -1, -1):
        # upper end: exp(i j pi) = (-1)**j; the lower end adds only to
        # the constant term r = p
        c = (-1) ** ((r + j) % 2) * math.perm(p, r)
        if r == p:
            c -= (-1) ** p * math.factorial(p)
        if c:
            terms.append((p - r, -(r + 1) % 4, Fraction(c, j ** (r + 1))))  # 1/i**(r+1) = i**-(r+1)
    return tuple(terms)


@functools.lru_cache(maxsize=256)
def sin_sin2_power(k: int) -> tuple[tuple[int, int, Fraction], ...]:
    """sin(u) * sin(2u)**k as terms (j, phase, c): sum c * i**phase * exp(i j u).

    (2i)**-(k+1) * sum_l C(k, l) (-1)**(k-l) (exp(i(4l-2k+1)u) - exp(i(4l-2k-1)u));
    the frequencies 4l - 2k +- 1 are all distinct.
    """
    if k < 0:
        raise ValueError("requires k >= 0")
    phase = -(k + 1) % 4
    out = []
    for l in range(k + 1):
        c = Fraction((-1) ** (k - l) * math.comb(k, l), 2 ** (k + 1))
        out.append((4 * l - 2 * k + 1, phase, c))
        out.append((4 * l - 2 * k - 1, phase, -c))
    return tuple(out)
