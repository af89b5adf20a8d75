"""Exact arithmetic in Q(i), the field of rationals extended by a square root of -1.

Scalars are pairs of ``fractions.Fraction``. Everything in this package that
computes with coefficients goes through this module, so there is no floating
point anywhere in the pipeline.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm


class ScalarParseError(ValueError):
    """Raised when a scalar literal cannot be parsed."""


class InternalError(RuntimeError):
    """A self-check failed: this signals a bug, never invalid input."""


@dataclass(frozen=True, slots=True)
class GaussianRational:
    real: Fraction
    imag: Fraction

    @staticmethod
    def of(real, imag=0) -> "GaussianRational":
        return GaussianRational(Fraction(real), Fraction(imag))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def norm(self) -> Fraction:
        """The field norm real^2 + imag^2, a nonnegative rational."""
        return self.real * self.real + self.imag * self.imag

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.real / n, -self.imag / n)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        return hash((self.real, self.imag))

    def is_rational(self) -> bool:
        return self.imag == 0

    def __str__(self) -> str:
        return gq_format(self)

    def __repr__(self) -> str:
        return f"gq({self.real!r}, {self.imag!r})"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    return NotImplemented


def gq(real, imag=0) -> GaussianRational:
    """Shorthand constructor: gq(1, 2) is 1 + 2i, arguments may be Fractions."""
    return GaussianRational(Fraction(real), Fraction(imag))


ZERO = gq(0)
ONE = gq(1)
I = gq(0, 1)
UNITS = (ONE, I, -ONE, -I)

_RAT = r"\d+(?:/[1-9]\d*)?"
_PURE_REAL = _re.compile(rf"^[+-]?{_RAT}$")
_PURE_IMAG = _re.compile(rf"^([+-]?)({_RAT})?i$")
_FULL = _re.compile(rf"^([+-]?{_RAT})([+-])({_RAT})?i$")


def gq_parse(text: str) -> GaussianRational:
    """Parse a scalar literal like '3', '-2/5', 'i', '-i', '1/2+2/3i', '1-i'.

    The grammar is strict: no interior whitespace, denominators positive,
    the imaginary unit is a trailing 'i'.
    """
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar")
    if _PURE_REAL.match(s):
        return gq(Fraction(s))
    m = _PURE_IMAG.match(s)
    if m:
        sign, mag = m.group(1), m.group(2)
        value = Fraction(mag) if mag else Fraction(1)
        if sign == "-":
            value = -value
        return gq(0, value)
    m = _FULL.match(s)
    if m:
        realpart = Fraction(m.group(1))
        mag = Fraction(m.group(3)) if m.group(3) else Fraction(1)
        if m.group(2) == "-":
            mag = -mag
        return gq(realpart, mag)
    raise ScalarParseError(f"bad scalar literal: {text!r}")


def gq_format(q: GaussianRational) -> str:
    """Canonical text form, the inverse of gq_parse on its output."""
    re_, im = q.real, q.imag
    if im == 0:
        return str(re_)
    if im == 1:
        istr = "i"
    elif im == -1:
        istr = "-i"
    else:
        istr = f"{im}i"
    if re_ == 0:
        return istr
    joiner = "+" if im > 0 else ""
    return f"{re_}{joiner}{istr}"


def _frac_sqrt(f: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if f < 0:
        return None
    num = _isqrt_exact(f.numerator)
    if num is None:
        return None
    den = _isqrt_exact(f.denominator)
    if den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n: int):
    r = isqrt(n)
    return r if r * r == n else None


def gq_sqrt(q: GaussianRational):
    """One square root of q in Q(i), or None if q is not a square there.

    Closed form: for a + bi with b != 0 a root c + di needs c^2 = (a + n)/2
    with n = sqrt(a^2 + b^2), then d = b / (2c). All checks are exact.
    """
    a, b = q.real, q.imag
    if b == 0:
        if a >= 0:
            r = _frac_sqrt(a)
            return None if r is None else gq(r)
        r = _frac_sqrt(-a)
        return None if r is None else gq(0, r)
    n = _frac_sqrt(a * a + b * b)
    if n is None:
        return None
    c = _frac_sqrt((a + n) / 2)
    if c is None or c == 0:
        return None
    d = b / (2 * c)
    root = gq(c, d)
    if root * root != q:
        raise InternalError(f"closed-form square root of {gq_format(q)} is wrong")
    return root


def _g_norm(z) -> int:
    return z[0] * z[0] + z[1] * z[1]


def _g_div_round(z, w):
    """Rounded Gaussian integer quotient, remainder norm < norm(w)."""
    n = _g_norm(w)
    xr = z[0] * w[0] + z[1] * w[1]
    xi = z[1] * w[0] - z[0] * w[1]
    qr = (2 * xr + n) // (2 * n)
    qi = (2 * xi + n) // (2 * n)
    return (qr, qi)


def _g_div_exact(z, w):
    """z / w when w divides z, else None."""
    n = _g_norm(w)
    xr = z[0] * w[0] + z[1] * w[1]
    xi = z[1] * w[0] - z[0] * w[1]
    if xr % n or xi % n:
        return None
    return (xr // n, xi // n)


def _g_gcd(z, w):
    while w != (0, 0):
        q = _g_div_round(z, w)
        r = (z[0] - q[0] * w[0] + q[1] * w[1], z[1] - q[0] * w[1] - q[1] * w[0])
        z, w = w, r
    return z


def _g_canonical(z):
    """The unique associate with positive real part and nonnegative imag."""
    for _ in range(4):
        if z[0] > 0 and z[1] >= 0:
            return z
        z = (-z[1], z[0])
    raise ValueError("zero has no canonical associate")


def _gaussian_int_factor(z):
    """Factor a nonzero Gaussian integer pair (a, b).

    Returns (unit, factors) where unit is one of the four units as a
    GaussianRational and factors maps canonical Gaussian primes, encoded
    as integer pairs, to positive exponents.
    """
    import sympy

    if z == (0, 0):
        raise ZeroDivisionError("cannot factor zero")
    factors: dict = {}
    current = z
    for p, _e in sympy.factorint(_g_norm(z)).items():
        if p == 2:
            candidates = [(1, 1)]
        elif p % 4 == 3:
            candidates = [(p, 0)]
        else:
            t = sympy.ntheory.sqrt_mod(-1, p)
            pi = _g_canonical(_g_gcd((p, 0), (t, 1)))
            candidates = [pi, _g_canonical((pi[0], -pi[1]))]
        for pi in candidates:
            while True:
                nxt = _g_div_exact(current, pi)
                if nxt is None:
                    break
                current = nxt
                factors[pi] = factors.get(pi, 0) + 1
    unit = gq(current[0], current[1])
    if unit not in UNITS:
        raise ArithmeticError(f"factorization left non-unit remainder {current}")
    return unit, factors


def gq_factor(q: GaussianRational):
    """Factor a nonzero Gaussian rational into a unit and prime powers.

    Returns (unit, {canonical prime pair: exponent}); primes of the
    denominator carry negative exponents.
    """
    den = lcm(q.real.denominator, q.imag.denominator)
    unit, factors = _gaussian_int_factor((int(q.real * den), int(q.imag * den)))
    unit_d, fac_d = _gaussian_int_factor((den, 0))
    for p, e in fac_d.items():
        factors[p] = factors.get(p, 0) - e
        if not factors[p]:
            del factors[p]
    return unit * unit_d.conjugate(), factors


def gq_nth_root(q: GaussianRational, n: int):
    """One n-th root of q in Q(i), or None if there is none.

    n = 1 and 2 are handled in closed form. For larger n every prime
    exponent of q must be divisible by n; the root is then the product of
    pi^(e/n) times the first unit, in UNITS order, whose n-th power is
    the unit of q. Unique factorization makes this complete.
    """
    if n <= 0:
        raise ValueError("root order must be positive")
    if n == 1:
        return q
    if not q:
        return ZERO
    if n == 2:
        return gq_sqrt(q)
    unit, factors = gq_factor(q)
    if any(e % n for e in factors.values()):
        return None
    root = ONE
    for (a, b), e in factors.items():
        root = root * gq(a, b) ** (e // n)
    return next((v * root for v in UNITS if v**n == unit), None)
