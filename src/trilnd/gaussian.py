"""Exact arithmetic in Q(i), the field of rationals extended by a square root of -1.

A scalar is the integer triple (a, b, d) standing for (a + b*i) / d, kept in
lowest terms: d > 0 and gcd(a, b, d) = 1, so equal scalars have equal
triples. Every operation works on ints only and skips the gcd when the
denominator is 1, which is the common case. ``real``, ``imag`` and ``norm``
give ``fractions.Fraction`` values for callers that want them. Everything in
this package that computes with coefficients goes through this module, so
there is no floating point anywhere in the pipeline.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, isqrt, lcm


class ScalarParseError(ValueError):
    """Raised when a scalar literal cannot be parsed."""


class InternalError(RuntimeError):
    """A self-check failed: this signals a bug, never invalid input."""


class InvalidArgument(ValueError):
    """An option or argument value outside its documented range."""


class GaussianRational:
    """An immutable element (a + b*i) / d of Q(i).

    ``GaussianRational(real, imag)`` takes ints or Fractions (or anything
    ``Fraction`` accepts). Inside the package, ``_abd`` is the canonical
    triple and ``GaussianRational._of(a, b, d)`` builds a scalar from any
    integer triple with d > 0.
    """

    __slots__ = ("_abd",)

    def __init__(self, real, imag):
        if type(real) is int and type(imag) is int:
            abd = (real, imag, 1)
        else:
            real, imag = Fraction(real), Fraction(imag)
            abd = _over_lcm(real.numerator, real.denominator, imag.numerator, imag.denominator)
        _set_abd(self, abd)

    @staticmethod
    def of(real, imag=0) -> "GaussianRational":
        return GaussianRational(real, imag)

    @staticmethod
    def _of(a: int, b: int, d: int) -> "GaussianRational":
        if d != 1:
            g = gcd(a, b, d)
            if g != 1:
                a //= g
                b //= g
                d //= g
        return _make(a, b, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (GaussianRational, (self.real, self.imag))

    @property
    def real(self) -> Fraction:
        return Fraction(self._abd[0], self._abd[2])

    @property
    def imag(self) -> Fraction:
        return Fraction(self._abd[1], self._abd[2])

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return GaussianRational._of(a + c, b + e, d)
        return GaussianRational._of(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        a, b, d = self._abd
        return _make(-a, -b, d)

    def __sub__(self, other):
        # written out rather than as self + -other, which builds a negation
        # per call and raised the deep-nilpotency peak RSS by about 0.5 MB
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return GaussianRational._of(a - c, b - e, d)
        return GaussianRational._of(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, d = self._abd
        c, e, f = other._abd
        return GaussianRational._of(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._abd
        return _make(a, -b, d)

    def norm(self) -> Fraction:
        """The field norm real^2 + imag^2, a nonnegative rational."""
        a, b, d = self._abd
        return Fraction(a * a + b * b, d * d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self._abd
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational._of(a * d, -b * d, n)

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
        a, b, _d = self._abd
        return a != 0 or b != 0

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._abd == other._abd

    def __hash__(self):
        return hash(self._abd)

    def is_rational(self) -> bool:
        return self._abd[1] == 0

    def __str__(self) -> str:
        return gq_format(self)

    def __repr__(self) -> str:
        return f"gq({self.real!r}, {self.imag!r})"


_new = object.__new__
_set_abd = GaussianRational._abd.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """A scalar from a triple already in lowest terms."""
    q = _new(GaussianRational)
    _set_abd(q, (a, b, d))
    return q


def _over_lcm(p: int, q: int, r: int, s: int):
    """The triple of p/q + (r/s)i for fractions in lowest terms with q, s > 0.

    Over d = lcm(q, s) no prime can divide all three of the triple: it would
    divide q or s to the full power it has in d, and then p or r as well.
    """
    if q == s:
        return (p, r, q)
    d = lcm(q, s)
    return (p * (d // q), r * (d // s), d)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _make(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _make(value.numerator, 0, value.denominator)
    return NotImplemented


def gq(real, imag=0) -> GaussianRational:
    """Shorthand constructor: gq(1, 2) is 1 + 2i, arguments may be Fractions."""
    return GaussianRational(real, imag)


ZERO = gq(0)
ONE = gq(1)
I = gq(0, 1)
UNITS = (ONE, I, -ONE, -I)

# an optional real part, which a sign or the end must follow, then an
# optional imaginary part: numerator, denominator, sign, numerator,
# denominator; the digits are ASCII only
_SCALAR = _re.compile(
    r"(?:([+-]?[0-9]+)(?:/([1-9][0-9]*))?(?=[+-]|$))?(?:([+-]?)(?:([0-9]+)(?:/([1-9][0-9]*))?)?i)?"
)


def gq_parse(text: str) -> GaussianRational:
    """Parse a scalar literal like '3', '-2/5', 'i', '-i', '1/2+2/3i', '1-i'.

    The grammar is strict: ASCII digits, no interior whitespace,
    denominators positive, the imaginary unit is a trailing 'i'.
    """
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar")
    m = _SCALAR.fullmatch(s)
    if m is None:
        raise ScalarParseError(f"bad scalar literal: {text!r}")
    num, den, sign, inum, iden = m.groups()
    a = int(num) if num else 0
    q = int(den) if den else 1
    if sign is None:
        return GaussianRational._of(a, 0, q)
    b = int(inum) if inum else 1
    t = int(iden) if iden else 1
    return GaussianRational._of(a * t, -b * q if sign == "-" else b * q, q * t)


def _rat_str(n: int, d: int) -> str:
    """The text of the rational n/d with d > 0, as str(Fraction(n, d)) gives it."""
    if d != 1:
        g = gcd(n, d)
        if g != d:
            return f"{n // g}/{d // g}"
        n //= g
    return str(n)


def gq_format(q: GaussianRational) -> str:
    """Canonical text form, the inverse of gq_parse on its output."""
    a, b, d = q._abd
    if b == 0:
        return _rat_str(a, d)
    if b == d:
        istr = "i"
    elif b == -d:
        istr = "-i"
    else:
        istr = f"{_rat_str(b, d)}i"
    if a == 0:
        return istr
    joiner = "+" if b > 0 else ""
    return f"{_rat_str(a, d)}{joiner}{istr}"


def _isqrt_exact(n: int):
    r = isqrt(n)
    return r if r * r == n else None


def gq_sqrt(q: GaussianRational):
    """One square root of q in Q(i), or None if q is not a square there.

    With q = (a + bi)/d, a root is sqrt(z)/d for the Gaussian integer
    z = x + yi = (a + bi)d, and Z[i] is integrally closed, so q is a square
    exactly when z is a square in Z[i]. Closed form: for y != 0 the root
    c + ei of z has c^2 = (x + n)/2 with n = sqrt(x^2 + y^2), then
    e = y / (2c). All checks are exact.
    """
    a, b, d = q._abd
    x, y = a * d, b * d
    if y == 0:
        if x >= 0:
            r = _isqrt_exact(x)
            return None if r is None else GaussianRational._of(r, 0, d)
        r = _isqrt_exact(-x)
        return None if r is None else GaussianRational._of(0, r, d)
    n = _isqrt_exact(x * x + y * y)
    if n is None or (x + n) % 2:
        return None
    c = _isqrt_exact((x + n) // 2)
    if c is None:
        return None
    root = GaussianRational._of(c, y // (2 * c), d)
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
    a, b, d = q._abd
    unit, factors = _gaussian_int_factor((a, b))
    unit_d, fac_d = _gaussian_int_factor((d, 0))
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
