import copy
import pickle
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilnd.gaussian import (
    I,
    ONE,
    ZERO,
    GaussianRational,
    ScalarParseError,
    gq,
    gq_factor,
    gq_format,
    gq_nth_root,
    gq_parse,
    gq_sqrt,
)


def test_constructor_and_shorthand():
    a = GaussianRational(1, 2)
    assert a == gq(1, 2)
    assert gq(Fraction(1, 2)).real == Fraction(1, 2)
    assert gq(3).imag == 0


def test_field_arithmetic():
    a = gq(1, 2)
    b = gq(3, -1)
    assert a + b == gq(4, 1)
    assert a - b == gq(-2, 3)
    assert a * b == gq(5, 5)
    assert a * a.inverse() == ONE
    assert (a / b) * b == a
    assert -a == gq(-1, -2)
    assert 2 - a == gq(1, -2)
    assert 6 / gq(2) == gq(3)


def test_i_squares_to_minus_one():
    assert I * I == gq(-1)
    assert I**4 == ONE
    assert I**-1 == -I


def test_pow_negative_and_zero():
    a = gq(2, 1)
    assert a**0 == ONE
    assert a**-2 == (a * a).inverse()


def test_conjugate_and_norm():
    a = gq(3, 4)
    assert a.conjugate() == gq(3, -4)
    assert a.norm() == 25
    assert a * a.conjugate() == gq(25)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_bool_and_is_rational():
    assert not ZERO
    assert gq(0, 1)


def test_parse_basic_forms():
    assert gq_parse("3/4") == gq(Fraction(3, 4))
    assert gq_parse("-i") == gq(0, -1)
    assert gq_parse("1/2+2/3i") == gq(Fraction(1, 2), Fraction(2, 3))
    assert gq_parse("i") == I
    assert gq_parse("-2/5") == gq(Fraction(-2, 5))
    assert gq_parse("1-i") == gq(1, -1)
    assert gq_parse("0") == ZERO


@pytest.mark.parametrize("bad", ["", "1++i", "i2", "1/0", "2.5", "1 + i", "x"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ScalarParseError):
        gq_parse(bad)


def test_format_round_trips():
    values = [
        gq(0),
        gq(1),
        gq(-1),
        I,
        -I,
        gq(Fraction(3, 4)),
        gq(0, Fraction(-2, 7)),
        gq(Fraction(1, 2), Fraction(2, 3)),
        gq(1, -1),
        gq(-5, 3),
    ]
    for v in values:
        assert gq_parse(gq_format(v)) == v


def test_sqrt_of_squares():
    assert gq_sqrt(gq(Fraction(9, 4))) == gq(Fraction(3, 2))
    root = gq_sqrt(gq(-1))
    assert root * root == gq(-1)
    root = gq_sqrt(gq(0, 2))
    assert root * root == gq(0, 2)
    assert gq_sqrt(gq(-4)) in (gq(0, 2), gq(0, -2))
    assert gq_sqrt(ZERO) == ZERO


def test_sqrt_of_non_squares():
    assert gq_sqrt(gq(2)) is None
    assert gq_sqrt(gq(Fraction(1, 2))) is None
    assert gq_sqrt(gq(0, 3)) is None
    assert gq_sqrt(gq(1, 1)) is None


def test_nth_root():
    assert gq_nth_root(gq(8), 3) == gq(2)
    assert gq_nth_root(gq(16), 4) in (gq(2), gq(-2), gq(0, 2), gq(0, -2))
    assert gq_nth_root(gq(5), 1) == gq(5)
    assert gq_nth_root(ZERO, 7) == ZERO
    assert gq_nth_root(gq(2), 3) is None
    root = gq_nth_root(gq(0, -8), 3)
    assert root is not None and root**3 == gq(0, -8)
    with pytest.raises(ValueError):
        gq_nth_root(gq(1), 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_nth_root_of_one_is_one(n):
    assert gq_nth_root(ONE, n) == ONE


SMALL_PART = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=100, deadline=None)
@given(
    st.builds(gq, SMALL_PART, SMALL_PART).filter(bool),
    st.integers(3, 6),
)
def test_nth_roots_from_prime_valuations(w, n):
    q = w**n
    root = gq_nth_root(q, n)
    assert root is not None and root**n == q
    # one extra prime (1+2i) leaves an exponent that n does not divide
    assert gq_nth_root(q * gq(1, 2), n) is None
    unit, factors = gq_factor(q * gq(1, 2))
    product = unit
    for (a, b), e in factors.items():
        product = product * gq(a, b) ** e
    assert product == q * gq(1, 2)


def test_hashable_and_comparable_with_ints():
    assert gq(2) == 2
    assert 2 == gq(2)
    assert hash(gq(1, 0)) == hash(gq(1))
    assert len({gq(1), gq(1, 0), ONE}) == 1


# -- differential tests against a Fraction-pair reference ---------------------


@dataclass(frozen=True)
class RefQ:
    """The reference scalar: a real and an imaginary Fraction."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x):
        if isinstance(x, RefQ):
            return x
        return RefQ(Fraction(x), Fraction(0))

    def __add__(self, o):
        o = RefQ.of(o)
        return RefQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = RefQ.of(o)
        return RefQ(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = RefQ.of(o)
        return RefQ(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm()
        return RefQ(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * RefQ.of(o).inverse()

    def __pow__(self, e):
        base = self.inverse() if e < 0 else self
        out = RefQ.of(1)
        for _ in range(abs(e)):
            out = out * base
        return out


def ref_format(q: RefQ) -> str:
    """The Fraction-based text form the scalar layer has always printed."""
    re_, im = q.re, q.im
    if im == 0:
        return str(re_)
    istr = "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    if re_ == 0:
        return istr
    return f"{re_}{'+' if im > 0 else ''}{istr}"


def agrees(q, ref: RefQ) -> bool:
    """q has ref's value and is in canonical form."""
    a, b, d = q._abd
    return (
        isinstance(q, GaussianRational)
        and all(type(x) is int for x in (a, b, d))
        and d > 0
        and gcd(a, b, d) == 1
        and (q.real, q.imag) == (ref.re, ref.im)
    )


PART = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
PAIR = st.tuples(PART, PART)
OPERAND = st.one_of(st.integers(-9, 9), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)))


@settings(max_examples=300, deadline=None)
@given(PAIR, PAIR, OPERAND, st.integers(-4, 4))
def test_scalar_layer_matches_fraction_pairs(xp, yp, k, e):
    x, y = gq(*xp), gq(*yp)
    rx, ry = RefQ(*xp), RefQ(*yp)
    assert agrees(x, rx) and agrees(y, ry)
    assert agrees(x + y, rx + ry) and agrees(x - y, rx - ry) and agrees(x * y, rx * ry)
    assert agrees(x + k, rx + k) and agrees(k + x, RefQ.of(k) + rx)
    assert agrees(x - k, rx - k) and agrees(k - x, RefQ.of(k) - rx)
    assert agrees(x * k, rx * k) and agrees(k * x, rx * k)
    assert agrees(-x, RefQ.of(0) - rx)
    assert agrees(x.conjugate(), RefQ(rx.re, -rx.im))
    assert x.norm() == rx.norm() and type(x.norm()) is Fraction
    assert bool(x) == bool(rx.re or rx.im)
    assert (x == y) == (rx == ry) and (x == k) == (rx == RefQ.of(k))
    assert (k == x) == (rx == RefQ.of(k))
    if y:
        assert agrees(x / y, rx / ry) and agrees(y.inverse(), ry.inverse())
    if k:
        assert agrees(x / k, rx / k)
    if x:
        assert agrees(k / x, RefQ.of(k) / rx)
    if x or e >= 0:
        assert agrees(x**e, rx**e)
    assert gq_format(x) == ref_format(rx)
    assert gq_parse(gq_format(x)) == x
    root = gq_sqrt(x * x)
    assert root * root == x * x
    assert root.real > 0 or (root.real == 0 and root.imag >= 0)


@settings(max_examples=100, deadline=None)
@given(PAIR, PAIR.filter(lambda p: any(p)))
def test_equal_values_hash_alike(xp, yp):
    x, y = gq(*xp), gq(*yp)
    z = x * y / y
    assert z == x and hash(z) == hash(x)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)


def test_equal_values_from_different_paths():
    assert gq(Fraction(2, 4)) == gq(1) / 2 == GaussianRational(Fraction(1, 2), 0)
    assert hash(gq(Fraction(2, 4))) == hash(gq(1) / 2)
    assert gq(Fraction(2, 4), Fraction(-6, 4)) == gq_parse("2/4-6/4i") == gq(1, -3) / 2
    assert len({gq(Fraction(3, 3), 0), ONE, I * -I, gq_parse("4/4")}) == 1


def test_scalars_are_immutable_and_copyable():
    q = gq(Fraction(1, 2), -3)
    with pytest.raises(AttributeError):
        q.real = Fraction(1)
    with pytest.raises(AttributeError):
        q._abd = (0, 0, 1)
    with pytest.raises(AttributeError):
        del q._abd
    assert q == gq(Fraction(1, 2), -3)
    for clone in (copy.copy(q), copy.deepcopy(q), pickle.loads(pickle.dumps(q))):
        assert clone == q and hash(clone) == hash(q) and clone._abd == q._abd
