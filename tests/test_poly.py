import pytest

from trilnd.derivation import Derivation
from trilnd.gaussian import I, gq
from trilnd.poly import (
    Monomial,
    NotDivisible,
    Poly,
    PolyParseError,
    UnknownGenerator,
    exact_divide,
    gen_name,
    normal_form,
    parse_gen_name,
    partial_derivative,
    poly_format,
    poly_parse,
    stepwise_normal_form,
    svar,
    tvar,
)
from trilnd.presentation import surface, type1

X = tvar(0, 1)
Y = tvar(1, 1)
Z = tvar(2, 1)


def p(text):
    return poly_parse(text)


def test_gen_names_round_trip():
    for g in (tvar(0, 1), tvar(12, 3), svar(1), svar(9)):
        assert parse_gen_name(gen_name(g)) == g
    with pytest.raises(UnknownGenerator):
        parse_gen_name("Q1")


def test_monomial_merges_and_drops_zeros():
    m = Monomial({X: 2, Y: 0})
    assert m.exponent(X) == 2
    assert m.exponent(Y) == 0
    assert m.variables() == (X,)
    with pytest.raises(ValueError):
        Monomial({X: -1})


def test_monomial_order_prefers_high_blocks():
    # block order: higher block index more significant, S below any T
    assert Monomial({Z: 1}) > Monomial({Y: 5})
    assert Monomial({Y: 1}) > Monomial({X: 5})
    assert Monomial({X: 1}) > Monomial({svar(1): 5})
    # inside a block the lower column is more significant
    assert Monomial({tvar(1, 1): 1}) > Monomial({tvar(1, 2): 1})


def test_monomial_arithmetic():
    m = Monomial({X: 1, Y: 2})
    n = Monomial({Y: 1})
    assert m * n == Monomial({X: 1, Y: 3})
    assert n.divides(m)
    assert not m.divides(n)
    assert m / n == Monomial({X: 1, Y: 1})
    with pytest.raises(NotDivisible):
        n / m


def test_poly_collects_terms():
    q = Poly([(Monomial({X: 1}), gq(2)), (Monomial({X: 1}), gq(-2))])
    assert q.is_zero()
    assert Poly.zero().degree() == -1
    assert Poly.constant(0).is_zero()


def test_no_zero_coefficient_survives_a_cancellation():
    S = surface(2, 2, 2)
    F = type1(((2,), (3,)), d=2)
    S1, S2 = svar(1), svar(2)
    delta = Derivation(F, {S1: Poly.generator(S2), S2: Poly.generator(S1)})
    x, y = Monomial({X: 1}), Monomial({Y: 1})
    cases = [
        (Poly([(x, gq(2)), (x, gq(-2)), (y, gq(1))]), "T1_1"),
        (p("T0_1 + T1_1") + p("-T0_1"), "T1_1"),
        (p("T0_1 + T1_1") * p("T0_1 - T1_1"), "T0_1^2 - T1_1^2"),
        (poly_parse("T0_1 - T0_1"), "0"),
        (p("T0_1 + T1_1 + T2_1").substitute({X: p("-T1_1")}), "T2_1"),
        (normal_form(S.relations()[0] + p("T0_1"), S), "T0_1"),
        (delta.apply(p("S1^2 - S2^2")), "0"),
    ]
    for q, expected in cases:
        assert all(q.terms.values())
        assert q == p(expected)


def test_poly_ring_identities():
    a = p("T0_1^2 + 3*T1_1")
    b = p("T1_1 - i")
    c = p("2*T2_1")
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a**3 == a * a * a
    assert a * 0 == Poly.zero()
    assert a * 1 == a
    assert 2 * a == a + a


def test_poly_lead_and_degree():
    q = p("T0_1*T1_1 + T2_1^3")
    assert q.degree() == 3
    assert q.lead_monomial() == Monomial({Z: 3})
    with pytest.raises(ValueError):
        Poly.zero().lead_monomial()


def test_partial_derivative():
    q = p("T0_1^3*T1_1 + 2*T1_1^2 + 5")
    assert partial_derivative(q, X) == p("3*T0_1^2*T1_1")
    assert partial_derivative(q, Y) == p("T0_1^3 + 4*T1_1")
    assert partial_derivative(q, Z).is_zero()


def test_exact_divide_by_monomial():
    assert exact_divide(p("2*T0_1*T1_1 + 4*T0_1*T2_1"), p("2*T0_1")) == p("T1_1 + 2*T2_1")
    with pytest.raises(NotDivisible):
        exact_divide(p("T0_1^2 + T1_1^2"), Poly.generator(X))
    with pytest.raises(NotDivisible):
        exact_divide(p("T0_1"), p("T0_1 + T1_1"))


def test_scale_generator_substitutes_scalar():
    q = p("T0_1^2 + T1_1")
    assert q.substitute({X: p("2*T0_1")}) == p("4*T0_1^2 + T1_1")


def test_substitute():
    q = p("T0_1^2 + T1_1")
    out = q.substitute({X: p("T1_1 + 1")})
    assert out == p("T1_1^2 + 3*T1_1 + 1")


def test_parse_and_format_round_trip():
    samples = [
        "0",
        "1",
        "-T0_1",
        "T0_1^2 - T1_1^2",
        "3i*T2_1^2",
        "(1+i)*T0_1*T1_1 - 2/3*S1",
        "T1_1 + i*T0_1",
        "-2i",
    ]
    for text in samples:
        q = poly_parse(text)
        assert poly_parse(poly_format(q)) == q


def test_parse_errors():
    for bad in ["", "T0_1 +", "(T0_1", "T0_1^-2", "T0_1^x", "* T0_1"]:
        with pytest.raises(PolyParseError):
            poly_parse(bad)


def test_parse_respects_allowed_alphabet():
    allowed = [X, Y]
    assert poly_parse("T0_1*T1_1", allowed=allowed) == p("T0_1*T1_1")
    with pytest.raises(UnknownGenerator):
        poly_parse("T2_1", allowed=allowed)


def test_normal_form_on_the_sphere():
    S = surface(2, 2, 2)
    z2 = p("T2_1^2")
    assert normal_form(z2, S) == p("-T0_1^2 - T1_1^2")
    assert normal_form(p("T2_1^3"), S) == p("-T2_1*T0_1^2 - T2_1*T1_1^2")
    # reduced input is untouched
    q = p("T0_1^5 + T2_1*T1_1")
    assert normal_form(q, S) == q


def test_normal_form_strategies_agree():
    S = surface(2, 2, 3)
    samples = [
        p("T2_1^7 + T1_1*T2_1^3"),
        p("(1+i)*T2_1^4*T0_1 - T1_1^2"),
        p("T2_1^3 + T2_1^2 + T2_1 + 1"),
    ]
    for q in samples:
        assert normal_form(q, S) == stepwise_normal_form(q, S.rewrite_rules)


def test_normal_form_kills_relations():
    S = surface(2, 2, 4)
    for rel in S.relations():
        assert normal_form(rel, S).is_zero()
