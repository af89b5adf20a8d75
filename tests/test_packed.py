"""Packed exponent keys of the dense form and their degree bound."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilnd.cli import main
from trilnd.derivation import Derivation, kernel_member, nilpotency_check
from trilnd.poly import (
    DEGREE_BOUND,
    EXPONENT_BITS,
    DegreeOverflow,
    Monomial,
    Poly,
    UnknownGenerator,
    dense_terms,
    exact_divide,
    normal_form,
    pack,
    packed_terms,
    poly_parse,
    svar,
    tvar,
    unpack,
)
from trilnd.presentation import surface, type1


def dense(exps):
    return pack(enumerate(exps), range(len(exps)))


@st.composite
def exponent_pairs(draw):
    """Two exponent vectors of one length, with exponents drawn up to the
    bound and then capped so that each vector's total degree stays below
    half of it: their sum still fits."""
    n = draw(st.integers(min_value=1, max_value=6))
    big = st.integers(min_value=0, max_value=DEGREE_BOUND - 1)
    small = st.integers(min_value=0, max_value=9)
    a = draw(st.lists(st.one_of(small, big), min_size=n, max_size=n))
    b = draw(st.lists(st.one_of(small, big), min_size=n, max_size=n))
    for v in (a, b):
        for k in range(n):
            room = DEGREE_BOUND // 2 - 1 - sum(v[:k])
            v[k] = min(v[k], room)
    return a, b


@settings(max_examples=300, deadline=None)
@given(exponent_pairs())
def test_pack_round_trips_and_adds(pair):
    a, b = pair
    n = len(a)
    assert unpack(dense(a), n) == tuple(a)
    assert dense(a) >> (EXPONENT_BITS * n) == sum(a)
    assert dense(a) + dense(b) == dense([x + y for x, y in zip(a, b)])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3), st.data())
def test_keys_order_by_total_degree_first(a, data):
    b = data.draw(st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3))
    if sum(a) != sum(b):
        assert (dense(a) < dense(b)) == (sum(a) < sum(b))


def test_pack_refuses_a_total_degree_at_the_bound():
    assert dense([DEGREE_BOUND - 1]) >> EXPONENT_BITS == DEGREE_BOUND - 1
    half = DEGREE_BOUND // 2
    for exps in ([DEGREE_BOUND], [half, half], [0, DEGREE_BOUND - 1, 1], [DEGREE_BOUND + 5, 0]):
        with pytest.raises(DegreeOverflow):
            dense(exps)


CYLINDER = surface(2, 2, 2, d=2)
S1, S2 = svar(1), svar(2)


def test_packed_terms_refuses_a_monomial_past_the_bound():
    index = CYLINDER.generator_index
    fits = poly_parse(f"S1^{DEGREE_BOUND // 2}*S2^{DEGREE_BOUND // 2 - 1} + 1")
    terms = packed_terms(fits, index)
    assert max(terms) >> (EXPONENT_BITS * len(index)) == DEGREE_BOUND - 1
    for text in (f"S1^{DEGREE_BOUND}", f"S1^{DEGREE_BOUND // 2}*S2^{DEGREE_BOUND // 2} + 1"):
        with pytest.raises(DegreeOverflow):
            packed_terms(poly_parse(text), index)


def test_a_step_past_the_bound_raises():
    # every image is a valid key, and none has a monomial factor; the first
    # step from S2^(2^32 - 1) + 1 has degree 2^32, which Leibniz makes and
    # the normal form refuses
    top = DEGREE_BOUND - 1
    delta = Derivation(CYLINDER, {S1: poly_parse(f"S2^{top} + 1"), S2: poly_parse("S1^2 + 1")})
    with pytest.raises(DegreeOverflow):
        nilpotency_check(delta, degree_limit=DEGREE_BOUND)
    with pytest.raises(DegreeOverflow):
        kernel_member(delta, poly_parse(f"S2^{top}"))
    # under the default degree guard the iterate is never stepped
    report = nilpotency_check(delta)
    assert (report.status, report.witness, report.guard) == ("inconclusive", S1, "degree_limit")
    assert kernel_member(delta, poly_parse(f"S2^{top - 1}")) is False


def test_a_cancelled_key_past_the_bound_is_refused():
    n = len(CYLINDER.generators)
    wrapped = DEGREE_BOUND << (EXPONENT_BITS * n)
    with pytest.raises(DegreeOverflow):
        CYLINDER.engine.dense_normal_form({wrapped: (0, 0)})
    with pytest.raises(DegreeOverflow):
        CYLINDER.engine.dense_normal_form({wrapped: (1, 0)})


def test_a_reduction_past_the_bound_raises_before_it_is_built():
    # the rule T2_1 -> T1_1^5 + c multiplies the degree of T2_1^q by five,
    # so T2_1^(2^30) is a valid key whose normal form is not
    P = type1(((5,), (1,)))
    n = len(P.generators)
    q = DEGREE_BOUND // 4
    key = dense([0, q])
    with pytest.raises(DegreeOverflow):
        P.engine.dense_normal_form({key: (1, 0)})
    assert not P.engine._reductions and not P.engine._powers
    nf, top = P.engine.dense_normal_form({dense([0, 3]): (1, 0)})
    assert top == 3 and max(nf) >> (EXPONENT_BITS * n) == 15


def apply_degrees(delta, g, steps):
    """The total degrees of delta^1(g), ..., delta^steps(g), exactly."""
    p, out = delta.image(g), []
    for _ in range(steps):
        out.append(p.degree())
        p = delta.apply(p)
    return out


# no iterate of S1 has a monomial factor, so nilpotency_check steps the
# plain iterates, of degrees 2, 3, 4, ... and 3, 5, 7, ...
@pytest.mark.parametrize(
    "images",
    [
        {S1: "S1^2 + S2", S2: "1"},
        {S1: "S1^3 + S2 + T0_1", S2: "2*S1 + 1"},
    ],
)
def test_the_degree_guard_trips_at_the_first_iterate_past_the_limit(images):
    delta = Derivation(CYLINDER, {g: poly_parse(text) for g, text in images.items()})
    degrees = apply_degrees(delta, S1, 8)
    for limit in range(1, 12):
        # the guard reads iterate number `steps` before stepping it, and the
        # cap is checked first: the cap trips at every cap up to the first
        # iterate past the limit, and the degree guard after that
        first = next((k + 1 for k, d in enumerate(degrees) if d > limit), None)
        for cap in range(1, 9):
            report = nilpotency_check(delta, cap=cap, degree_limit=limit, term_limit=10**6)
            assert report.status == "inconclusive" and report.witness == S1
            if first is None or cap <= first:
                assert report.guard == "cap", (limit, cap)
            else:
                assert report.guard == "degree_limit", (limit, cap)


def test_cli_reports_a_degree_past_the_bound_as_an_input_error(tmp_path, capsys):
    # no rule applies to the second image, and Derivation(...) refuses it
    # with the same report before any check runs
    one_free = tmp_path / "p.json"
    one_free.write_text(json.dumps({"type": 1, "blocks": [[2], [3]], "free_vars": 1}))
    cases = [
        ("sample_inputs/sphere_cylinder.json", f"S1 = S1^{DEGREE_BOUND}\n"),
        (str(one_free), "T1_1 = S1^4294967296\n"),
    ]
    deriv = tmp_path / "d.txt"
    for presentation, text in cases:
        deriv.write_text(text)
        code = main(["verify", "--presentation", presentation, "--derivation", str(deriv)])
        rep = json.loads(capsys.readouterr().out)
        assert code == 1
        assert rep == {
            "error": f"a monomial reaches total degree 2^{EXPONENT_BITS}, the bound of the dense form",
            "kind": "DegreeOverflow",
        }


def test_degree_bound_holds_at_library_level():
    # normal_form packs every term, so it and Derivation(...) refuse a
    # monomial past the bound even where no rule applies
    P = type1(((2,), (3,)), d=1)
    huge = Poly.generator(svar(1)) ** DEGREE_BOUND
    with pytest.raises(DegreeOverflow):
        normal_form(huge, P)
    with pytest.raises(DegreeOverflow):
        Derivation(P, {tvar(1, 1): huge})
    below = Poly.generator(svar(1)) ** (DEGREE_BOUND - 1)
    assert normal_form(below, P) is below


def test_a_foreign_generator_is_named_before_a_degree_past_the_bound():
    # every entry that packs a Poly names a foreign generator in a later
    # term before it refuses an earlier monomial past the bound
    P = type1(((2,), (3,)), d=1)
    image = Poly.generator(svar(1)) ** DEGREE_BOUND + Poly.generator(svar(2))
    with pytest.raises(UnknownGenerator, match="^image of T1_1 uses foreign generator S2$"):
        Derivation(P, {tvar(1, 1): image})
    with pytest.raises(UnknownGenerator, match="^S2 is not a generator of this presentation$"):
        normal_form(image, P)
    delta = Derivation(P, {tvar(1, 1): Poly.generator(tvar(2, 1))})
    with pytest.raises(UnknownGenerator, match="^S2 is not a generator of this presentation$"):
        kernel_member(delta, image)


def test_dense_images_are_keys_of_the_generator_positions():
    delta = Derivation(CYLINDER, {S1: poly_parse("3*T0_1^2*S2 - i")})
    images, _ = delta.packed()
    n = len(CYLINDER.generators)
    image = images[S1]
    want = {
        (2, 0, 0, 0, 1): (3, 0),
        (0, 0, 0, 0, 0): (0, -1),
    }
    assert {unpack(key, n): c for key, c in image.items()} == want
    assert all(key >> (EXPONENT_BITS * n) == sum(unpack(key, n)) for key in image)


@pytest.mark.parametrize(
    "text",
    [
        "3*T0_1^2*S2",  # a single term is its own content
        "-i",  # a constant has none
        "T0_1 + S2^2 - 1",  # content-free
        "T0_1^2*S1*S2 - 2*T0_1*S2^3 + i*T0_1^3*S2",
        "S1^5*S2 + S1^2*S2^4",
    ],
)
def test_content_is_the_least_exponent_of_each_generator(text):
    p = poly_parse(text)
    engine = CYLINDER.engine
    terms = dense_terms([packed_terms(p, CYLINDER.generator_index)])[1][0]
    pairs, quotient = engine.content(terms)
    least = {g: min(m.exponent(g) for m in p.terms) for g in CYLINDER.generators}
    assert dict(pairs) == {g: e for g, e in least.items() if e}
    assert [g for g, _ in pairs] == sorted(dict(pairs), reverse=True)
    mu = Monomial(pairs)
    want = dense_terms([packed_terms(exact_divide(p, mu), CYLINDER.generator_index)])[1][0]
    assert quotient == want
