"""The report writer against the stdlib's json.dumps(obj, indent=2), and the
merged Monomial product and quotient against an exponent-dict reference."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilnd.cli import json_text
from trilnd.poly import Monomial, NotDivisible, svar, tvar

LEAVES = (
    st.text()
    | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "é λ ∂", "\U0001f600", "</script>"])
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(max_value=-(2**64), min_value=-(2**200))
    | st.booleans()
    | st.none()
)
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_writer_matches_indented_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}}, [[], {}], {"a": [()]}])
def test_writer_on_empty_containers(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [1.5, Fraction(1, 2), {1: "a"}, {None: 1}, [set()], {"a": b"x"}, object(), [{"k": 2.0}]],
)
def test_writer_refuses_anything_else(obj):
    with pytest.raises(TypeError):
        json_text(obj)


GENS = [tvar(i, j) for i in range(3) for j in range(1, 4)] + [svar(1), svar(2)]
MONOMIALS = st.dictionaries(st.sampled_from(GENS), st.integers(0, 4), max_size=6).map(Monomial)


def reference(a: Monomial, b: Monomial, sign: int) -> dict:
    out = dict(a.pairs)
    for g, e in b.pairs:
        out[g] = out.get(g, 0) + sign * e
    return {g: e for g, e in out.items() if e}


@settings(max_examples=400, deadline=None)
@given(MONOMIALS, MONOMIALS)
def test_monomial_product_and_quotient_merge_in_order(a, b):
    product, expected = a * b, Monomial(reference(a, b, 1))
    assert product == expected and product.pairs == expected.pairs
    # the sort key built by the merge is the one Monomial builds
    assert product <= expected <= product
    assert product / b == a and (product / b).pairs == a.pairs
    quotient = reference(a, b, -1)
    if all(e > 0 for e in quotient.values()):
        assert a / b == Monomial(quotient)
        assert b.divides(a)
    else:
        assert not b.divides(a)
        with pytest.raises(NotDivisible):
            a / b
