"""Generators are their own sort keys.

tvar(i, j) is (1, i, ~j) and svar(k) is (0, ~k), so plain tuple order on
generators, and on a Monomial's (generator, exponent) pairs, is the
monomial order. The reference here is the significance key the order
used to be computed through, applied to the ("T", i, j) and ("S", k)
tuples that generators used to be, read off their names so that it does
not depend on the encoding under test.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilnd.corpus import corpus
from trilnd.poly import Monomial, NotDivisible, gen_name, pack, parse_gen_name, svar, tvar
from trilnd.presentation import TrinomialPresentation, type1

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
# four blocks of up to four variables and two free variables
WIDE = type1(((1, 2, 3, 4), (2, 2), (3,), (1, 1, 1)), d=2)
PRESENTATIONS = [
    *corpus(),
    *(TrinomialPresentation.from_json(path.read_text()) for path in sorted(SAMPLES.glob("*.json"))),
    WIDE,
]
GENERATORS = sorted({g for P in PRESENTATIONS for g in P.generators})


def old_encoding(g):
    name = gen_name(g)
    if name[0] == "T":
        i, j = name[1:].split("_")
        return ("T", int(i), int(j))
    return ("S", int(name[1:]))


def gen_significance(g):
    """Sort key of an old-encoding generator, larger means more significant."""
    if g[0] == "T":
        return (1, g[1], -g[2])
    return (0, -g[1])


def significance(g):
    return gen_significance(old_encoding(g))


def reference_pairs(exps: dict) -> tuple:
    """The (generator, exponent) pairs of exps, zeros dropped, most
    significant generator first by the reference key."""
    items = [(g, e) for g, e in exps.items() if e]
    return tuple(sorted(items, key=lambda it: significance(it[0]), reverse=True))


def reference_key(exps: dict) -> tuple:
    return tuple((significance(g), e) for g, e in reference_pairs(exps))


def test_every_generator_is_seen():
    assert {gen_name(g) for g in WIDE.generators} >= {"T1_4", "T4_3", "S1", "S2"}
    assert len(GENERATORS) == len({gen_name(g) for g in GENERATORS})


def test_tuple_order_on_generators_is_the_significance_order():
    assert GENERATORS == sorted(GENERATORS, key=significance)
    names = [gen_name(g) for g in sorted(WIDE.generators, reverse=True)]
    assert names[:5] == ["T4_1", "T4_2", "T4_3", "T3_1", "T2_1"]
    assert names[-2:] == ["S1", "S2"]


def test_distinct_generators_hash_differently():
    assert len({hash(g) for g in GENERATORS}) == len(GENERATORS)
    # the columns would collide with -j, as hash(-1) == hash(-2)
    assert hash(tvar(0, 1)) != hash(tvar(0, 2)) and hash(svar(1)) != hash(svar(2))


def test_generator_names_round_trip():
    for g in GENERATORS:
        assert parse_gen_name(gen_name(g)) == g


EXPONENT_MAPS = st.dictionaries(st.sampled_from(GENERATORS), st.integers(0, 4), max_size=6)


@settings(max_examples=300, deadline=None)
@given(EXPONENT_MAPS, EXPONENT_MAPS)
def test_monomial_comparison_is_the_reference_order(a, b):
    ma, mb = Monomial(a), Monomial(b)
    ka, kb = reference_key(a), reference_key(b)
    assert ma.pairs == reference_pairs(a)
    assert (ma < mb, ma <= mb, ma > mb, ma >= mb, ma == mb) == (
        ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(EXPONENT_MAPS, max_size=8))
def test_sorting_monomials_follows_the_reference_order(maps):
    monomials = [Monomial(exps) for exps in maps]
    ordered = sorted(monomials)
    assert [reference_key(dict(m.pairs)) for m in ordered] == sorted(map(reference_key, maps))
    assert max(monomials, default=None) == (ordered[-1] if ordered else None)


@settings(max_examples=300, deadline=None)
@given(EXPONENT_MAPS, EXPONENT_MAPS)
def test_products_and_quotients_are_the_reference_monomials(a, b):
    ma, mb = Monomial(a), Monomial(b)
    product = {g: a.get(g, 0) + b.get(g, 0) for g in {*a, *b}}
    assert (ma * mb).pairs == reference_pairs(product)
    assert (ma * mb) / mb == ma and ((ma * mb) / mb).pairs == reference_pairs(a)
    if all(a.get(g, 0) >= e for g, e in b.items()):
        assert (ma / mb).pairs == reference_pairs({g: e - b.get(g, 0) for g, e in a.items()})
    else:
        with pytest.raises(NotDivisible):
            ma / mb


@settings(max_examples=100, deadline=None)
@given(st.data(), st.randoms(use_true_random=False))
def test_relabel_sorts_by_the_reference_order(data, rnd: random.Random):
    # the key relabel, RewriteEngine.swapped, on a product of disjoint
    # transpositions: the Monomial of the swapped key has the reference pairs
    P = data.draw(st.sampled_from(PRESENTATIONS))
    a = data.draw(st.dictionaries(st.sampled_from(P.generators), st.integers(0, 5), max_size=6))
    gens = list(P.generators)
    rnd.shuffle(gens)
    sigma = {}
    for g, h in zip(gens[0::2], gens[1::2]):
        if rnd.random() < 0.5:
            sigma.update({g: h, h: g})
    (key,) = P.engine.swapped({pack(a.items(), P.generator_index): None}, sigma)
    relabelled = {sigma.get(g, g): e for g, e in a.items()}
    assert P.engine.monomial(key).pairs == reference_pairs(relabelled)
