"""Randomized algebra checks.

The deterministic tests freeze specific values; these ones attack the
ring axioms, normal forms, and the classifier from random directions.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from trilnd.classify import LndDescriptor, admissible_tuples, build_lnd, enumerate_lnds
from trilnd.corpus import corpus
from trilnd.derivation import (
    derivation_from_text,
    derivation_to_text,
    is_well_defined,
    nilpotency_check,
)
from trilnd.gaussian import I, GaussianRational, gq
from trilnd.grading import weight_assignment, weight_of
from trilnd.poly import Monomial, Poly, normal_form, stepwise_normal_form
from trilnd.presentation import surface, type2
from trilnd.toric import Cone2D, demazure_roots, gamma_cone, toric_derivation

SPHERE = surface(2, 2, 2)
UNEVEN = type2(((2,), (2,), (3,)))

SCALARS = st.sampled_from(
    [gq(0), gq(1), gq(-1), gq(2), gq(-3), I, -I, gq(1, 1), gq(-1, 2), gq(1, -2)]
)


def monomials(gens, max_exp=3):
    pools = [st.integers(min_value=0, max_value=max_exp) for _ in gens]
    return st.tuples(*pools).map(
        lambda exps: Monomial({g: e for g, e in zip(gens, exps) if e})
    )


def polys(presentation, max_terms=4, max_exp=3):
    term = st.tuples(SCALARS, monomials(presentation.generators, max_exp))
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: sum(
            (Poly.monomial(m, c) for c, m in terms), start=Poly.zero()
        )
    )


# -- normal form is a ring map onto the reduced representatives ---------------


@settings(max_examples=250, deadline=None)
@given(polys(SPHERE), polys(SPHERE))
def test_normal_form_is_multiplicative(p, q):
    rules = SPHERE.rewrite_rules
    lhs = normal_form(p * q, rules)
    rhs = normal_form(normal_form(p, rules) * normal_form(q, rules), rules)
    assert lhs == rhs


@settings(max_examples=250, deadline=None)
@given(polys(UNEVEN), polys(UNEVEN))
def test_normal_form_is_additive(p, q):
    rules = UNEVEN.rewrite_rules
    assert normal_form(p + q, rules) == normal_form(p, rules) + normal_form(q, rules)


@settings(max_examples=250, deadline=None)
@given(polys(UNEVEN, max_exp=4))
def test_rewrite_strategies_agree(p):
    rules = UNEVEN.rewrite_rules
    assert normal_form(p, rules) == stepwise_normal_form(p, rules)


@settings(max_examples=250, deadline=None)
@given(polys(SPHERE), polys(SPHERE))
def test_ring_subtraction_cancels(p, q):
    assert (p + q) - q == p


@settings(max_examples=200, deadline=None)
@given(polys(SPHERE), polys(SPHERE))
def test_derivation_satisfies_leibniz(p, q):
    delta = build_lnd(
        SPHERE, LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I)
    )
    lhs = delta.apply(p * q)
    rhs = delta.apply(p) * q + p * delta.apply(q)
    rules = SPHERE.rewrite_rules
    assert normal_form(lhs - rhs, rules).is_zero()


# -- scalar field axioms -------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(SCALARS, SCALARS, SCALARS)
def test_gaussian_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + (b + c) == (a + b) + c
    if not b == 0:
        assert (a / b) * b == a


@settings(max_examples=300, deadline=None)
@given(SCALARS)
def test_gaussian_conjugate_norm(a):
    assert a * a.conjugate() == GaussianRational.of(a.norm())


# -- classifier invariances ----------------------------------------------------


def test_counts_survive_block_permutation():
    # shuffling blocks (with matching constants) cannot change the story
    base_blocks = ((2,), (2,), (4,))
    base_cols = ((gq(1), gq(0)), (gq(0), gq(1)), (gq(-1), gq(-1)))
    reference = None
    for perm in itertools.permutations(range(3)):
        blocks = tuple(base_blocks[i] for i in perm)
        cols = tuple(base_cols[i] for i in perm)
        P = type2(blocks, constants=cols)
        infos = admissible_tuples(P)
        signature = sorted((a.case, len(a.labelings)) for a in infos)
        if reference is None:
            reference = signature
        assert signature == reference


def test_enumerated_lnds_verify_across_random_lambdas():
    rng = random.Random(20260815)
    for _ in range(10):
        lam = gq(rng.randint(-5, 5), rng.randint(-5, 5))
        out = enumerate_lnds(SPHERE, lambdas=(lam,))
        for inst in out:
            assert inst.derivation is not None
            assert is_well_defined(inst.derivation).ok
            assert nilpotency_check(inst.derivation).verified


def test_toric_grid_all_verified():
    for gamma in (2, 3, 4, 5, 6):
        for ray in (1, 2):
            for p in (1, 2, 3):
                td = toric_derivation(gamma, ray, p)
                assert is_well_defined(td.xyz).ok
                assert nilpotency_check(td.xyz).verified


def test_random_cones_pair_correctly():
    # every emitted root must pair to -1 against its ray's normal and
    # stay non-negative against the other one
    rng = random.Random(7)
    cones = [gamma_cone(g) for g in (2, 3, 4, 5)]
    while len(cones) < 12:
        a = (rng.randint(-4, 4), rng.randint(-4, 4))
        b = (rng.randint(-4, 4), rng.randint(-4, 4))
        try:
            cones.append(Cone2D(a, b))
        except ValueError:
            continue
    for cone in cones:
        for ray in (1, 2):
            fam = demazure_roots(cone, ray)
            n = fam.normal
            other = fam.other_normal
            for p in range(1, 8):
                e = fam.root(p)
                assert n[0] * e[0] + n[1] * e[1] == -1
                assert other[0] * e[0] + other[1] * e[1] >= 0
                assert fam.contains(e)


# -- corpus-wide structural facts ----------------------------------------------


def test_relations_reduce_to_zero_everywhere():
    for P in corpus():
        rules = P.rewrite_rules
        for rel in P.relations():
            assert normal_form(rel, rules).is_zero()


def test_relations_homogeneous_everywhere():
    for P in corpus():
        grading = weight_assignment(P)
        for rel in P.relations():
            weight_of(rel, grading)


def test_invariant_field_generators_share_weights():
    for P in corpus():
        grading = weight_assignment(P)
        for num, den in P.invariant_field_generators():
            assert weight_of(num, grading) == weight_of(den, grading)


def test_derivation_text_round_trip_on_emitted_lnds():
    for P in corpus():
        for inst in enumerate_lnds(P):
            if inst.derivation is None:
                continue
            text = derivation_to_text(inst.derivation)
            assert derivation_from_text(P, text) == inst.derivation
