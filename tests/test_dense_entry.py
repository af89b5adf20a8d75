"""One derivation type: its packed images, with a Poly view derived from them.

A Derivation is its packed images. Derivation(P, images) packs Poly
images with poly.packed_terms, derivation_from_text packs text as it
reads it, and the oracle and the classifier (Derivation._of_terms) build
packed images: every constructor keeps packed images only, and the
engine builds their Poly view when it is first read, never packing it
back. Coefficients reach the Gaussian integers through poly.dense_terms,
and normal forms reach one power of the rule scale through
RewriteEngine.dense_normal_forms. Every packed view must meet its
invariant: nonzero images, keys in normal form, no zero coefficient, a
positive integer scale, and the packed-only Derivation of those images
equal to an independent reference. A derivation is packed once, when it
is made, and its relations are checked at most once.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilnd.derivation
from trilnd.classify import NeedsNormalization, _Construction, enumerate_lnds, kernel_generators
from trilnd.corpus import corpus
from trilnd.derivation import (
    Derivation,
    derivation_from_text,
    derivation_to_text,
    is_well_defined,
    kernel_member,
    nilpotency_check,
)
from trilnd.gaussian import ONE, I, InternalError, gq
from trilnd.oracle import (
    _combination,
    _nullspace,
    induced_weight_box,
    oracle_enumerate,
    solution_space,
)
from trilnd.poly import (
    Monomial,
    Poly,
    dense_terms,
    gen_name,
    normal_form,
    pack,
    packed_terms,
    poly_format,
    stepwise_normal_form,
)
from trilnd.presentation import type1, type2

SCALARS = (gq(1), -I, gq(Fraction(1, 2)), gq(Fraction(-2, 3)), gq(2, 1), gq(Fraction(1, 3), -2))
# presentations whose rules have denominators (engine.scale 2, 6 and 3),
# then corpus members, whose rules have none
HALVES = type1(((1, 2), (2,)), constants=(gq(0), gq(Fraction(1, 2))))
SIXTHS = type1(((2,), (2,), (2,)), constants=(gq(0), gq(Fraction(1, 2)), gq(Fraction(1, 3))))
THIRDS = type2(((2,), (2,), (3,)), constants=((gq(1), gq(0)), (gq(0), gq(3)), (gq(2), gq(1))))
PRESENTATIONS = (HALVES, SIXTHS, THIRDS, *corpus()[:6])


def assert_invariant(delta, reference):
    P = delta.presentation
    images, scale = delta.packed()
    assert type(scale) is int and scale > 0
    for g, image in images.items():
        assert g in P.generator_set and image
        assert all(type(a) is int and type(b) is int and (a or b) for a, b in image.values())
        assert P.engine.in_normal_form(image)
    assert Derivation._of(P, packed=images, scale=scale) == reference


def packed_only(delta):
    """Whether the Poly view of delta is not built yet."""
    return delta._images is None


def classifier_outputs(P):
    return [
        inst.derivation
        for inst in enumerate_lnds(P)
        if inst.derivation is not None and not inst.derivation.is_zero()
    ]


@st.composite
def raw_images(draw, P, max_exp=4):
    """Images with fractional coefficients, often outside normal form."""
    n = len(P.generators)
    exponents = st.lists(st.integers(0, max_exp), min_size=n, max_size=n)
    term = st.tuples(st.sampled_from(SCALARS), exponents)
    images = {}
    for g in draw(st.lists(st.sampled_from(P.generators), unique=True, max_size=3)):
        images[g] = Poly()
        for c, exps in draw(st.lists(term, max_size=4)):
            images[g] += Poly.monomial(Monomial(zip(P.generators, exps)), c)
    return images


def test_the_engines_here_have_denominators():
    assert [P.engine.scale for P in (HALVES, SIXTHS, THIRDS)] == [2, 6, 3]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_converter_and_the_text_reader_meet_the_invariant(data):
    P = data.draw(st.sampled_from(PRESENTATIONS))
    raw = data.draw(raw_images(P))
    reference = Derivation(P, raw)
    assert_invariant(reference, reference)
    assert reference.packed()[0] is reference.packed()[0]
    text = derivation_to_text(reference)
    parsed = derivation_from_text(P, text)
    assert packed_only(parsed)
    assert_invariant(parsed, reference)
    # its Poly view, built on first read, keeps the packed view
    packed = parsed.packed()[0]
    assert parsed == reference
    assert parsed.packed()[0] is packed
    # the images as drawn, terms outside normal form included
    text = "".join(f"{gen_name(g)} = {poly_format(img)}\n" for g, img in raw.items() if img)
    parsed = derivation_from_text(P, text)
    assert packed_only(parsed)
    assert_invariant(parsed, reference)
    assert parsed == Derivation(P, raw)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_converter_keeps_no_poly_view(data):
    # Derivation(P, images) packs and normalizes its images and keeps no
    # Poly view of them; the view built on first read is the stepwise
    # normal form of each input, with the images that vanish dropped
    P = data.draw(st.sampled_from(PRESENTATIONS))
    raw = data.draw(raw_images(P))
    delta = Derivation(P, raw)
    assert packed_only(delta)
    want = {g: nf for g, img in raw.items() if (nf := stepwise_normal_form(img, P.rewrite_rules))}
    assert delta.images == want


def test_a_packed_only_derivation_survives_copy_and_pickle():
    P = corpus()[0]
    delta = enumerate_lnds(P, expand=False)[0].derivation
    for checked in (False, True):
        parsed = derivation_from_text(P, derivation_to_text(delta))
        if checked:
            assert is_well_defined(parsed).ok
        for clone in (copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
            assert packed_only(clone)
            assert clone.well_defined is checked
            assert_invariant(clone, delta)
            assert clone == delta == parsed


@pytest.mark.parametrize("P", [HALVES, *corpus()[:8]], ids=lambda P: P.describe())
def test_the_classifier_check_meets_the_invariant(P):
    # every coefficient D_j of every plan descriptor keeps the packed view
    # that _checked marked well defined
    for entry in P.plan:
        descriptors = [desc for _, desc in entry.descriptors]
        if entry.family is not None:
            descriptors.append(entry.family)
        for desc in descriptors:
            try:
                coefficients = _Construction(P, desc, entry.info).coefficients
            except NeedsNormalization:
                continue
            for delta in coefficients:
                assert delta.well_defined
                assert_invariant(delta, delta)
    for delta in classifier_outputs(P):
        assert_invariant(delta, delta)
        for c in SCALARS[:3]:
            scaled = delta * c
            assert_invariant(scaled, scaled)


@pytest.mark.parametrize("P", [HALVES, THIRDS], ids=lambda P: P.describe())
def test_the_classifier_check_refuses_a_term_outside_normal_form(P):
    lead = next(iter(P.rewrite_rules))
    construction = _Construction(P, P.plan[0].descriptors[0][1])
    with pytest.raises(InternalError, match="outside normal form"):
        construction._checked({P.generators[0]: {pack(lead.pairs, P.generator_index): ONE}}, "an image")


def reference_basis(space):
    """The basis from the reduced rows in exact arithmetic, by _nullspace
    over the rows' pivots (the first column of each), as Derivations."""
    reduced = space._constraints
    vectors = _nullspace(reduced, [min(row) for row in reduced], len(space.unknowns))
    out = []
    for vec in vectors:
        images = {}
        for k, c in vec.items():
            g, m = space.unknowns[k]
            images[g] = images.get(g, Poly()) + Poly.monomial(m, c)
        out.append(Derivation(space.presentation, images))
    return out


def test_the_oracle_basis_and_its_combinations_meet_the_invariant():
    combinations = 0
    for P in PRESENTATIONS:
        for w in induced_weight_box(P):
            space = solution_space(P, w, degree_bound=3)
            reference = reference_basis(space)
            assert len(space.basis) == len(reference)
            basis = space.basis
            for delta, want in zip(basis, reference):
                assert delta.well_defined and packed_only(delta)
                assert_invariant(delta, want)
            for a in range(min(3, len(basis))):
                for b in range(a + 1, min(3, len(basis))):
                    for c in ((1, 0), (-1, 0), (0, 1)):
                        x, y = reference[a], reference[b]
                        combination = _combination(basis[a], basis[b], c)
                        assert packed_only(combination)
                        packed = combination.packed()[0]
                        assert combination.images is combination.images
                        assert combination.packed()[0] is packed
                        assert_invariant(combination, x + y * gq(*c))
                        combinations += 1
        # every sample the oracle checks, classifier outputs included
        for entry in oracle_enumerate(P, degree_bound=3).entries:
            for _, delta, _ in entry.samples:
                assert_invariant(delta, Derivation(P, delta.images))
    assert combinations


def test_a_derivation_is_packed_and_checked_at_most_once(monkeypatch):
    # a Derivation is packed when it is made; views counts the Poly views
    # built since, which no check reads
    views, checks = [], []
    images, check = Derivation.images, trilnd.derivation.is_well_defined

    def counted_images(delta):
        if delta._images is None:
            views.append(delta)
        return images.fget(delta)

    def counted_check(delta):
        checks.append(delta)
        return check(delta)

    monkeypatch.setattr(Derivation, "images", property(counted_images))
    # nilpotency_check and the call below look the check up here
    monkeypatch.setattr(trilnd.derivation, "is_well_defined", counted_check)
    chains = representatives = 0
    for P in corpus():
        built = [
            (inst, kernel_generators(P, inst.descriptor))
            for expand in (True, False)
            for inst in enumerate_lnds(P, expand=expand)
            if inst.derivation is not None
        ]
        for inst, kernel in built:
            delta = inst.derivation
            views.clear()
            checks.clear()
            # a representative built from one checked coefficient keeps
            # the packed view that _checked built and marked well defined
            if inst.orbit is None or inst.descriptor.c == inst.orbit.representative:
                if inst.descriptor.kind in ("free", "type1", "t2a"):
                    assert nilpotency_check(delta).verified
                    assert all(kernel_member(delta, g) for g in kernel)
                    assert views == checks == []
                    representatives += 1
                    continue
            assert trilnd.derivation.is_well_defined(delta).ok
            assert nilpotency_check(delta).verified
            assert all(kernel_member(delta, g) for g in kernel)
            assert views == [] and len(checks) <= 1
            chains += 1
    assert chains and representatives


# -- the one normalizer --------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dense_normal_forms_share_one_power_of_the_scale(data):
    P = data.draw(st.sampled_from(PRESENTATIONS))
    engine = P.engine
    polys = list(data.draw(raw_images(P)).values())
    # inputs that need no rule, and one with a cancelled entry
    polys += [normal_form(p, P) for p in data.draw(raw_images(P)).values()]
    s, dense = dense_terms(packed_terms(p, P.generator_index) for p in polys)
    box = engine.box(1, [()] * len(P.generators))
    spare = [key for key, _ in box if dense and key not in dense[-1]]
    if spare and data.draw(st.booleans()):
        dense[-1] = {**dense[-1], data.draw(st.sampled_from(spare)): (0, 0)}
    forms, top = engine.dense_normal_forms(dense)
    assert len(forms) == len(polys)
    f = engine.scale**top
    for p, terms, form in zip(polys, dense, forms):
        assert all(a or b for a, b in form.values())
        assert engine.poly(form, s * f) == normal_form(p, P)
        nonzero = [key for key, (a, b) in terms.items() if a or b]
        if engine.in_normal_form(nonzero):
            assert list(form) == nonzero
            assert all(form[key] == (terms[key][0] * f, terms[key][1] * f) for key in nonzero)


def test_inputs_of_different_tops_are_brought_to_the_highest():
    P = type1(((2,), (3,)), constants=(gq(0), gq(Fraction(1, 2))))
    engine = P.engine
    assert engine.scale == 2
    t1, t2 = P.generators
    lead = Poly.generator(t2) ** 3
    polys = [Poly.generator(t1) * gq(Fraction(1, 3)), lead * lead + Poly.generator(t2), lead]
    s, dense = dense_terms(packed_terms(p, P.generator_index) for p in polys)
    (normal,), _ = engine.dense_normal_forms(dense[:1])
    assert normal is dense[0]
    forms, top = engine.dense_normal_forms(dense)
    assert top == 2
    for p, form in zip(polys, forms):
        assert engine.poly(form, s * engine.scale**top) == normal_form(p, P)
    assert forms[0] == {key: (4 * a, 4 * b) for key, (a, b) in dense[0].items()}
