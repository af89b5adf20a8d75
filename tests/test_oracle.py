import random

import pytest

from trilnd.classify import LndDescriptor, build_lnd, enumerate_lnds
from trilnd.corpus import corpus
from trilnd.derivation import Derivation, is_well_defined
from trilnd.gaussian import I, gq
from trilnd.oracle import (
    BoxTooLarge,
    induced_weight_box,
    oracle_enumerate,
    solution_space,
)
from trilnd.poly import Poly, poly_parse, tvar
from trilnd.presentation import surface, type1, type2


def test_solution_space_degree_one_sphere():
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    # nine unknown coefficients: three generators times (1, x, y, z) minus
    # the images that cannot carry weight zero
    assert len(sp.unknowns) == 9
    assert sp.dimension == 4
    assert len(sp.basis) == 4
    for delta in sp.basis:
        from trilnd.derivation import is_well_defined

        assert is_well_defined(delta).ok


def test_solution_space_contains_classifier_output():
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    d0 = build_lnd(P, LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I))
    assert sp.contains(d0)
    coords = sp.coordinates_of(d0)
    assert coords is not None
    assert len(coords) == len(sp.unknowns)
    assert any(coords)


def test_solution_space_contains_euler():
    # the diagonal derivation is linear of weight zero, so it must show up
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    euler = Derivation(P, {g: Poly.generator(g) for g in P.generators})
    assert sp.contains(euler)


def test_coordinates_outside_the_box():
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    cubic = Derivation(P, {tvar(0, 1): poly_parse("T2_1^3")})
    assert sp.coordinates_of(cubic) is None
    assert not sp.contains(cubic)


def test_solution_space_unknown_guard():
    with pytest.raises(BoxTooLarge):
        solution_space(surface(2, 2, 2), (0,), degree_bound=4, max_unknowns=1)


def test_induced_weight_box():
    assert induced_weight_box(surface(2, 2, 2)) == ((0,),)
    assert induced_weight_box(surface(2, 2, 4)) == ((0,), (4,))
    assert induced_weight_box(type1(((3,), (1, 2)))) == ((0,), (2,))


def test_oracle_finds_sphere_lnds():
    rep = oracle_enumerate(surface(2, 2, 2), degree_bound=1)
    assert rep.nilpotent_found
    (entry,) = rep.entries
    assert entry.weight == (0,)
    assert entry.dimension == 4
    assert entry.nilpotent_found
    # every classifier output lands inside the solved space
    assert entry.classifier_members
    assert all(in_span for _, in_span in entry.classifier_members)


def test_oracle_on_rigid_member():
    rep = oracle_enumerate(type1(((2, 3), (4,))), degree_bound=2)
    assert not rep.nilpotent_found
    for entry in rep.entries:
        assert not entry.nilpotent_found


def test_oracle_guards():
    with pytest.raises(BoxTooLarge):
        oracle_enumerate(surface(2, 2, 2), max_weights=0)
    with pytest.raises(BoxTooLarge):
        oracle_enumerate(surface(2, 2, 2), max_unknowns=2)


def test_report_serialization():
    rep = oracle_enumerate(surface(2, 2, 2), degree_bound=1)
    d = rep.to_dict()
    assert list(d.keys()) == [
        "presentation",
        "degree_bound",
        "cap",
        "weight_basis",
        "nilpotent_found",
        "entries",
    ]
    assert d["weight_basis"] == ["e"]
    (entry,) = d["entries"]
    assert entry["weight"] == [0]
    assert entry["weight_label"] == "0"
    assert entry["dimension"] == 4
    assert entry["nilpotent_found"] is True
    sample_names = [s["name"] for s in entry["samples"]]
    assert "basis[0]" in sample_names
    verified = [s for s in entry["samples"] if s["nilpotency"] == "verified"]
    assert verified
    assert all(s["index"] is not None for s in verified)


def test_explicit_weight_list():
    P = surface(2, 2, 4)
    rep = oracle_enumerate(P, weights=[(4,)], degree_bound=2)
    assert [e.weight for e in rep.entries] == [(4,)]
    assert rep.nilpotent_found


def test_combination_sampling_finds_hidden_lnd():
    # no single basis vector of the weight-zero space is nilpotent, but a
    # complex combination is; the sampler must surface one
    rep = oracle_enumerate(surface(2, 2, 2), degree_bound=1)
    (entry,) = rep.entries
    basis_samples = [s for s in entry.samples if s[0].startswith("basis[") and "+" not in s[0] and "-" not in s[0]]
    assert basis_samples
    assert all(s[2].status == "inconclusive" for s in basis_samples)
    combo_hits = [
        s
        for s in entry.samples
        if not s[0].startswith("classifier:") and s[2].status == "verified"
    ]
    assert combo_hits


def test_weight_without_unknowns_gives_an_empty_entry():
    rep = oracle_enumerate(surface(2, 2, 3), weights=[(100,)], degree_bound=2)
    (entry,) = rep.entries
    assert entry.unknown_count == 0
    assert entry.dimension == 0
    assert entry.samples == []


def test_cap_below_one_and_negative_degree_bound_are_rejected():
    P = type1(((2,), (3,), (4,), (2,)))
    with pytest.raises(ValueError):
        oracle_enumerate(P, cap=0)
    with pytest.raises(ValueError):
        oracle_enumerate(P, degree_bound=-3)
    with pytest.raises(ValueError):
        solution_space(P, (0,), degree_bound=-1)


def test_contains_checks_the_reduced_constraints():
    rng = random.Random(8017)
    pool = [gq(1), gq(-2), I, gq(1, -1), gq(3, 2) / 5]
    broken = 0
    for P in corpus():
        outputs = [
            inst.derivation
            for inst in enumerate_lnds(P)
            if inst.derivation is not None and not inst.derivation.is_zero()
        ]
        for w in induced_weight_box(P):
            space = solution_space(P, w, degree_bound=4)
            for delta in space.basis:
                assert space.contains(delta)
            combos = [Derivation(P, {})]
            for _ in range(3):
                if space.basis:
                    picked = rng.sample(space.basis, min(3, len(space.basis)))
                    combos.append(sum((d * rng.choice(pool) for d in picked[1:]), picked[0]))
            for delta in combos:
                assert space.contains(delta)
            # one more monomial in one image: contained exactly when that
            # monomial alone is a derivation of the presentation
            for g, m in rng.sample(space.unknowns, min(6, len(space.unknowns))):
                extra = Derivation(P, {g: Poly.monomial(m)})
                ok = is_well_defined(extra).ok
                broken += not ok
                assert space.contains(rng.choice(combos) + extra) == ok
            for delta in outputs:
                expected = space.coordinates_of(delta) is not None and is_well_defined(delta).ok
                assert space.contains(delta) == expected
    assert broken
