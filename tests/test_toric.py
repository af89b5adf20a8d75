import itertools

import pytest

from trilnd.derivation import is_well_defined, kernel_member, nilpotency_check, replica
from trilnd.gaussian import gq
from trilnd.poly import poly_parse
from trilnd.toric import (
    Cone2D,
    RootOutOfRange,
    case_b_pair,
    case_c_family,
    case_c_limit,
    demazure_roots,
    gamma_cone,
    surface_case,
    surface_lnds,
    toric_derivation,
    weighted_plane_lnds,
)
from trilnd.toric import _character_in_uvz, _format_uvz, _uvz_weights


# -- cones and root families -------------------------------------------------


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone2D((0, 0), (1, 0))
    with pytest.raises(ValueError):
        Cone2D((2, 2), (1, 0))
    with pytest.raises(ValueError):
        Cone2D((1, 2), (2, 4))
    with pytest.raises(ValueError):
        Cone2D((1, 2), (-1, -2))


def test_gamma_cone_normals():
    cone = gamma_cone(3)
    assert cone.ray1 == (0, 1)
    assert cone.ray2 == (3, -1)
    # each normal pairs to zero with its own ray and >= 0 with the other
    for i in (1, 2):
        n = cone.normal_to(i)
        own = cone.ray(i)
        other = cone.ray(3 - i)
        assert n[0] * own[0] + n[1] * own[1] == 0
        assert n[0] * other[0] + n[1] * other[1] > 0


def test_root_families_for_gamma_cones():
    expected = {
        2: ("(-1, p) for p >= 1", "(2p-1, -p) for p >= 1"),
        3: ("(-1, p) for p >= 1", "(3p-1, -p) for p >= 1"),
        4: ("(-1, p) for p >= 1", "(4p-1, -p) for p >= 1"),
        5: ("(-1, p) for p >= 1", "(5p-1, -p) for p >= 1"),
    }
    for gamma, (form1, form2) in expected.items():
        cone = gamma_cone(gamma)
        fam1 = demazure_roots(cone, 1)
        fam2 = demazure_roots(cone, 2)
        assert fam1.closed_form() == form1
        assert fam2.closed_form() == form2
        assert fam1.root(1) == (-1, 1)
        assert fam1.root(3) == (-1, 3)
        assert fam2.root(1) == (gamma - 1, -1)
        assert fam2.root(2) == (2 * gamma - 1, -2)


def test_root_family_membership_predicate():
    fam = demazure_roots(gamma_cone(3), 1)
    for p in range(1, 6):
        assert fam.contains(fam.root(p))
    assert not fam.contains(fam.base)
    assert not fam.contains((0, 0))
    assert not fam.contains((-1, -1))


def test_root_family_range_errors():
    fam = demazure_roots(gamma_cone(3), 1)
    with pytest.raises(RootOutOfRange):
        fam.root(0)
    with pytest.raises(RootOutOfRange):
        fam.root(-2)
    with pytest.raises(RootOutOfRange):
        fam.root(1.5)


def test_quadrant_root_families():
    cone = Cone2D((1, 0), (0, 1))
    fam1 = demazure_roots(cone, 1)
    fam2 = demazure_roots(cone, 2)
    assert (fam1.base, fam1.step) == ((-1, -1), (1, 0))
    assert fam1.closed_form() == "(p-1, -1) for p >= 1"
    assert fam2.closed_form() == "(-1, p-1) for p >= 1"


def test_root_family_serialization():
    d = demazure_roots(gamma_cone(3), 2).to_dict()
    assert d == {
        "ray": 2,
        "base": [-1, 0],
        "step": [3, -1],
        "closed_form": "(3p-1, -p) for p >= 1",
    }


# -- the derivations the roots induce ----------------------------------------


def test_toric_derivation_first_root():
    td = toric_derivation(3, 1, 1)
    assert td.root == (-1, 1)
    assert td.uv_images == {"u": "3*z^2", "v": "0", "z": "v"}
    assert td.xyz.image_strings() == {
        "T0_1": "3i*T2_1^2",
        "T1_1": "3*T2_1^2",
        "T2_1": "-2*T1_1 - 2i*T0_1",
    }
    assert td.xyz == case_b_pair(3)[0][1]


def reference_uvz(coeff, exps):
    """coeff * u^a * v^b * z^c as toric.py once wrote it, with a text writer
    of its own: the reference for _format_uvz, which writes with poly's."""
    if coeff == 0:
        return "0"
    factors = []
    for name, e in zip(("u", "v", "z"), exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def test_the_uv_text_is_the_reference_text():
    # zero, the units and other coefficients, on exponent triples with zeros
    for coeff in (*range(-12, 13), 100, -144):
        for exps in itertools.product(range(4), repeat=3):
            assert _format_uvz(coeff, exps) == reference_uvz(coeff, exps), (coeff, exps)
    # and every image toric_derivation writes, on both rays
    for gamma in (1, 2, 3, 5):
        for ray in (1, 2):
            family = demazure_roots(gamma_cone(gamma), ray)
            for p in (1, 2, 4):
                e = family.root(p)
                want = {}
                for name, m in _uvz_weights(gamma).items():
                    coeff = family.normal[0] * m[0] + family.normal[1] * m[1]
                    # a zero coefficient has no character to write
                    exps = _character_in_uvz(gamma, (m[0] + e[0], m[1] + e[1])) if coeff else ()
                    want[name] = reference_uvz(coeff, exps)
                assert toric_derivation(gamma, ray, p).uv_images == want, (gamma, ray, p)


def test_toric_derivation_second_ray_mirrors():
    td = toric_derivation(3, 2, 1)
    assert td.uv_images == {"u": "0", "v": "3*z^2", "z": "u"}
    assert td.xyz == case_b_pair(3)[1][1]


def test_higher_roots_are_replicas():
    # moving p steps along the ray multiplies by a kernel element
    for gamma in (2, 3, 4):
        delta0 = case_b_pair(gamma)[0][1]
        u = poly_parse("i*T0_1 - T1_1")
        v = poly_parse("i*T0_1 + T1_1")
        for p in (2, 3):
            td = toric_derivation(gamma, 1, p)
            assert td.xyz == replica(delta0, (gq(-2) * v) ** (p - 1))
            td2 = toric_derivation(gamma, 2, p)
            delta_inf = case_b_pair(gamma)[1][1]
            assert td2.xyz == replica(delta_inf, (gq(2) * u) ** (p - 1))


def test_toric_derivations_verify():
    for gamma in (2, 3, 4, 5):
        for ray in (1, 2):
            for p in (1, 2):
                td = toric_derivation(gamma, ray, p)
                assert is_well_defined(td.xyz).ok
                assert nilpotency_check(td.xyz).verified


def test_toric_serialization():
    d = toric_derivation(3, 1, 1).to_dict()
    assert d["gamma"] == 3
    assert d["ray"] == 1
    assert d["p"] == 1
    assert d["root"] == [-1, 1]
    assert d["uv_images"] == {"u": "3*z^2", "v": "0", "z": "v"}
    assert set(d["xyz_images"]) == {"T0_1", "T1_1", "T2_1"}


# -- surface case analysis ---------------------------------------------------


def test_surface_case_table():
    assert surface_case(1, 3, 5) == "A"
    assert surface_case(2, 4, 2) == "B"
    assert surface_case(2, 2, 2) == "C"
    assert surface_case(2, 3, 4) == "rigid"
    assert surface_case(3, 3, 3) == "rigid"


def test_surface_case_rejects_nonpositive():
    with pytest.raises(ValueError):
        surface_case(0, 1, 2)
    with pytest.raises(ValueError):
        surface_case(2, -1, 2)


def test_case_b_pair_kernels():
    for gamma in (3, 4, 5):
        (lab0, d0), (lab1, d1) = case_b_pair(gamma)
        assert (lab0, lab1) == ("delta_0", "delta_infinity")
        assert kernel_member(d0, poly_parse("i*T0_1 + T1_1"))
        assert kernel_member(d1, poly_parse("i*T0_1 - T1_1"))
        assert nilpotency_check(d0).verified
        assert nilpotency_check(d1).verified


def test_case_c_family_and_limit():
    d1 = case_c_family(gq(1))
    assert d1.image_strings() == {
        "T0_1": "2i*T2_1 + 2*T1_1",
        "T1_1": "-2*T0_1",
        "T2_1": "-2i*T0_1",
    }
    lim = case_c_limit()
    assert lim.image_strings() == {
        "T0_1": "-i*T2_1",
        "T1_1": "T2_1",
        "T2_1": "-T1_1 + i*T0_1",
    }
    # the limit is not proportional to any finite family member
    for lam in (gq(0), gq(1), gq(-1), gq(5)):
        assert case_c_family(lam) != lim


# -- weighted planes and lifted families --------------------------------------


def test_weighted_plane_requires_coprime():
    with pytest.raises(ValueError):
        weighted_plane_lnds(2, 4)


def test_weighted_plane_generic_weights():
    out = weighted_plane_lnds(2, 3)
    assert [lab for lab, _ in out] == ["partial_x", "partial_y"]


def test_weighted_plane_shears():
    out = weighted_plane_lnds(1, 2, lambdas=(gq(0), gq(1), gq(3)))
    labels = [lab for lab, _ in out]
    assert labels == ["partial_x", "partial_y", "shear_x(lambda=1)", "shear_x(lambda=3)"]
    shear = dict(out)["shear_x(lambda=1)"]
    assert {k: str(v) for k, v in shear.items()} == {"x": "2*T1_1", "y": "1"}


def test_weighted_plane_both_shears_when_unweighted():
    out = weighted_plane_lnds(1, 1, lambdas=(gq(1),))
    labels = [lab for lab, _ in out]
    assert labels == [
        "partial_x",
        "partial_y",
        "shear_x(lambda=1)",
        "shear_y(lambda=1)",
    ]


def test_surface_lnds_rigid_case_is_empty():
    assert surface_lnds(3, 3, 3) == []
    assert surface_lnds(2, 3, 4) == []


def test_surface_lnds_case_b():
    out = surface_lnds(2, 2, 4)
    assert [lab for lab, _ in out] == ["delta_0", "delta_infinity"]
    assert out[0][1].image_strings()["T2_1"] == "-2*T1_1 - 2i*T0_1"
    with pytest.raises(ValueError):
        surface_lnds(2, 4, 2)


def test_surface_lnds_case_c():
    out = surface_lnds(2, 2, 2, lambdas=(gq(0), gq(1)))
    labels = [lab for lab, _ in out]
    assert labels == ["delta_lambda(0)", "delta_lambda(1)", "delta_infinity"]
    assert out[0][1] == case_c_family(gq(0))
    assert out[-1][1] == case_c_limit()


def test_surface_lnds_case_a_verifies():
    out = surface_lnds(1, 3, 5)
    assert out
    for lab, d in out:
        assert is_well_defined(d).ok
        assert nilpotency_check(d).verified
