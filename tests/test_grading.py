import contextlib
import io
import json
import sys

import pytest

import trilnd.grading
from trilnd.classify import class_plan
from trilnd.cli import main
from trilnd.corpus import corpus, unnormalized_member
from trilnd.derivation import Derivation
from trilnd.gaussian import I, gq
from trilnd.grading import (
    NonHomogeneous,
    ZeroDerivation,
    ZeroPolynomial,
    derivation_degree,
    homogeneous_parts,
    weight_assignment,
    weight_of,
)
from trilnd.poly import Poly, poly_parse, svar, tvar
from trilnd.presentation import TrinomialPresentation, surface, type1, type2


def test_rank_matches_block_structure():
    # rank = n + d - r in each type's own block numbering
    assert weight_assignment(surface(2, 2, 2)).rank == 1
    assert weight_assignment(surface(2, 2, 3)).rank == 1
    assert weight_assignment(type1(((2,), (3,)))).rank == 0
    assert weight_assignment(type1(((2, 3), (5,)), d=1)).rank == 2
    assert weight_assignment(type2(((1, 2), (2,), (3,)), d=1)).rank == 3


def test_basis_order():
    g = weight_assignment(type2(((1, 2), (2,), (3,)), d=1))
    assert g.basis_labels == ("e", "e0_2", "e1")
    g1 = weight_assignment(type1(((2, 3), (5,)), d=2))
    assert g1.basis_labels == ("e1_2", "e1", "e2")


def test_sphere_weights_all_equal():
    g = weight_assignment(surface(2, 2, 2))
    assert g.weights[tvar(0, 1)] == (4,)
    assert g.weights[tvar(1, 1)] == (4,)
    assert g.weights[tvar(2, 1)] == (4,)


def test_uneven_surface_weights():
    g = weight_assignment(surface(2, 2, 3))
    assert g.weights[tvar(0, 1)] == (6,)
    assert g.weights[tvar(1, 1)] == (6,)
    assert g.weights[tvar(2, 1)] == (4,)


def test_type1_anchor_weights():
    g = weight_assignment(type1(((2, 3), (5,))))
    assert g.basis_labels == ("e1_2",)
    assert g.weights[tvar(1, 2)] == (2,)
    assert g.weights[tvar(1, 1)] == (-3,)
    assert g.weights[tvar(2, 1)] == (0,)


def test_anchor_choice_moves_the_negative_coefficient():
    g = weight_assignment(type1(((2, 3), (5,)), anchors=(2, 1)))
    assert g.basis_labels == ("e1_1",)
    assert g.weights[tvar(1, 1)] == (3,)
    assert g.weights[tvar(1, 2)] == (-2,)


def test_relations_are_homogeneous():
    for P in (
        surface(2, 2, 2),
        surface(2, 2, 5),
        type2(((1, 2), (2,), (3,), (2,))),
        type1(((2, 3), (5,), (1, 1))),
        type1(((2,), (3,)), d=2),
    ):
        g = weight_assignment(P)
        for rel in P.relations():
            w = weight_of(rel, g)
            if P.kind == 1:
                assert w == g.zero()


def test_block_powers_share_one_weight_type2():
    P = type2(((1, 2), (2,), (3,)))
    g = weight_assignment(P)
    weights = {weight_of(P.block_power(i), g) for i in P.block_numbers}
    assert len(weights) == 1


def test_weight_of_examples():
    g = weight_assignment(surface(2, 2, 2))
    assert weight_of(poly_parse("T0_1^2 + T1_1^2"), g) == (8,)
    assert weight_of(Poly.constant(5), g) == (0,)
    with pytest.raises(NonHomogeneous):
        weight_of(poly_parse("T0_1 + T1_1^2"), g)
    with pytest.raises(ZeroPolynomial):
        weight_of(Poly.zero(), g)


def test_weight_is_additive_on_products():
    P = surface(2, 2, 3)
    g = weight_assignment(P)
    a = poly_parse("T0_1*T2_1")
    b = poly_parse("T1_1^2")
    assert weight_of(a * b, g) == tuple(
        u + v for u, v in zip(weight_of(a, g), weight_of(b, g))
    )


def test_homogeneous_parts_partition():
    P = type1(((2,), (3,)), d=2)
    g = weight_assignment(P)
    q = poly_parse("S1^2 + 3*S1*S2 - S2 + 7")
    parts = homogeneous_parts(q, g)
    assert sum(parts.values(), Poly.zero()) == q
    for w, part in parts.items():
        assert weight_of(part, g) == w
    assert len(parts) == 4


def test_derivation_degree():
    P = type1(((2,), (3,)), d=1)
    g = weight_assignment(P)
    d = Derivation(P, {svar(1): Poly.constant(1)})
    assert derivation_degree(d, g) == (-1,)
    with pytest.raises(ZeroDerivation):
        derivation_degree(Derivation(P, {}), g)


def test_derivation_degree_mixed_raises():
    P = type1(((2,), (3,)), d=2)
    g = weight_assignment(P)
    d = Derivation(P, {svar(1): Poly.constant(1), svar(2): Poly.generator(svar(1)) * 3})
    # shifts are -e1 and e1-e2, the degree is undefined
    with pytest.raises(NonHomogeneous):
        derivation_degree(d, g)


def test_format_weight():
    g = weight_assignment(type2(((1, 2), (2,), (3,)), d=1))
    assert g.format_weight((0, 0, 0)) == "0"
    assert g.format_weight((1, 0, 0)) == "e"
    assert g.format_weight((2, -1, 0)) == "2e-e0_2"
    assert g.format_weight((0, 1, 3)) == "e0_2+3e1"


def test_the_presentation_caches_its_grading():
    for P in [*corpus(), unnormalized_member()]:
        grading = P.grading
        assert P.grading is grading
        fresh = weight_assignment(P)
        assert grading.basis_labels == fresh.basis_labels
        assert grading.weights == fresh.weights


@pytest.mark.parametrize("command", ["analyze", "lnds", "oracle"])
def test_each_command_builds_the_grading_once(monkeypatch, tmp_path, command):
    """On a presentation with a t2b family, whose samples carry the
    family's degree and whose report prints the grading."""
    data = {"type": 2, "blocks": [[1], [1], [2]]}
    P = TrinomialPresentation.from_input_dict(data)
    assert any(e.family is not None and e.family.kind == "t2b" for e in class_plan(P))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    calls = []
    original = trilnd.grading.weight_assignment

    def counted(P):
        calls.append(P)
        return original(P)

    # every binding, so that a module importing the name is counted too
    for name, module in list(sys.modules.items()):
        if name.startswith("trilnd") and vars(module).get("weight_assignment") is original:
            monkeypatch.setattr(module, "weight_assignment", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--presentation", str(path)]) == 0
    assert len(calls) == 1
