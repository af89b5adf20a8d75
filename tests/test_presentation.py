import ast
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

import trilnd
from trilnd.corpus import corpus
from trilnd.gaussian import gq
from trilnd.poly import Poly, gen_name, partial_derivative, poly_parse, svar, tvar
from trilnd.presentation import (
    AssumptionViolated,
    BadShape,
    DependentColumns,
    DuplicateConstants,
    NonPositiveExponent,
    PresentationError,
    TrinomialPresentation,
    _det2,
    all_ones_rescaling,
    surface,
    type1,
    type2,
)


def test_type1_shape_and_defaults():
    P = type1(((2,), (3,)))
    assert P.kind == 1
    assert P.r == 2
    assert list(P.block_numbers) == [1, 2]
    assert P.constants == (gq(0), gq(1))
    assert P.generators == (tvar(1, 1), tvar(2, 1))
    assert P.n == 2


def test_type2_shape_and_defaults():
    P = type2(((2,), (2,), (2,)))
    assert P.kind == 2
    assert P.r == 2
    assert list(P.block_numbers) == [0, 1, 2]
    assert P.triple_coefficients(0, 1, 2) == (gq(1), gq(1), gq(1))


def test_surface_constructor():
    P = surface(2, 2, 5)
    assert P.blocks == ((2,), (2,), (5,))
    assert P.d == 0


def test_validation_rejects_bad_kind():
    with pytest.raises(BadShape):
        TrinomialPresentation(kind=3, blocks=((1,), (1,)), constants=(gq(0), gq(1)))


def test_validation_rejects_too_few_blocks():
    with pytest.raises(BadShape):
        type1(((2,),))
    with pytest.raises(BadShape):
        type2(((2,), (2,)))


def test_validation_rejects_bad_exponents():
    with pytest.raises(NonPositiveExponent):
        type1(((0,), (2,)))
    with pytest.raises(NonPositiveExponent):
        type1(((2,), (-1,)))
    with pytest.raises(BadShape):
        type1(((), (2,)))


def test_validation_rejects_duplicate_type1_constants():
    with pytest.raises(DuplicateConstants):
        type1(((2,), (3,)), constants=(gq(1), gq(1)))


def test_validation_rejects_dependent_columns():
    with pytest.raises(DependentColumns):
        type2(
            ((2,), (2,), (2,)),
            constants=((gq(1), gq(0)), (gq(2), gq(0)), (gq(0), gq(1))),
        )
    with pytest.raises(DependentColumns):
        type2(
            ((2,), (2,), (2,)),
            constants=((gq(0), gq(0)), (gq(0), gq(1)), (gq(1), gq(0))),
        )


def test_the_first_dependent_pair_is_named():
    columns = ((gq(0), gq(1)), (gq(1), gq(0)), (gq(0), gq(3)), (gq(2), gq(0)))
    with pytest.raises(DependentColumns) as exc:
        type2(((1,), (1,), (1,), (1,)), constants=columns)
    assert str(exc.value) == "columns (0,1) and (0,3) are proportional"
    with pytest.raises(DependentColumns) as exc:
        type2(((1,), (1,), (1,), (1,)), constants=columns[1:] + ((gq(0), gq(0)),))
    assert str(exc.value) == "zero column"


def test_validation_rejects_bad_anchors():
    with pytest.raises(BadShape):
        type1(((2, 3), (5,)), anchors=(3, 1))
    with pytest.raises(BadShape):
        type1(((2, 3), (5,)), anchors=(1,))


def test_free_variable_count():
    P = type1(((2,), (3,)), d=2)
    assert P.d == 2
    assert P.generators[-2:] == (svar(1), svar(2))
    with pytest.raises(BadShape):
        type1(((2,), (3,)), d=-1)


def test_dimension():
    assert type1(((2,), (3,)), d=1).dimension() == 2
    assert surface(2, 2, 2).dimension() == 2
    assert type1(((2,), (2,))).dimension() == 1
    assert type2(((2,), (2,), (2,)), d=1).dimension() == 3


def test_type1_relations():
    P = type1(((2,), (3,)), constants=(gq(0), gq(1)))
    rels = P.relations()
    assert len(rels) == 1
    assert rels[0] == poly_parse("T1_1^2 - T2_1^3 - 1")


def test_type2_relations_are_consecutive_triples():
    P = type2(((2,), (2,), (2,), (1,)))
    rels = P.relations()
    assert len(rels) == 2
    assert rels[0] == P.triple_relation(0, 1, 2)
    assert rels[1] == P.triple_relation(1, 2, 3)


def test_rewrite_rules_normalize_in_one_pass():
    # Pairwise coprime leads make the rules a Groebner basis (Buchberger's
    # first criterion), and replacements sharing no variable with any lead
    # leave a term reduced after one pass. poly.normal_form and the dense
    # form of a derivation both rely on this.
    samples = Path(__file__).resolve().parents[1] / "sample_inputs"
    presentations = [
        *corpus(),
        *(TrinomialPresentation.from_json(path.read_text()) for path in sorted(samples.glob("*.json"))),
    ]
    assert len(presentations) == 60
    for P in presentations:
        leads = [set(lead.variables()) for lead in P.rewrite_rules]
        for a, b in itertools.combinations(leads, 2):
            assert a.isdisjoint(b), P.describe()
        lead_vars = set().union(*leads)
        for replacement in P.rewrite_rules.values():
            for m in replacement.terms:
                assert lead_vars.isdisjoint(m.variables()), P.describe()


def test_triple_coefficients_minor_identity():
    P = type2(
        ((2,), (2,), (2,)),
        constants=((gq(1), gq(2)), (gq(0), gq(1)), (gq(-1), gq(-1))),
    )
    alpha, beta, gamma = P.triple_coefficients(0, 1, 2)
    # the three minors satisfy alpha*a_p + beta*a_q + gamma*a_s = 0
    for row in range(2):
        total = (
            alpha * P.constant(0)[row]
            + beta * P.constant(1)[row]
            + gamma * P.constant(2)[row]
        )
        assert not total
    with pytest.raises(AssumptionViolated):
        type1(((2,), (3,))).triple_coefficients(1, 2, 2)


@pytest.mark.parametrize("blocks", [(0, 0, 1), (0, 1, 3), (-1, 0, 1), (2, 1, 2)])
def test_triple_coefficients_need_three_distinct_blocks(blocks):
    P = type2(((2,), (2,), (3,)))
    named = ", ".join(map(str, blocks))
    with pytest.raises(AssumptionViolated, match=f"^{named} are not three distinct blocks of 0..2$"):
        P.triple_coefficients(*blocks)
    with pytest.raises(AssumptionViolated):
        P.triple_relation(*blocks)
    # three distinct blocks in any order are fine
    alpha, beta, gamma = P.triple_coefficients(0, 1, 2)
    assert P.triple_coefficients(1, 2, 0) == (beta, gamma, alpha)


def test_block_power_helpers():
    P = type1(((2, 4), (3,)))
    assert P.block_power(1) == poly_parse("T1_1^2*T1_2^4")
    assert P.block_power_divided(1, 2) == poly_parse("T1_1*T1_2^2")
    with pytest.raises(ValueError):
        P.block_power_divided(1, 3)
    assert P.block_gcd(1) == 2
    assert P.block_gcd(2) == 3


def test_the_packed_block_partial_is_the_partial_of_the_block_power():
    """P.block_term(i, j, m), the key and coefficient the classifier
    builds with, is the partial of T_i^{l_i / m} by T_ij, and
    P.block_term(i, m=m) is T_i^{l_i / m}, for every m that divides the
    block's exponents."""
    for P in corpus():
        checked = set()
        for i in P.block_numbers:
            for j in range(1, P.block_size(i) + 1):
                for m in (m for m in range(1, P.block_gcd(i) + 1) if P.block_gcd(i) % m == 0):
                    fresh = partial_derivative(P.block_power_divided(i, m), tvar(i, j))
                    key, e = P.block_term(i, j, m)
                    assert len(fresh.terms) == 1
                    assert Poly.monomial(P.engine.monomial(key), gq(e)) == fresh, (P.describe(), i, j)
                    key, e = P.block_term(i, m=m)
                    assert (Poly.monomial(P.engine.monomial(key)), e) == (P.block_power_divided(i, m), 1)
                checked.add(tvar(i, j))
        assert checked == {g for g in P.generators if gen_name(g).startswith("T")}


def test_only_the_presentation_names_its_block_memo():
    """The block memo has one owner: no module of the package but
    presentation.py names _block_memo, as an attribute, a name, a
    definition or a string."""

    def names_it(node):
        return "_block_memo" in (
            getattr(node, "attr", None),
            getattr(node, "id", None),
            getattr(node, "name", None),
            getattr(node, "value", None),
        )

    naming = {
        path.name
        for path in Path(trilnd.__file__).parent.glob("*.py")
        if any(map(names_it, ast.walk(ast.parse(path.read_text()))))
    }
    assert naming == {"presentation.py"}


def test_memoized_minors_are_the_fresh_minors():
    members = [P for P in corpus() if P.kind == 2]
    assert members
    for P in members:
        blocks = list(P.block_numbers)
        for p, q, s in itertools.permutations(blocks, 3):
            ap, aq, as_ = P.constant(p), P.constant(q), P.constant(s)
            fresh = (_det2(aq, as_), -_det2(ap, as_), _det2(ap, aq))
            assert P.triple_coefficients(p, q, s) == fresh


def test_warm_caches_do_not_change_identity():
    from trilnd.classify import class_report, enumerate_lnds

    for P in corpus():
        warm = TrinomialPresentation.from_input_dict(P.to_input_dict())
        cold = TrinomialPresentation.from_input_dict(P.to_input_dict())
        warm.relations()
        warm.block_term(warm.r0)  # fills the block memo
        class_report(warm)
        enumerate_lnds(warm)
        assert warm._block_memo and {"_relations", "engine"} <= set(warm.__dict__)
        assert "_block_memo" not in cold.__dict__
        assert warm == cold and cold == warm
        assert hash(warm) == hash(cold)
        assert warm.to_input_dict() == cold.to_input_dict()
        assert len({warm, cold}) == 1


def test_factoriality():
    assert surface(2, 3, 5).is_factorial() is True
    assert surface(2, 2, 2).is_factorial() is False
    assert type1(((2, 3), (5,))).is_factorial() is False
    assert type1(((2, 3), (4, 5))).is_factorial() is True
    with pytest.raises(AssumptionViolated):
        type2(((1,), (2,), (2,))).is_factorial()


def test_invariant_field_generators_type2():
    pairs = surface(2, 2, 3).invariant_field_generators()
    formatted = [(str(a), str(b)) for a, b in pairs]
    assert formatted == [
        ("T0_1", "T1_1"),
        ("T0_1^2", "T2_1^3"),
        ("T1_1^2", "T2_1^3"),
    ]


def test_invariant_field_generators_type1():
    pairs = type1(((2, 4), (3,))).invariant_field_generators()
    assert [(str(a), str(b)) for a, b in pairs] == [
        ("T1_1*T1_2^2", "1"),
        ("T2_1", "1"),
    ]


def test_input_dict_round_trip():
    for P in (
        type1(((2, 3), (5,)), d=1, anchors=(2, 1)),
        type2(((2,), (2,), (4,)), d=2),
        surface(2, 2, 2),
        type1(((2,), (3,)), constants=(gq(1, 1), gq(0))),
    ):
        data = P.to_input_dict()
        Q = TrinomialPresentation.from_input_dict(data)
        assert Q == P
        assert Q.to_input_dict() == data


def test_from_json_and_field_validation():
    P = TrinomialPresentation.from_json(
        json.dumps({"type": 2, "blocks": [[2], [2], [2]], "free_vars": 1})
    )
    assert P == type2(((2,), (2,), (2,)), d=1)
    with pytest.raises(BadShape):
        TrinomialPresentation.from_json('{"type": 1}')
    with pytest.raises(BadShape):
        TrinomialPresentation.from_json('{"type": 1, "blocks": [[2],[3]], "extra": 1}')
    with pytest.raises(BadShape):
        TrinomialPresentation.from_json("not json")
    with pytest.raises(BadShape):
        TrinomialPresentation.from_json(
            '{"type": 1, "blocks": [[2],[3]], "constants": ["1", "bogus"]}'
        )


@pytest.mark.parametrize(
    "data",
    [
        {"type": 1, "blocks": [[True], [2]]},
        {"type": 1, "blocks": [[1], [2]], "free_vars": True},
        {"type": 1, "blocks": [[1], [2]], "anchors": [True, 1]},
        {"type": True, "blocks": [[1], [2]]},
    ],
)
def test_booleans_are_not_integers(data):
    with pytest.raises(PresentationError):
        TrinomialPresentation.from_input_dict(data)


def test_describe():
    assert type1(((2, 3), (5,)), d=1).describe() == "type1[(2,3),(5)]d1"
    assert str(surface(2, 2, 2)) == "type2[(2),(2),(2)]d0"


def test_rescaling_type1_not_applicable():
    report = all_ones_rescaling(type1(((2,), (3,))))
    assert report.status == "not_applicable"


def test_rescaling_standard_surface_is_identity_like():
    report = all_ones_rescaling(surface(2, 2, 2))
    assert report.status == "rescaled"
    assert report.result == surface(2, 2, 2)
    # applying the scalars to the relation must produce unit coefficients
    assert all(s == gq(1) for s in report.scalars.values())


# Coefficient ratios 4, 8, 16, i, 27 and 2 need square, cube and fourth roots.
@pytest.mark.parametrize(
    "blocks, third_column, second_column",
    [
        (((2,), (2,), (2,)), (gq(-4), gq(-1)), (gq(0), gq(1))),
        (((3,), (3,), (3,)), (gq(-8), gq(-1)), (gq(0), gq(1))),
        (((4,), (4,), (2,)), (gq(-16), gq(-1)), (gq(0), gq(1))),
        (((2,), (3,), (4,)), (gq(-1), gq(0, 1)), (gq(0), gq(1))),
        (((3, 6), (3,), (2,)), (gq(Fraction(-27, 2)), gq(-1)), (gq(0), gq(2))),
    ],
    ids=["2-2-2", "3-3-3", "4-4-2", "2-3-4", "3,6-3-2"],
)
def test_rescaling_solves_extractable_coefficients(blocks, third_column, second_column):
    P = type2(blocks, constants=((gq(1), gq(0)), second_column, third_column))
    report = all_ones_rescaling(P)
    assert report.status == "rescaled"
    # substituting T -> scalar * T into the relation clears coefficients
    rel = P.relations()[0].substitute(
        {g: Poly.generator(g) * s for g, s in report.scalars.items()}
    )
    target = report.result.relations()[0]
    # the rescaled relation is a nonzero scalar multiple of the target
    lead = rel.lead_monomial()
    factor = rel.coefficient(lead) / target.coefficient(lead)
    assert factor
    assert rel == target * factor


def test_rescaling_obstruction_is_reported():
    P = type2(
        ((2,), (2,), (4,)),
        constants=((gq(1), gq(0)), (gq(0), gq(2)), (gq(-1), gq(-1))),
    )
    report = all_ones_rescaling(P)
    assert report.status in ("rescaled", "no_rescaling_exists")
    P2 = type2(
        ((2,), (2,), (2,)),
        constants=((gq(1), gq(0)), (gq(0), gq(2)), (gq(-1), gq(-1))),
    )
    assert all_ones_rescaling(P2).status == "no_rescaling_exists"


def test_rescaling_structural_obstruction_many_blocks():
    report = all_ones_rescaling(type2(((2,), (2,), (2,), (2,))))
    assert report.status == "no_rescaling_exists"


def test_presentations_hash_and_compare():
    assert surface(2, 2, 2) == surface(2, 2, 2)
    assert surface(2, 2, 2) != surface(2, 2, 3)
    assert len({surface(2, 2, 2), surface(2, 2, 2)}) == 1
