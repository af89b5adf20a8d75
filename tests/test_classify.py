import gc
import itertools
import json
from pathlib import Path

import pytest

import trilnd.derivation
import trilnd.poly
from trilnd import classify
from trilnd.classify import (
    DEFAULT_LAMBDAS,
    InadmissibleDescriptor,
    InadmissibleTuple,
    LndDescriptor,
    NeedsNormalization,
    NoSuchFreeVariable,
    WrongType,
    admissible_tuples,
    build_lnd,
    build_lnd_type1,
    build_lnd_type2,
    class_report,
    enumerate_lnds,
    free_variable_lnd,
    is_rigid,
    is_semirigid,
    kernel_generators,
    makar_limanov,
)
from trilnd.cli import _descriptor_from_json
from trilnd.corpus import corpus, unnormalized_member
from trilnd.derivation import Derivation, is_well_defined, kernel_member, nilpotency_check
from trilnd.gaussian import I, gq
from trilnd.grading import derivation_degree, weight_assignment
from trilnd.oracle import induced_weight_box, oracle_enumerate
from trilnd.poly import Poly, RewriteEngine, poly_parse, svar, tvar
from trilnd.presentation import TrinomialPresentation, surface, type1, type2

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


# -- admissible tuples -------------------------------------------------------


def test_type1_tuples():
    infos = admissible_tuples(type1(((1, 2), (3,))))
    assert [a.c for a in infos] == [(1, 1)]
    assert infos[0].case == "Type1"
    assert infos[0].big == (2,)


def test_type1_rejects_two_big_blocks():
    with pytest.raises(InadmissibleTuple):
        build_lnd_type1(type1(((1, 2), (3,))), (2, 1))


def test_type2_case_a_labelings():
    infos = admissible_tuples(type2(((1,), (2,), (3,))))
    assert len(infos) == 1
    info = infos[0]
    assert info.case == "A"
    assert info.big == (1, 2)
    assert set(info.labelings) == {(1, 2), (2, 1)}


def test_type2_case_a_small_big_set():
    # one big block: every ordered pair containing it qualifies
    infos = admissible_tuples(type2(((1,), (1,), (2,))))
    info = infos[0]
    assert info.case == "A"
    assert info.big == (2,)
    assert all(2 in lab for lab in info.labelings)


def test_type2_case_b():
    infos = admissible_tuples(type2(((2,), (2,), (5,))))
    assert len(infos) == 1
    info = infos[0]
    assert info.case == "B"
    assert info.labelings == ((0, 1, 2),)


def test_type2_case_b_needs_an_even_pair():
    assert admissible_tuples(type2(((2,), (3,), (7,)))) == []
    # (2, 2, 4): only the pair of exponent-2 blocks qualifies
    infos = admissible_tuples(type2(((2,), (2,), (4,))))
    assert infos[0].labelings == ((0, 1, 2),)


def test_tuple_validation():
    P = surface(2, 2, 2)
    with pytest.raises(InadmissibleTuple):
        build_lnd_type2(P, LndDescriptor(kind="t2c", c=(1, 1), roles=(0, 1, 2), param=I))
    with pytest.raises(InadmissibleTuple):
        build_lnd_type2(
            P, LndDescriptor(kind="t2c", c=(1, 1, 9), roles=(0, 1, 2), param=I)
        )


# -- constructions -----------------------------------------------------------


def test_type1_construction_two_blocks():
    d = build_lnd_type1(type1(((1,), (1, 2))), (1, 1))
    assert d.image_strings() == {"T1_1": "T2_2^2", "T2_1": "1"}
    assert is_well_defined(d).ok


def test_type1_construction_three_blocks():
    d = build_lnd_type1(type1(((1,), (1,), (2,))), (1, 1, 1))
    assert d.image(tvar(3, 1)) == Poly.constant(1)
    assert d.image(tvar(1, 1)) == poly_parse("2*T3_1")
    assert d.image(tvar(2, 1)) == poly_parse("2*T3_1")


def test_type1_wrong_type_guard():
    with pytest.raises(WrongType):
        build_lnd_type1(surface(2, 2, 2), (1, 1, 1))
    with pytest.raises(WrongType):
        build_lnd_type2(
            type1(((2,), (3,))),
            LndDescriptor(kind="t2a", c=(1, 1), roles=(0, 1, 2)),
        )


def test_free_variable_lnd():
    P = type1(((2,), (3,)), d=2)
    d = free_variable_lnd(P, 2)
    assert d.image(svar(2)) == Poly.constant(1)
    assert d.image(svar(1)).is_zero()
    with pytest.raises(NoSuchFreeVariable):
        free_variable_lnd(P, 3)
    with pytest.raises(NoSuchFreeVariable):
        free_variable_lnd(P, 0)


def test_case_a_moves_one_block():
    P = type2(((2,), (3,), (1,)))
    d = build_lnd_type2(P, LndDescriptor(kind="t2a", c=(1, 1, 1), roles=(0, 1, 2)))
    assert d.image_strings() == {"T0_1": "1", "T2_1": "-2*T0_1"}
    assert is_well_defined(d).ok
    assert nilpotency_check(d).verified


def test_case_a_third_role_must_be_exponent_one():
    P = type2(((2,), (3,), (2,)))
    with pytest.raises(InadmissibleDescriptor):
        build_lnd_type2(P, LndDescriptor(kind="t2a", c=(1, 1, 1), roles=(0, 1, 2)))


def test_case_b_divisibility_family():
    # exponents (2, 4): 2 divides everything, so the parameter family exists
    P = type2(((2,), (4,), (1,)))
    d = build_lnd_type2(
        P, LndDescriptor(kind="t2b", c=(1, 1, 1), roles=(0, 1, 2), param=gq(3))
    )
    assert is_well_defined(d).ok
    assert nilpotency_check(d).verified
    # the recorded kernel element is its exact invariant
    gens = kernel_generators(
        P, LndDescriptor(kind="t2b", c=(1, 1, 1), roles=(0, 1, 2), param=gq(3))
    )
    for g in gens:
        assert kernel_member(d, g)


def test_case_b_rejects_zero_parameter():
    P = type2(((2,), (4,), (1,)))
    with pytest.raises(InadmissibleDescriptor):
        build_lnd_type2(
            P, LndDescriptor(kind="t2b", c=(1, 1, 1), roles=(0, 1, 2), param=gq(0))
        )


def test_case_c_surface_images():
    d = build_lnd_type2(
        surface(2, 2, 3),
        LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I),
    )
    assert d.image_strings() == {
        "T0_1": "3i*T2_1^2",
        "T1_1": "3*T2_1^2",
        "T2_1": "-2*T1_1 - 2i*T0_1",
    }


def test_case_c_parameter_must_square_to_minus_one():
    with pytest.raises(InadmissibleDescriptor):
        build_lnd_type2(
            surface(2, 2, 3),
            LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=gq(1)),
        )


def test_case_d_surface_images():
    d = build_lnd_type2(
        surface(2, 2, 2),
        LndDescriptor(kind="t2d", c=(1, 1, 1), roles=(0, 1, 2), param=gq(1)),
    )
    assert d.image_strings() == {
        "T0_1": "2i*T2_1 + 2*T1_1",
        "T1_1": "-2*T0_1",
        "T2_1": "-2i*T0_1",
    }


def test_case_d_zero_parameter_is_allowed():
    d = build_lnd_type2(
        surface(2, 2, 2),
        LndDescriptor(kind="t2d", c=(1, 1, 1), roles=(0, 1, 2), param=gq(0)),
    )
    assert is_well_defined(d).ok
    assert nilpotency_check(d).verified


def test_case_d_requires_even_third_block():
    with pytest.raises(InadmissibleDescriptor):
        build_lnd_type2(
            surface(2, 2, 3),
            LndDescriptor(kind="t2d", c=(1, 1, 1), roles=(0, 1, 2), param=gq(1)),
        )


def test_needs_normalization_raised_exactly_when_root_missing():
    P = unnormalized_member()
    desc = LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I)
    with pytest.raises(NeedsNormalization) as exc:
        build_lnd_type2(P, desc)
    assert exc.value.ratio is not None
    assert exc.value.order == 2


def test_build_lnd_dispatch():
    P = type1(((3,), (1, 2)))
    d = build_lnd(P, LndDescriptor(kind="type1", c=(1, 1)))
    assert d == build_lnd_type1(P, (1, 1))
    with pytest.raises(InadmissibleDescriptor):
        build_lnd(P, LndDescriptor(kind="type1"))
    with pytest.raises(InadmissibleDescriptor):
        build_lnd(P, LndDescriptor(kind="free"))
    with pytest.raises(InadmissibleDescriptor):
        build_lnd(surface(2, 2, 2), LndDescriptor(kind="bogus", c=(1, 1, 1), roles=(0, 1, 2)))


def test_descriptor_serialization():
    desc = LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I)
    assert desc.to_dict() == {
        "kind": "t2c",
        "c": [1, 1, 1],
        "roles": [0, 1, 2],
        "param": "i",
    }
    assert LndDescriptor(kind="free", k=2).to_dict() == {"kind": "free", "k": 2}


# -- kernels -----------------------------------------------------------------


def test_kernel_generators_pass_membership():
    cases = [
        (type1(((3,), (1, 2))), LndDescriptor(kind="type1", c=(1, 1))),
        (surface(2, 2, 3), LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I)),
        (
            surface(2, 2, 2),
            LndDescriptor(kind="t2d", c=(1, 1, 1), roles=(0, 1, 2), param=gq(1, 1)),
        ),
        (type2(((2,), (3,), (1,))), LndDescriptor(kind="t2a", c=(1, 1, 1), roles=(0, 1, 2))),
    ]
    for P, desc in cases:
        delta = build_lnd(P, desc)
        gens = kernel_generators(P, desc)
        assert gens
        for g in gens:
            assert kernel_member(delta, g)


def test_kernel_generators_free_variable():
    P = type1(((2,), (3,)), d=2)
    gens = kernel_generators(P, LndDescriptor(kind="free", k=1))
    names = {str(g) for g in gens}
    assert names == {"T1_1", "T2_1", "S2"}


def test_case_c_kernel_is_a_line():
    gens = kernel_generators(
        surface(2, 2, 2),
        LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I),
    )
    assert [str(g) for g in gens] == ["T1_1 + i*T0_1"]


def test_case_d_kernels_distinguish_parameters():
    P = surface(2, 2, 2)
    lines = []
    for lam in (gq(0), gq(1), gq(2), I):
        desc = LndDescriptor(kind="t2d", c=(1, 1, 1), roles=(0, 1, 2), param=lam)
        (gen,) = kernel_generators(P, desc)
        lines.append(gen)
    # pairwise non-proportional: these are genuinely different classes
    for a in range(len(lines)):
        for b in range(a + 1, len(lines)):
            ga, gb = lines[a], lines[b]
            lead = ga.lead_monomial()
            other = gb.coefficient(lead)
            if not other:
                continue
            factor = ga.coefficient(lead) / other
            assert ga != gb * factor


# -- rigidity, semirigidity, Makar-Limanov -----------------------------------


def test_rigid_examples():
    assert is_rigid(type1(((2, 3), (2, 5)))).rigid
    assert is_rigid(type2(((2,), (3,), (7,)))).rigid
    assert is_rigid(surface(3, 3, 3)).rigid


def test_non_rigid_examples():
    report = is_rigid(surface(2, 2, 2))
    assert not report.rigid
    assert report.witness is not None
    assert build_lnd(surface(2, 2, 2), report.witness) is not None
    assert not is_rigid(type1(((2, 3), (2, 5)), d=1)).rigid


def test_semirigid_clauses():
    assert is_semirigid(type1(((2, 3), (2, 5)))).clause == "rigid"
    assert (
        is_semirigid(type1(((2, 3), (2, 5)), d=1)).clause
        == "single_free_variable_over_rigid_base"
    )
    assert is_semirigid(type1(((3,), (1, 2)))).clause == "makar_limanov"
    assert not is_semirigid(surface(2, 2, 2)).semirigid
    assert not is_semirigid(type1(((2, 3), (2, 5)), d=2)).semirigid


@pytest.mark.parametrize(
    "blocks, clause",
    [
        (((1,), (1,)), "dimension_one"),
        (((1,), (1,), (1,)), "dimension_one"),
        (((2,), (1,)), "makar_limanov"),
    ],
)
def test_lines_are_semirigid(blocks, clause):
    # each algebra is k[x]: every nonzero LND has kernel k
    P = type1(blocks)
    assert P.dimension() == 1
    assert is_semirigid(P) == class_report(P).semirigidity
    assert is_semirigid(P).semirigid and is_semirigid(P).clause == clause


def test_makar_limanov_computed():
    ml = makar_limanov(type1(((3,), (1, 2))))
    assert ml.status == "computed"
    assert ml.i0 == 1
    assert ml.generators == (tvar(2, 2),)
    assert ml.c == {2: 1}


def test_makar_limanov_not_applicable():
    assert makar_limanov(type1(((3,), (1, 1)))).status == "not_applicable"
    assert makar_limanov(type1(((3,), (1, 2)), d=1)).status == "not_applicable"
    assert makar_limanov(type1(((1, 2), (1, 2)))).status == "not_applicable"
    with pytest.raises(WrongType):
        makar_limanov(surface(2, 2, 2))


# -- enumeration and the report ----------------------------------------------


def test_enumerate_sphere_has_pair_plus_family():
    out = enumerate_lnds(surface(2, 2, 2))
    kinds = [inst.descriptor.kind for inst in out]
    assert kinds.count("t2c") == 2
    assert kinds.count("t2d") == len(DEFAULT_LAMBDAS)
    for inst in out:
        assert inst.derivation is not None
        assert nilpotency_check(inst.derivation).verified


def test_enumerate_quartic_is_exactly_two():
    out = enumerate_lnds(surface(2, 2, 4))
    assert [inst.descriptor.kind for inst in out] == ["t2c", "t2c"]
    assert {inst.descriptor.param for inst in out} == {I, -I}


def test_enumerate_respects_lambda_choice():
    out = enumerate_lnds(surface(2, 2, 2), lambdas=(gq(5),))
    kinds = [inst.descriptor.kind for inst in out]
    assert kinds == ["t2c", "t2c", "t2d"]
    assert out[-1].descriptor.param == gq(5)


def test_enumerate_carries_normalization_errors():
    out = enumerate_lnds(unnormalized_member())
    assert out
    for inst in out:
        assert inst.derivation is None
        assert "NeedsNormalization" in inst.error


@pytest.mark.parametrize(
    "P, clause",
    [
        (type1(((1, 1, 1), (1, 1), (1, 1))), None),
        (type1(((2, 3), (2, 5)), d=1), "single_free_variable_over_rigid_base"),
    ],
    ids=["d0", "d1"],
)
def test_class_report_classifies_once(monkeypatch, P, clause):
    # every reader of the class plan shares the one P.plan
    calls = []
    tuple_orbits = classify.tuple_orbits

    def counted(Q):
        calls.append(Q)
        return tuple_orbits(Q)

    monkeypatch.setattr(classify, "tuple_orbits", counted)
    report = class_report(P)
    assert len(calls) == 1
    assert not report.rigidity.rigid
    assert report.semirigidity.clause == clause
    assert report.rigidity == is_rigid(P)
    assert report.semirigidity == is_semirigid(P)
    enumerate_lnds(P)
    admissible_tuples(P)
    oracle_enumerate(P, degree_bound=2)
    assert len(calls) == 1


def test_class_report_surface():
    rep = class_report(surface(2, 2, 3)).to_dict()
    assert rep["dimension"] == 2
    assert rep["factorial"] is False
    assert rep["rigid"] is False
    assert rep["semirigid"] is False
    assert rep["grading"]["basis"] == ["e"]
    assert rep["grading"]["weights"] == {"T0_1": [6], "T1_1": [6], "T2_1": [4]}
    assert rep["ml_invariant"]["status"] == "not_computed"
    (entry,) = rep["classes"]
    assert entry["tuple"] == [1, 1, 1]
    assert entry["case"] == "B"
    assert entry["count"] == "ExactlyTwo"
    labels = [f["label"] for f in entry["formulas"]]
    assert labels == ["delta_0", "delta_infinity"]
    for f in entry["formulas"]:
        assert "images" in f
        assert f["kernel"]


def test_class_report_infinite_family_formal_entry():
    rep = class_report(surface(2, 2, 2)).to_dict()
    (entry,) = rep["classes"]
    assert entry["count"] == "InfiniteFamily"
    labels = [f["label"] for f in entry["formulas"]]
    assert labels == ["delta_0", "delta_infinity", "delta_lambda"]
    formal = entry["formulas"][-1]
    assert formal["descriptor"]["param"] == "formal"
    assert "kernel_pattern" in formal


def test_class_report_type1_and_free_variables():
    rep = class_report(type1(((3,), (1, 2)), d=1)).to_dict()
    cases = [e["case"] for e in rep["classes"]]
    assert cases == ["free_variable", "Type1"]
    assert rep["classes"][0]["count"] == "SingleFamily"
    assert rep["classes"][1]["count"] == "SingleFamily"
    assert rep["ml_invariant"]["status"] == "not_applicable"


def test_class_report_factoriality_note_outside_hypotheses():
    rep = class_report(type2(((1,), (2,), (2,)))).to_dict()
    assert rep["factorial"] is None
    assert "factorial_note" in rep


def test_class_report_case_a_family():
    rep = class_report(type2(((2,), (4,), (1,)))).to_dict()
    (entry,) = [e for e in rep["classes"] if e["case"] == "A"]
    assert entry["count"] == "InfiniteFamily"
    labels = [f["label"] for f in entry["formulas"]]
    assert labels[-1] == "b:lambda_family"
    assert any(lab.startswith("a:moves_block") for lab in labels)


def test_report_enumeration_rigidity_and_weight_box_share_one_plan():
    members = list(corpus())
    members.extend(
        TrinomialPresentation.from_json(path.read_text()) for path in sorted(SAMPLES.glob("*.json"))
    )
    for P in members:
        concrete = [
            formula["descriptor"]
            for entry in class_report(P).to_dict()["classes"]
            for formula in entry["formulas"]
            if formula["descriptor"].get("param") != "formal"
        ]
        instances = enumerate_lnds(P)
        built = iter([inst.descriptor.to_dict() for inst in instances])
        # in the same order: each lookup resumes where the last one stopped
        assert all(desc in built for desc in concrete), P.describe()
        rigidity = is_rigid(P)
        assert rigidity.rigid == (not concrete)
        if not rigidity.rigid:
            assert rigidity.witness.to_dict() == concrete[0], P.describe()
        grading = weight_assignment(P)
        degrees = {
            derivation_degree(inst.derivation, grading)
            for inst in instances
            if inst.derivation is not None and not inst.derivation.is_zero()
        }
        assert induced_weight_box(P) == tuple(sorted({grading.zero(), *degrees}))


# -- pieces computed once ------------------------------------------------------


def _fresh(P):
    """An equal presentation with every cache cold."""
    return TrinomialPresentation.from_input_dict(P.to_input_dict())


def test_warm_presentation_builds_what_a_fresh_one_builds():
    """Builds that share block pieces (on the presentation) and per-tuple
    pieces (within a plan entry) equal standalone builds on a cold equal
    presentation, kernels included: a cache key that confused t2a/t2b/t2c/t2d
    or two role orders would show here."""
    members = list(corpus())
    members.extend(
        TrinomialPresentation.from_json(path.read_text()) for path in sorted(SAMPLES.glob("*.json"))
    )
    kinds = set()
    for member in members:
        P = _fresh(member)
        class_report(P)
        for inst in enumerate_lnds(P):
            desc = inst.descriptor
            kinds.add(desc.kind)
            cold = _fresh(P)
            if inst.derivation is None:
                with pytest.raises(NeedsNormalization):
                    build_lnd(cold, desc)
                continue
            assert inst.derivation == build_lnd(cold, desc), (P.describe(), desc)
            assert kernel_generators(P, desc) == kernel_generators(_fresh(P), desc)
    assert kinds == {"free", "type1", "t2a", "t2b", "t2c", "t2d"}


def test_report_kernels_match_kernel_generators():
    """class_report shares the off-tuple kernel part among a tuple's
    descriptors; each kernel still reads as kernel_generators prints it."""
    for path in sorted(SAMPLES.glob("*.json")):
        P = TrinomialPresentation.from_json(path.read_text())
        for entry in class_report(P).to_dict()["classes"]:
            for formula in entry["formulas"]:
                if "kernel" not in formula:
                    continue
                desc = _descriptor_from_json(json.dumps(formula["descriptor"]))
                expected = [str(g) for g in kernel_generators(_fresh(P), desc)]
                assert formula["kernel"] == expected, (path.name, formula["descriptor"])


def test_presentation_keeps_only_block_level_pieces():
    """After a type 2 report and enumeration with several tuples and t2b
    families, the presentation holds block pieces only, at most n + r^3 of
    them, besides its class plan, and no per-tuple context is left alive."""
    P = type2(((2,), (4,), (1, 1, 1), (1, 1)))
    plan = [
        entry
        for entry, _, _ in classify.expand_orbits((e.orbit, e) for e in classify.class_plan(P))
    ]
    assert len(plan) == 6 and all(entry.family.kind == "t2b" for entry in plan)
    class_report(P)
    instances = enumerate_lnds(P)
    assert len(instances) == 48 and all(inst.derivation is not None for inst in instances)
    blocks = set(P.block_numbers)
    for tag, *args in P._block_memo:
        if tag == "ratios":  # the minor ratios of a relation on three blocks
            assert len(set(args)) == 3 and set(args) <= blocks
            continue
        # a packed block term ("term", i, c, m) with c None or a column of
        # block i; no block power
        assert tag == "term" and len(args) == 3
        i, column, m = args
        assert i in blocks and all(e % m == 0 for e in P.exponents(i))
        assert column is None or 1 <= column <= P.block_size(i)
    assert len(P._block_memo) <= P.n + P.r**3
    assert P._minors.keys() == set(itertools.permutations(blocks, 2))
    assert set(P.__dict__) <= {
        "kind", "blocks", "constants", "d", "anchors",
        "generators", "generator_set", "generator_index", "_relations", "rewrite_rules",
        "engine", "grading", "plan", "_block_memo", "_minors",
    }
    gc.collect()
    per_tuple = (classify._Construction, classify._EntryBuilds)
    assert not [obj for obj in gc.get_objects() if isinstance(obj, per_tuple)]


def test_the_classifier_builds_no_poly_product_or_relation(monkeypatch):
    """class_report and enumerate_lnds(expand=False) build every class on
    packed keys: no Monomial product or quotient (poly._merge), no packing
    of Poly images (poly.packed_terms, looked up in trilnd.derivation)
    and no Poly relation (RewriteEngine.poly_relations)."""
    calls = []
    spied = [
        (trilnd.poly, "_merge"),
        (trilnd.poly, "packed_terms"),
        (trilnd.derivation, "packed_terms"),
        (RewriteEngine, "poly_relations"),
    ]
    for owner, name in spied:
        original = getattr(owner, name)

        def spy(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    for P in corpus():
        P = _fresh(P)
        class_report(P)
        enumerate_lnds(P, expand=False)
    assert calls == []
    # the spies see each kind of call
    P = _fresh(corpus()[0])
    P.relations()
    Derivation(P, {P.generators[0]: Poly.generator(P.generators[-1]) * 2}).packed()
    Poly.generator(P.generators[0]) * Poly.generator(P.generators[-1])
    assert calls == ["poly_relations", "packed_terms", "_merge"]
