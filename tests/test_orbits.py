"""Orbits of equal-exponent tuples: one record per orbit, --expand for every tuple.

The expansion is checked against builds that know nothing of orbits: the
admissible tuples come from a scan of every tuple with _tuple_info, and
every expanded derivation and kernel is rebuilt from its own descriptor
on a cold presentation.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from trilnd import classify
from trilnd.classify import (
    InadmissibleDescriptor,
    InadmissibleTuple,
    LndDescriptor,
    NeedsNormalization,
    _tuple_info,
    admissible_tuples,
    build_lnd,
    class_plan,
    enumerate_lnds,
    is_rigid,
    is_semirigid,
    kernel_generators,
    makar_limanov,
)
from trilnd.cli import _descriptor_from_json, main
from trilnd.corpus import corpus, unnormalized_member
from trilnd.gaussian import InternalError, gq
from trilnd.grading import derivation_degree, weight_assignment
from trilnd.oracle import _classifier_by_degree, induced_weight_box
from trilnd.poly import RewriteEngine, pack, poly_format, tvar
from trilnd.presentation import TrinomialPresentation, type1, type2

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "sample_inputs"
STRESS = {"type": 1, "blocks": [[1] * 12] * 4}


def cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def scanned_tuples(P):
    """Every admissible tuple, by testing each tuple on its own."""
    out = []
    for c in product(*(range(1, P.block_size(i) + 1) for i in P.block_numbers)):
        try:
            out.append(_tuple_info(P, c).c)
        except InadmissibleTuple:
            continue
    return out


def cold(P):
    return TrinomialPresentation.from_input_dict(P.to_input_dict())


def wide_classify_presentations(tmp_path, seed=3001):
    """The twelve wide-classify shapes of perfbench, drawn from one seed."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        workload = module.WideClassify()
        rng = random.Random(seed)
        items = [workload.generate(rng, k, tmp_path) for k in range(len(module.WIDE_SCHEDULE))]
    finally:
        del sys.modules[spec.name]
    return [
        TrinomialPresentation.from_json(Path(item.files["presentation"]).read_text())
        for item in items
    ]


def test_case_a_role_triples_are_accepted_by_their_labeling(tmp_path):
    """A t2a or t2b descriptor on a case-A tuple is refused exactly when
    its first two role blocks are not a labeling, or, for t2b, when the
    first block's exponent does not divide both: the third block lies
    outside Big, so its exponent at the tuple is always 1."""
    members = [*corpus(), *wide_classify_presentations(tmp_path)]
    labeled = 0
    for P in members:
        for info in admissible_tuples(P) if P.kind == 2 else ():
            if info.case != "A":
                continue
            exponent = {i: P.exponents(i)[ci - 1] for i, ci in zip(P.block_numbers, info.c)}
            for B0, B1, B2 in permutations(P.block_numbers, 3):
                fault = {}
                if (B0, B1) not in info.labelings:
                    refusal = f"({B0},{B1}) is not a valid labeling for this tuple"
                    fault = dict.fromkeys(("t2a", "t2b"), refusal)
                else:
                    assert exponent[B2] == 1
                    labeled += 1
                    if any(e % exponent[B0] for i in (B0, B1) for e in P.exponents(i)):
                        fault["t2b"] = (
                            f"exponent {exponent[B0]} of the first role block must "
                            "divide both distinguished blocks"
                        )
                for kind, param in (("t2a", None), ("t2b", gq(1))):
                    desc = LndDescriptor(kind, c=info.c, roles=(B0, B1, B2), param=param)
                    if kind not in fault:
                        assert kernel_generators(P, desc)
                        continue
                    with pytest.raises(InadmissibleDescriptor) as refused:
                        kernel_generators(P, desc)
                    assert str(refused.value) == fault[kind]
    assert labeled > 1000


def expansion_inputs(tmp_path):
    members = [
        TrinomialPresentation.from_json(path.read_text()) for path in sorted(SAMPLES.glob("*.json"))
    ]
    members.extend(corpus())
    members.append(unnormalized_member())
    members.extend(wide_classify_presentations(tmp_path))
    return members


def check_expanded_lnds(P, path):
    code, rep = cli("lnds", "--presentation", path, "--expand")
    assert code == 0 and "expanded_count" not in rep
    assert rep["count"] == len(rep["lnds"])
    grading = weight_assignment(P)
    tuples = []
    for record in rep["lnds"]:
        assert "orbit" not in record
        desc = _descriptor_from_json(json.dumps(record["descriptor"]))
        if desc.c is not None and (not tuples or tuples[-1] != desc.c):
            tuples.append(desc.c)
        fresh = cold(P)
        if "error" in record:
            with pytest.raises(NeedsNormalization):
                build_lnd(fresh, desc)
            continue
        delta = build_lnd(fresh, desc)
        assert record["images"] == delta.image_strings(), (P.describe(), desc)
        if not delta.is_zero():
            assert record["degree"] == list(derivation_degree(delta, grading))
    assert tuples == scanned_tuples(P), P.describe()
    return rep


def check_expanded_analyze(P, path):
    code, rep = cli("analyze", "--presentation", path, "--expand")
    assert code == 0 and "expanded_count" not in rep
    entries = [e for e in rep["classes"] if e["tuple"] is not None]
    assert [tuple(e["tuple"]) for e in entries] == scanned_tuples(P), P.describe()
    for entry in rep["classes"]:
        assert "orbit" not in entry
        for formula in entry["formulas"]:
            desc = formula["descriptor"]
            if desc.get("param") == "formal":
                assert tuple(desc["c"]) == tuple(entry["tuple"])
                continue
            desc = _descriptor_from_json(json.dumps(desc))
            if "error" in formula:
                with pytest.raises(NeedsNormalization):
                    build_lnd(cold(P), desc)
                continue
            assert formula["images"] == build_lnd(cold(P), desc).image_strings()
            assert formula["kernel"] == [poly_format(g) for g in kernel_generators(cold(P), desc)]
    return rep


def test_expand_matches_independent_member_builds(tmp_path):
    members = expansion_inputs(tmp_path)
    multi = 0
    for k, P in enumerate(members):
        path = tmp_path / f"m{k}.json"
        path.write_text(json.dumps(P.to_input_dict()))
        expanded_lnds = check_expanded_lnds(P, str(path))
        expanded_analyze = check_expanded_analyze(P, str(path))
        code, lnds = cli("lnds", "--presentation", str(path))
        assert code == 0 and lnds["count"] == len(lnds["lnds"])
        assert lnds["expanded_count"] == expanded_lnds["count"]
        code, analyze = cli("analyze", "--presentation", str(path))
        assert code == 0
        assert analyze["expanded_count"] == len(expanded_analyze["classes"])
        sizes = [e["orbit"]["size"] for e in analyze["classes"] if e["tuple"] is not None]
        multi += any(size > 1 for size in sizes)
    # the wide shapes and some corpus members have orbits of several tuples
    assert multi >= 12


def test_library_enumeration_lists_every_member_with_its_own_degree():
    P = type1(((1, 1, 2), (3, 1, 1)), d=1)
    instances = enumerate_lnds(P)
    built = [inst for inst in instances if inst.derivation is not None]
    assert [inst.descriptor.c for inst in built if inst.descriptor.c] == scanned_tuples(P)
    grading = weight_assignment(P)
    degrees = set()
    for inst in built:
        delta = build_lnd(cold(P), inst.descriptor)
        assert inst.derivation.images == delta.images
        degrees.add(derivation_degree(inst.derivation, grading))
    # the swap permutes weights: members of one orbit differ in degree
    assert len(degrees) > len(list(class_plan(P)))
    representatives = enumerate_lnds(P, expand=False)
    assert len(representatives) == len(list(class_plan(P)))
    assert sum(1 if i.orbit is None else i.orbit.size for i in representatives) == len(instances)


@pytest.mark.parametrize(
    "P",
    [
        type1(((1, 1, 2), (3, 1, 1))),
        type1(((1, 1, 2), (3, 1, 1)), d=1),
        type1(((2, 3), (2, 5)), d=1),
        type1(((3,), (1, 2, 1))),
        type2(((1, 1), (2,), (1, 3, 1))),
        type2(((2,), (4,), (1, 1, 1), (1, 1))),
    ],
    ids=["t1", "t1-d1", "t1-d1-rigid-base", "t1-ml", "t2", "t2-four-blocks"],
)
def test_orbit_readers_see_every_member(P):
    """is_rigid, is_semirigid, the oracle's classifier degrees and the
    induced weight box, against references from a scan of every tuple and
    a standalone build of every member."""
    tuples = scanned_tuples(P)
    rigidity = is_rigid(P)
    if P.d:
        assert rigidity.witness.kind == "free" and rigidity.witness.k == 1
    else:
        assert rigidity.witness.c == tuples[0]
    entries = P.d + len(tuples)
    if entries == 0:
        clause = "rigid"
    elif P.d == 1 and entries == 1:
        clause = "single_free_variable_over_rigid_base"
    elif P.kind == 1 and makar_limanov(P).status == "computed":
        clause = "makar_limanov"
    else:
        clause = None
    assert is_semirigid(P).clause == clause
    assert is_semirigid(P).semirigid == (clause is not None)
    grading = weight_assignment(P)
    reference = {}
    for inst in enumerate_lnds(P):
        if inst.derivation is None:
            continue
        delta = build_lnd(cold(P), inst.descriptor)
        reference.setdefault(derivation_degree(delta, grading), []).append(inst.descriptor)
    by_degree = _classifier_by_degree(P)
    assert {d: [i.descriptor for i in insts] for d, insts in by_degree.items()} == reference
    assert induced_weight_box(P) == tuple(sorted({grading.zero(), *reference}))


def test_orbits_enumerate_exponent_classes():
    P = type2(((1, 2, 1, 2), (1,), (3, 1, 3)))
    plan = [entry for entry in class_plan(P) if entry.orbit is not None]
    assert [entry.orbit.to_dict() for entry in plan] == [
        {"size": 4, "columns": [[1, 3], [1], [1, 3]]},
        {"size": 2, "columns": [[1, 3], [1], [2]]},
        {"size": 4, "columns": [[2, 4], [1], [1, 3]]},
        {"size": 2, "columns": [[2, 4], [1], [2]]},
    ]
    assert [entry.info.c for entry in plan] == [e.orbit.representative for e in plan]
    assert plan[0].orbit.swap((3, 1, 1)) == {tvar(0, 1): tvar(0, 3), tvar(0, 3): tvar(0, 1)}
    assert classify.admissible_tuples(P) == [
        _tuple_info(P, c) for c in scanned_tuples(P)
    ]


def test_a_swap_that_moves_a_relation_is_an_internal_error(monkeypatch, tmp_path):
    # every engine's one relation gains the term T1_1, which the swap of
    # T1_1 and T1_2 moves; the swap check reads the engine's relations
    build = RewriteEngine.__init__

    def with_a_bad_relation(engine, index, rules, relations):
        build(engine, index, rules, relations)
        (relation,) = engine.relations
        engine.relations = ({**relation, pack(((tvar(1, 1), 1),), index): (1, 0)},)

    monkeypatch.setattr(RewriteEngine, "__init__", with_a_bad_relation)
    P = type1(((1, 1), (2,)))
    with pytest.raises(InternalError, match="swapping T1_1 and T1_2 moves relation 0"):
        list(class_plan(P))
    path = tmp_path / "p.json"
    path.write_text(json.dumps(P.to_input_dict()))
    code, rep = cli("lnds", "--presentation", str(path))
    assert code == 4
    assert rep == {"error": "swapping T1_1 and T1_2 moves relation 0", "kind": "InternalError"}


@pytest.mark.parametrize("P, groups, swap", [
    (type1(((1, 2), (1,))), [[(1, 2)], [(1,)]], "T1_1 and T1_2"),
    (type2(((1,), (2, 1, 1), (2,))), [[(1,)], [(1, 3)], [(1,)]], "T1_1 and T1_3"),
], ids=["type1", "type2"])
def test_the_swap_check_refuses_columns_of_unequal_exponents(P, groups, swap):
    with pytest.raises(InternalError, match=f"swapping {swap} moves relation 0"):
        classify._check_swaps(P, groups)


def test_orbit_record_of_the_readme_example(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"type": 1, "blocks": [[1, 1], [2, 1, 1]]}))
    code, rep = cli("analyze", "--presentation", str(path))
    assert code == 0
    assert rep["expanded_count"] == 6
    assert [(e["tuple"], e["orbit"]) for e in rep["classes"]] == [
        ([1, 1], {"size": 2, "columns": [[1, 2], [1]]}),
        ([1, 2], {"size": 4, "columns": [[1, 2], [2, 3]]}),
    ]
    code, rep = cli("lnds", "--presentation", str(path))
    assert code == 0
    assert (rep["count"], rep["expanded_count"]) == (2, 6)
    assert rep["lnds"][1]["orbit"] == {"size": 4, "columns": [[1, 2], [2, 3]]}
    assert rep["lnds"][1]["images"] == {"T1_1": "T2_1^2*T2_3", "T2_2": "T1_2"}


def test_stress_shape_builds_one_derivation_per_record(monkeypatch, tmp_path):
    """Type 1, four blocks of twelve exponent-1 variables: 20,736 tuples in
    one orbit; the default analyze and lnds build its representative only."""
    P = TrinomialPresentation.from_input_dict(STRESS)
    assert [(entry.orbit.size, entry.info.c) for entry in class_plan(P)] == [(20736, (1, 1, 1, 1))]
    builds = []
    original = classify._Construction.build

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(classify._Construction, "build", counted)
    path = tmp_path / "stress.json"
    path.write_text(json.dumps(STRESS))
    code, rep = cli("analyze", "--presentation", str(path))
    assert code == 0 and rep["expanded_count"] == 20736
    records = sum(1 for e in rep["classes"] for f in e["formulas"] if "images" in f)
    assert records == 1 and len(builds) <= records
    builds.clear()
    code, rep = cli("lnds", "--presentation", str(path))
    assert code == 0 and rep["expanded_count"] == 20736
    assert rep["count"] == len(rep["lnds"]) == 1 and len(builds) <= rep["count"]
    assert rep["lnds"][0]["orbit"] == {"size": 20736, "columns": [list(range(1, 13))] * 4}
