"""Every construction built once, over its coefficients in the parameter.

A t2b family is D0 + lambda*D1, a t2d family D0 + lambda*D1 +
lambda^2*D2, and the t2c classes D0 + mu*D1 at mu = i and -i. Each D_j
is checked once against every relation, and every derivation is their
exact sum. The reference below is the per-parameter formula that built
each one from scratch, kept here to compare with.
"""

import json
import math
from pathlib import Path

import pytest

import trilnd.classify
from trilnd.classify import (
    DEFAULT_LAMBDAS,
    LndDescriptor,
    _Construction,
    build_lnd,
    class_plan,
    enumerate_lnds,
    kernel_generators,
)
from trilnd.cli import main
from trilnd.corpus import corpus, rescaled_members
from trilnd.derivation import Derivation, kernel_member
from trilnd.gaussian import ONE, I, InternalError, gq
from trilnd.grading import derivation_degree, weight_assignment
from trilnd.poly import Poly, exact_divide, poly_format, poly_parse, svar, tvar
from trilnd.presentation import TrinomialPresentation, type2

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
EXTRA_LAMBDAS = (gq(3), gq(1, -2), gq(-1) / 2)


def direct_member(P, desc: LndDescriptor) -> Derivation:
    """The derivation at desc.param from the per-parameter formula: the two
    distinguished images evaluated at it, every other chosen variable
    solved from the triple relation through its block by exact division,
    and every image normalized."""
    construction = _Construction(P, desc)
    t_a, t_b, _ = construction.gens
    pieces = construction.image_pieces
    lam = desc.param
    if desc.kind == "t2b":
        images = {t_a: pieces[0], t_b: pieces[1] * lam}
    elif desc.kind == "t2c":
        images = {t_a: pieces[0] * (lam * construction.roots[0]), t_b: pieces[1]}
    else:
        ab, ac, ba, bc = pieces
        sb, sc = construction.roots
        images = {
            t_a: ab * (lam * 2 * sb) + ac * ((ONE + lam * lam) * I * sc),
            t_b: ba * (-2 * lam / sb) + bc * ((ONE - lam * lam) * sc / sb),
        }
    B0, B1, _ = desc.roles
    cmap = dict(zip(P.block_numbers, desc.c))
    for s in P.block_numbers:
        if s in (B0, B1):
            continue
        alpha, beta, gamma = P.triple_coefficients(B0, B1, s)
        numerator = -(
            P.block_partial(B0, cmap[B0]) * alpha * images[t_a]
            + P.block_partial(B1, cmap[B1]) * beta * images[t_b]
        )
        solved = exact_divide(numerator, P.block_partial(s, cmap[s]) * gamma)
        if solved:
            images[tvar(s, cmap[s])] = solved
    return Derivation(P, images)


FAMILIES = [
    (P, entry.family) for P in corpus() for entry in class_plan(P) if entry.family is not None
]


def test_the_corpus_has_both_kinds_of_family():
    kinds = [family.kind for _, family in FAMILIES]
    assert kinds.count("t2b") == 9 and kinds.count("t2d") == 8


@pytest.mark.parametrize(
    "P, family",
    FAMILIES,
    ids=[f"{P.describe()}-{f.kind}-{''.join(map(str, f.roles))}" for P, f in FAMILIES],
)
def test_every_sample_is_the_per_lambda_build(P, family):
    lambdas = DEFAULT_LAMBDAS + EXTRA_LAMBDAS
    grading = weight_assignment(P)
    samples = [
        inst
        for inst in enumerate_lnds(P, lambdas, expand=False)
        if (inst.descriptor.kind, inst.descriptor.c, inst.descriptor.roles)
        == (family.kind, family.c, family.roles)
    ]
    expected = [lam for lam in lambdas if family.kind == "t2d" or lam]
    assert [inst.descriptor.param for inst in samples] == expected
    for inst in samples:
        if inst.derivation is None:
            assert inst.error.startswith("NeedsNormalization")
            continue
        assert inst.derivation.images == direct_member(P, inst.descriptor).images
        assert inst.degree == derivation_degree(inst.derivation, grading)
        assert inst.derivation == build_lnd(P, inst.descriptor)


@pytest.mark.parametrize("describe, family, killed", [
    ("type2[(1),(1),(1)]d0", LndDescriptor("t2b", c=(1, 1, 1), roles=(0, 1, 2)), "T2_1"),
    ("type2[(1),(1),(2)]d0", LndDescriptor("t2b", c=(1, 1, 1), roles=(0, 2, 1)), "T1_1"),
    ("type2[(1,2),(1,2),(2)]d0", LndDescriptor("t2b", c=(1, 1, 1), roles=(0, 2, 1)), "T1_1"),
])
def test_the_kernel_at_minus_one_holds_the_generator_it_kills(describe, family, killed):
    (P,) = [P for P in corpus() if P.describe() == describe]
    desc = LndDescriptor(family.kind, c=family.c, roles=family.roles, param=gq(-1))
    delta = build_lnd(P, desc)
    g = poly_parse(killed)
    assert delta.image(tvar(int(killed[1]), int(killed[3]))).is_zero()
    assert kernel_member(delta, g)
    kernel = kernel_generators(P, desc)
    assert g in kernel and all(kernel_member(delta, h) for h in kernel)
    # at a generic lambda the generator is moved and left out
    generic = LndDescriptor(family.kind, c=family.c, roles=family.roles, param=gq(2))
    assert g not in kernel_generators(P, generic)


def test_an_inconsistent_coefficient_is_an_internal_error(monkeypatch):
    """Dropping the lambda-term of T_B0's image from the t2d formulas
    leaves a lambda-coefficient whose other images no relation solves: the
    family's one build raises ExactDivisionFailed, an InternalError."""
    P = next(P for P in corpus() if P.describe() == "type2[(2),(2),(2)]d0")
    family = next(e.family for e in class_plan(P) if e.family is not None and e.family.kind == "t2d")
    _, ac, ba, bc = _Construction(P, family).image_pieces
    monkeypatch.setattr(
        _Construction, "image_pieces", property(lambda self: (Poly.zero(), ac, ba, bc))
    )
    with pytest.raises(InternalError):
        build_lnd(P, LndDescriptor("t2d", c=family.c, roles=family.roles, param=gq(2)))


def counted(monkeypatch, name):
    calls = []
    original = getattr(trilnd.classify, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(trilnd.classify, name, wrapper)
    return calls


# three blocks of up to four variables, two of them with families
WIDE = {"type": 2, "blocks": [[1, 3, 1], [2, 1, 1, 1], [1, 1, 4]], "free_vars": 1}


@pytest.mark.parametrize("data", [WIDE, json.loads((SAMPLES / "sphere.json").read_text())])
def test_lnds_checks_each_class_once_and_no_sample(monkeypatch, capsys, tmp_path, data):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    checks = counted(monkeypatch, "is_well_defined")
    assert main(["lnds", "--presentation", str(path)]) == 0
    records = json.loads(capsys.readouterr().out)["lnds"]
    built = [r["descriptor"] for r in records if "images" in r]
    concrete = [d for d in built if d["kind"] not in ("t2b", "t2d")]
    families = {
        (d["kind"], tuple(d["c"]), tuple(d["roles"])) for d in built if d["kind"] in ("t2b", "t2d")
    }
    coefficients = sum(2 if kind == "t2b" else 3 for kind, _, _ in families)
    samples = len(built) - len(concrete)
    assert families and samples > len(families)
    assert len(checks) == len(concrete) + coefficients


def test_kernel_with_a_member_builds_one_construction(monkeypatch, capsys):
    """trilnd kernel --member checks each coefficient of the family once
    and prints what kernel_generators, build_lnd and kernel_member give."""
    path = SAMPLES / "sphere.json"
    P = TrinomialPresentation.from_json(path.read_text())
    desc = LndDescriptor("t2d", c=(1, 1, 1), roles=(0, 1, 2), param=gq(2))
    (extra,) = kernel_generators(P, desc)
    expected = {
        "presentation": P.to_input_dict(),
        "descriptor": desc.to_dict(),
        "kernel": [poly_format(extra)],
        "member": {
            "poly": poly_format(extra),
            "in_kernel": kernel_member(build_lnd(P, desc), extra),
        },
    }
    assert expected["member"]["in_kernel"] is True
    checks = counted(monkeypatch, "is_well_defined")
    argv = ["kernel", "--presentation", str(path), "--descriptor", json.dumps(desc.to_dict())]
    assert main([*argv, "--member", poly_format(extra)]) == 0
    assert len(checks) == 3  # D0, D1 and D2 of the t2d family
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))


def test_plan_descriptors_reuse_the_plan_tuple(monkeypatch):
    """The plan classifies each candidate orbit once, one candidate per
    choice of a distinct exponent in each block, and is kept on the
    presentation; its descriptors are not classified again, a user's
    descriptor is."""
    P = type2(WIDE["blocks"], d=WIDE["free_vars"])
    calls = counted(monkeypatch, "_tuple_info")
    candidates = math.prod(len(set(P.exponents(i))) for i in P.block_numbers)
    enumerate_lnds(P)
    trilnd.classify.class_report(P)
    assert len(calls) == candidates
    kernel_generators(P, LndDescriptor("t2a", c=(1, 1, 1), roles=(0, 1, 2)))
    assert len(calls) == candidates + 1


# every corpus t2c class has the root sb = 1; the rescaled members have sb = 2, i, 1 and 3/2
T2C_CLASSES = [
    (P, desc)
    for P in [
        *corpus(),
        *(TrinomialPresentation.from_json(path.read_text()) for path in sorted(SAMPLES.glob("*.json"))),
        *rescaled_members(),
    ]
    for entry in class_plan(P)
    for _, desc in entry.descriptors
    if desc.kind == "t2c"
]


def test_every_t2c_class_is_the_direct_formula():
    """At mu = i and -i, the sum D0 + mu*D1 equals the formula that set
    both distinguished images at mu and solved the rest."""
    assert len(T2C_CLASSES) == 42
    assert {desc.param for _, desc in T2C_CLASSES} == {I, -I}
    assert {_Construction(P, desc).roots for P, desc in T2C_CLASSES} == {
        (gq(1),), (gq(2),), (I,), (gq(3) / 2,)
    }
    for P, desc in T2C_CLASSES:
        assert build_lnd(P, desc).images == direct_member(P, desc).images, (P.describe(), desc)


def test_a_build_outside_normal_form_is_an_internal_error():
    P = next(P for P in corpus() if P.describe() == "type2[(2),(2),(2)]d1")
    construction = _Construction(P, LndDescriptor("free", k=1))
    lead = poly_parse("T2_1^2")  # the lead of the rule of block 2
    assert Derivation(P, {svar(1): lead}).image(svar(1)) != lead
    with pytest.raises(InternalError, match="test has a term outside normal form"):
        construction._checked({svar(1): lead}, "test")
