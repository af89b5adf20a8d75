"""Every construction built once, over its coefficients in the parameter.

A t2b family is D0 + lambda*D1, a t2d family D0 + lambda*D1 +
lambda^2*D2, and the t2c classes D0 + mu*D1 at mu = i and -i. Each D_j
is checked once against every relation, and every derivation is their
exact sum. The classifier builds on packed keys. The reference below
builds every class of every kind from scratch, from its per-parameter
formula, with Poly arithmetic alone: block partials by
partial_derivative, their products, and exact_divide for the images the
relations force. Its kernel generators come from the block powers.
"""

import json
import math
from pathlib import Path

import pytest

import trilnd.classify
from trilnd.classify import (
    DEFAULT_LAMBDAS,
    ExactDivisionFailed,
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
from trilnd.gaussian import ONE, I, InternalError, gq, gq_sqrt
from trilnd.grading import derivation_degree, weight_assignment
from trilnd.poly import (
    Monomial,
    Poly,
    exact_divide,
    pack,
    partial_derivative,
    poly_format,
    poly_parse,
    svar,
    tvar,
)
from trilnd.presentation import TrinomialPresentation, type2

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
EXTRA_LAMBDAS = (gq(3), gq(1, -2), gq(-1) / 2)


def product(polys) -> Poly:
    out = Poly.constant(1)
    for p in polys:
        out = out * p
    return out


def roots(P, desc):
    """(sb, sc) of a t2c or t2d descriptor, sc = 1 for t2c, or None when
    one is missing in Q(i)."""
    alpha, beta, gamma = P.triple_coefficients(*desc.roles)
    sb = gq_sqrt(beta / alpha)
    sc = gq_sqrt(gamma / alpha) if desc.kind == "t2d" else ONE
    return None if sb is None or sc is None else (sb, sc)


def halves(P, desc) -> dict:
    """T_i^(l_i/m) per role block that a t2b, t2c or t2d formula reads, m the
    chosen exponent of B0 for t2b and 2 otherwise."""
    B0 = desc.roles[0]
    m = P.exponents(B0)[desc.c[B0 - P.r0] - 1] if desc.kind == "t2b" else 2
    return {i: P.block_power_divided(i, m) for i in desc.roles[: 3 if desc.kind == "t2d" else 2]}


def direct_member(P, desc: LndDescriptor):
    """The derivation desc describes, from its per-parameter formula, or
    None when that needs a root missing in Q(i). Each chosen variable of a
    type 1 tuple maps to the product of the other blocks' partials. Type 2
    sets the two distinguished images at the parameter, solves every other
    chosen variable from the triple relation through its block by exact
    division, and normalizes every image."""
    if desc.kind == "free":
        return Derivation(P, {svar(desc.k): Poly.constant(1)})
    blocks = list(P.block_numbers)
    chosen = {i: tvar(i, ci) for i, ci in zip(blocks, desc.c)}
    d = {i: partial_derivative(P.block_power(i), g) for i, g in chosen.items()}
    if desc.kind == "type1":
        return Derivation(P, {chosen[i]: product(d[k] for k in blocks if k != i) for i in blocks})
    B0, B1, B2 = desc.roles
    t_a, t_b = chosen[B0], chosen[B1]
    lam = desc.param
    outside = desc.roles if desc.kind == "t2d" else (B0, B1)
    rest = product(d[k] for k in blocks if k not in outside)
    if desc.kind == "t2a":
        images = {t_a: rest}
    else:
        half = halves(P, desc)
        dh = {i: partial_derivative(h, chosen[i]) for i, h in half.items()}
        found = ONE, ONE
        if desc.kind != "t2b":
            found = roots(P, desc)
            if found is None:
                return None
        sb, sc = found
        if desc.kind == "t2b":
            images = {t_a: dh[B1] * rest, t_b: dh[B0] * rest * lam}
        elif desc.kind == "t2c":
            images = {t_a: dh[B1] * rest * (lam * sb), t_b: dh[B0] * rest}
        else:
            a, b = dh[B1] * dh[B2] * rest, dh[B0] * dh[B2] * rest
            images = {
                t_a: a * half[B1] * (lam * 2 * sb) + a * half[B2] * ((ONE + lam * lam) * I * sc),
                t_b: b * half[B0] * (-2 * lam / sb) + b * half[B2] * ((ONE - lam * lam) * sc / sb),
            }
    for s in blocks:
        if s in (B0, B1):
            continue
        alpha, beta, gamma = P.triple_coefficients(B0, B1, s)
        numerator = -(
            d[B0] * alpha * images.get(t_a, Poly.zero())
            + d[B1] * beta * images.get(t_b, Poly.zero())
        )
        solved = exact_divide(numerator, d[s] * gamma)
        if solved:
            images[chosen[s]] = solved
    return Derivation(P, images)


def direct_kernel(P, desc: LndDescriptor, delta: Derivation) -> list:
    """The kernel generators of desc at its parameter, delta its
    direct_member: every generator it does not move (for t2b and t2d those
    whose image vanishes at the parameter, else all but the chosen
    variables), then the kernel generator of a type 2 kind beyond them."""
    if desc.kind == "free":
        moved = {svar(desc.k)}
    elif desc.kind in ("t2b", "t2d"):
        moved = set(delta.images)
    else:
        moved = {tvar(i, ci) for i, ci in zip(P.block_numbers, desc.c)}
    gens = [Poly.generator(g) for g in P.generators if g not in moved]
    if desc.kind in ("free", "type1"):
        return gens
    B0, B1, B2 = desc.roles
    lam = desc.param
    if desc.kind == "t2a":
        return [*gens, Poly.generator(tvar(B1, desc.c[B1 - P.r0]))]
    half = halves(P, desc)
    if desc.kind == "t2b":
        return [*gens, half[B0] * lam - half[B1]]
    sb, sc = roots(P, desc)
    if desc.kind == "t2c":
        return [*gens, half[B0] * lam + half[B1] * sb]
    extra = (
        half[B0] * (ONE - lam * lam)
        - half[B1] * ((ONE + lam * lam) * I * sb)
        + half[B2] * (2 * lam * sc)
    )
    return [*gens, extra]


# a dozen fixed wide presentations, mostly exponent-1 variables: type 1
# with 3-4 blocks of 3-6 variables, type 2 with 3-4 blocks of up to 4
WIDE_SHAPES = [
    {"type": 1, "blocks": [[1, 1, 1], [1, 3, 1, 1], [1, 1, 2]], "constants": ["0", "1+i", "-2"]},
    {"type": 2, "blocks": [[2, 1], [1, 1, 3], [1, 1]], "free_vars": 1},
    {"type": 1, "blocks": [[1, 4, 1, 1, 1], [1, 1, 1, 1], [1, 1, 2, 1]], "free_vars": 1,
     "anchors": [2, 1, 3]},
    {"type": 2, "blocks": [[1, 2, 1], [1, 1], [1, 1, 3], [2, 1]],
     "constants": [["2", "0"], ["0", "1"], ["-2", "-2"], ["2", "-2"]]},
    {"type": 1, "blocks": [[1, 1, 2], [3, 1, 1], [1, 1, 1], [1, 1, 2]], "free_vars": 2,
     "constants": ["i", "-1", "2-i", "3"]},
    {"type": 2, "blocks": [[1, 2, 1], [1, 1, 2], [3, 1, 1]], "free_vars": 1, "anchors": [3, 1, 2]},
    {"type": 2, "blocks": [[2, 2, 1], [2, 1, 1, 2], [1, 1, 4]], "free_vars": 2},
    {"type": 1, "blocks": [[2, 1, 1, 1, 3, 1], [1, 1, 1, 2, 1], [1, 1, 1, 2]]},
    {"type": 1, "blocks": [[1, 1, 2, 1], [1, 1, 1, 3], [1, 1, 1, 1]], "free_vars": 1,
     "constants": ["-3", "1-2i", "2i"]},
    {"type": 2, "blocks": [[1, 1], [1, 2], [1, 1, 2], [1, 2, 1]], "free_vars": 1},
    {"type": 2, "blocks": [[2, 4], [2, 2], [2, 1, 1]],
     "constants": [["1", "0"], ["0", "2"], ["-1", "-1"]]},
    {"type": 2, "blocks": [[2, 4, 2], [2, 2], [1, 1, 2, 2]], "anchors": [1, 2, 4]},
]
REFERENCE_SET = [
    *corpus(),
    *rescaled_members(),
    *(TrinomialPresentation.from_input_dict(data) for data in WIDE_SHAPES),
]


def test_the_reference_set_has_every_kind():
    kinds = {
        desc.kind
        for P in REFERENCE_SET
        for entry in P.plan
        for desc in (*(d for _, d in entry.descriptors), entry.family)
        if desc is not None
    }
    assert kinds == {"free", "type1", "t2a", "t2b", "t2c", "t2d"}
    assert len({P.describe() for P in REFERENCE_SET[-len(WIDE_SHAPES):]}) == len(WIDE_SHAPES)


@pytest.mark.parametrize(
    "P", REFERENCE_SET, ids=[f"{k}-{P.describe()}" for k, P in enumerate(REFERENCE_SET)]
)
def test_every_class_is_the_direct_formula(P):
    """Every class of every plan entry, family samples at DEFAULT_LAMBDAS +
    EXTRA_LAMBDAS, has the reference's images, kernel generators and
    degree, and the reference's kernel generators are killed."""
    for inst in enumerate_lnds(P, DEFAULT_LAMBDAS + EXTRA_LAMBDAS, expand=False):
        desc = inst.descriptor
        want = direct_member(P, desc)
        if want is None:
            assert inst.derivation is None and inst.error.startswith("NeedsNormalization")
            continue
        assert inst.derivation.images == want.images, (P.describe(), desc)
        assert inst.degree_shift() == derivation_degree(want, P.grading), (P.describe(), desc)
        kernel = direct_kernel(P, desc, want)
        assert kernel_generators(P, desc) == kernel, (P.describe(), desc)
        assert all(kernel_member(want, h) for h in kernel), (P.describe(), desc)


def reference_relabel(pairs, sigma):
    """Monomial pairs with each generator g renamed sigma.get(g, g), most
    significant generator first."""
    return tuple(sorted(((sigma.get(g, g), e) for g, e in pairs), reverse=True))


def test_key_relabelling_is_the_monomial_relabel():
    """For every orbit swap sigma of the corpus and the wide shapes,
    RewriteEngine.swapped renames the keys of every relation and of every
    class image at the representative as the reference renames their
    Monomial pairs, and Derivation.relabelled is the reference relabel of
    the Poly images."""
    swaps = 0
    for P in (*corpus(), *REFERENCE_SET[-len(WIDE_SHAPES):]):
        engine = P.engine
        instances = [
            inst for inst in enumerate_lnds(P, expand=False)
            if inst.orbit is not None and inst.derivation is not None
        ]
        for orbit in dict.fromkeys(inst.orbit for inst in instances):
            members = [inst.derivation for inst in instances if inst.orbit == orbit]
            images = [img for delta in members for img in delta.packed()[0].values()]
            for c in orbit.members():
                sigma = orbit.swap(c)
                swaps += bool(sigma)
                for terms in (*engine.relations, *images):
                    swapped = engine.swapped(terms, sigma)
                    assert list(swapped.values()) == list(terms.values())
                    assert [engine.monomial(key).pairs for key in swapped] == [
                        reference_relabel(engine.monomial(key).pairs, sigma) for key in terms
                    ], (P.describe(), c)
                for delta in members:
                    want = {
                        sigma.get(g, g): Poly(
                            {Monomial(reference_relabel(m.pairs, sigma)): k for m, k in img.terms.items()}
                        )
                        for g, img in delta.images.items()
                    }
                    assert delta.relabelled(sigma).images == want, (P.describe(), c)
    assert swaps > 100


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
    ab, ac, ba, bc = _Construction(P, family).image_pieces
    assert all(len(piece) == 1 for piece in (ab, ac, ba, bc))
    # the packed pieces are one term {key: coefficient} each; {} is zero
    monkeypatch.setattr(_Construction, "image_pieces", property(lambda self: ({}, ac, ba, bc)))
    with pytest.raises(ExactDivisionFailed, match="solving the image of T2_1 failed: term "):
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
    (m,) = lead.terms
    with pytest.raises(InternalError, match="test has a term outside normal form"):
        construction._checked({svar(1): {pack(m.pairs, P.generator_index): ONE}}, "test")
