"""Acceptance gate.

One test per advertised capability. Each test name states what is being
accepted; together they are the checklist the package has to clear.
Numeric comparisons are exact (Gaussian rational arithmetic throughout);
the only tolerances here are iteration caps and the wall-clock budget in
criterion 1, both stated inline.
"""

import random
import time

import pytest

from trilnd.classify import (
    DEFAULT_LAMBDAS,
    LndDescriptor,
    admissible_tuples,
    build_lnd,
    build_lnd_type1,
    class_report,
    enumerate_lnds,
    kernel_generators,
    is_rigid,
    is_semirigid,
    makar_limanov,
)
from trilnd.corpus import corpus
from trilnd.derivation import (
    decompose,
    is_well_defined,
    kernel_member,
    nilpotency_check,
    replica,
)
from trilnd.gaussian import I, gq
from trilnd.grading import derivation_degree, weight_assignment, weight_of
from trilnd.oracle import oracle_enumerate
from trilnd.poly import Monomial, Poly, normal_form, poly_parse, stepwise_normal_form, tvar
from trilnd.presentation import surface, type1
from trilnd.toric import case_b_pair, demazure_roots, gamma_cone, toric_derivation

X, Y, Z = tvar(0, 1), tvar(1, 1), tvar(2, 1)


def scalar_multiple_of(delta, reference):
    """Return c with delta == c * reference, or None."""
    for g, img in reference.images.items():
        lead = img.lead_monomial()
        c = delta.image(g).coefficient(lead) / img.coefficient(lead)
        break
    else:
        return None
    return c if delta == reference.scaled(c) else None


def test_criterion_1_surfaces_with_large_exponent_have_exactly_two_classes():
    # x^2 + y^2 + z^g for g in 3..6: two derivation classes, matching the
    # closed forms up to one scalar, with the two expected kernel lines,
    # classified in under a second per surface
    u = poly_parse("i*T0_1 - T1_1")
    v = poly_parse("i*T0_1 + T1_1")
    for gamma in (3, 4, 5, 6):
        started = time.monotonic()
        P = surface(2, 2, gamma)
        report = class_report(P)
        (entry,) = report.classes
        assert entry["count"] == "ExactlyTwo"
        instances = enumerate_lnds(P)
        assert len(instances) == 2
        closed = dict(case_b_pair(gamma))
        matched = set()
        for inst in instances:
            for label, ref in closed.items():
                if scalar_multiple_of(inst.derivation, ref) is not None:
                    matched.add(label)
                    expected = v if label == "delta_0" else u
                    assert kernel_member(inst.derivation, expected)
                    assert not kernel_member(
                        inst.derivation, u if label == "delta_0" else v
                    )
        assert matched == {"delta_0", "delta_infinity"}
        assert time.monotonic() - started < 1.0


def test_criterion_2_sphere_carries_a_parameter_family():
    P = surface(2, 2, 2)
    report = class_report(P)
    (entry,) = report.classes
    assert entry["count"] == "InfiniteFamily"
    for lam in (gq(0), gq(1), gq(-1), gq(2), I, gq(1, 1)):
        desc = LndDescriptor(kind="t2d", c=(1, 1, 1), roles=(0, 1, 2), param=lam)
        delta = build_lnd(P, desc)
        assert is_well_defined(delta).ok
        assert nilpotency_check(delta, cap=64).verified
        invariant = (
            Poly.monomial(Monomial({X: 1}), gq(1) - lam * lam)
            + Poly.monomial(Monomial({Y: 1}), -I * (gq(1) + lam * lam))
            + Poly.monomial(Monomial({Z: 1}), gq(2) * lam)
        )
        assert kernel_member(delta, invariant)


def test_criterion_3_root_families_and_their_derivations():
    for gamma in (2, 3, 4, 5):
        cone = gamma_cone(gamma)
        fam1 = demazure_roots(cone, 1)
        fam2 = demazure_roots(cone, 2)
        for p in range(1, 7):
            assert fam1.root(p) == (-1, p)
            assert fam2.root(p) == (gamma * p - 1, -p)
        assert not fam1.contains((0, 1))
        assert not fam2.contains((gamma - 1, 1))
        # each first-ray root materializes as the closed-form derivation
        # times a power of the kernel element -2(ix + y)
        delta0 = case_b_pair(gamma)[0][1]
        v = poly_parse("i*T0_1 + T1_1")
        for p in (1, 2, 3):
            td = toric_derivation(gamma, 1, p)
            assert td.xyz == replica(delta0, (gq(-2) * v) ** (p - 1))


def test_criterion_4_semirigid_and_rigid_type1_examples():
    P = type1(((3,), (1, 2)))
    assert not is_rigid(P).rigid
    semi = is_semirigid(P)
    assert semi.semirigid and semi.clause == "makar_limanov"
    ml = makar_limanov(P)
    assert ml.status == "computed"
    assert ml.generators == (tvar(2, 2),)
    base = build_lnd_type1(P, (1, 1))
    instances = enumerate_lnds(P)
    assert instances
    for inst in instances:
        assert nilpotency_check(inst.derivation).verified
        # each emitted derivation is the base one times a kernel element
        factor = scalar_multiple_of(inst.derivation, base)
        assert factor is not None
        assert inst.derivation == replica(base, Poly.constant(factor))
    # multiplying by the invariant generator stays locally nilpotent
    shifted = replica(base, Poly.generator(tvar(2, 2)))
    assert is_well_defined(shifted).ok
    assert nilpotency_check(shifted).verified

    R = type1(((2, 3), (2, 5)))
    assert is_rigid(R).rigid
    oracle = oracle_enumerate(R, degree_bound=4)
    assert not oracle.nilpotent_found


def test_criterion_5_every_corpus_derivation_verifies():
    members = corpus()
    assert len(members) >= 50
    assert {P.kind for P in members} == {1, 2}
    checked = 0
    for P in members:
        grading = weight_assignment(P)
        for inst in enumerate_lnds(P):
            assert inst.error is None, f"{P.describe()}: {inst.error}"
            delta = inst.derivation
            assert is_well_defined(delta).ok
            derivation_degree(delta, grading)
            assert nilpotency_check(delta).verified
            for g in kernel_generators(P, inst.descriptor):
                assert kernel_member(delta, g)
            checked += 1
    assert checked > len(members)


def test_criterion_6_rigidity_matches_the_linear_algebra_oracle():
    mismatches = []
    for P in corpus():
        rigid = is_rigid(P).rigid
        found = oracle_enumerate(P, degree_bound=4).nilpotent_found
        # a rigid member must yield no nilpotent solution, and vice versa
        if rigid == found:
            mismatches.append(P.describe())
    assert not mismatches


def test_criterion_7_randomized_ring_checks_hold_a_thousand_times():
    P = surface(2, 2, 3)
    rules = P.rewrite_rules
    gens = P.generators
    delta = build_lnd(
        P, LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I)
    )
    rng = random.Random(87251)
    pool = [gq(0), gq(1), gq(-1), gq(2), I, -I, gq(1, 1), gq(2, -1)]

    def rand_poly():
        p = Poly.zero()
        for _ in range(rng.randint(0, 3)):
            exps = {g: rng.randint(0, 3) for g in gens}
            m = Monomial({g: e for g, e in exps.items() if e})
            p = p + Poly.monomial(m, rng.choice(pool))
        return p

    for _ in range(1000):
        p, q = rand_poly(), rand_poly()
        assert normal_form(p * q, P) == normal_form(
            normal_form(p, P) * normal_form(q, P), P
        )
    for _ in range(1000):
        p, q = rand_poly(), rand_poly()
        lhs = delta.apply(p * q)
        rhs = delta.apply(p) * q + p * delta.apply(q)
        assert normal_form(lhs - rhs, P).is_zero()
    for _ in range(1000):
        p = rand_poly()
        assert normal_form(p, P) == stepwise_normal_form(p, rules)


def test_criterion_8_inhomogeneous_multiples_decompose_into_nilpotent_parts():
    # an LND times a sum of kernel elements of different weights is no
    # longer homogeneous; its extreme graded pieces must stay LNDs
    tested = 0
    for P in corpus():
        if tested >= 20:
            break
        grading = weight_assignment(P)
        for inst in enumerate_lnds(P):
            if inst.derivation is None or tested >= 20:
                continue
            gens = kernel_generators(P, inst.descriptor)
            pick = None
            for g in gens:
                if weight_of(g, grading) != grading.zero():
                    pick = g
                    break
            if pick is None:
                continue
            mixed = replica(inst.derivation, Poly.constant(1) + pick)
            parts = decompose(mixed, grading)
            assert len(parts) >= 2
            lowest = parts[0][1]
            highest = parts[-1][1]
            assert nilpotency_check(lowest).verified
            assert nilpotency_check(highest).verified
            tested += 1
    assert tested == 20
