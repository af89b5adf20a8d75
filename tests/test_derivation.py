import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from trilnd.classify import LndDescriptor, build_lnd_type2, enumerate_lnds
from trilnd.corpus import corpus
from trilnd.derivation import (
    Derivation,
    DerivationFormatError,
    NilpotencyReport,
    NotInKernel,
    decompose,
    derivation_from_text,
    derivation_to_text,
    is_well_defined,
    kernel_member,
    nilpotency_check,
    refutation_holds,
    replica,
)
from trilnd.gaussian import I, gq
from trilnd.grading import weight_assignment
from trilnd.poly import Poly, UnknownGenerator, normal_form, poly_parse, svar, tvar
from trilnd.presentation import TrinomialPresentation, surface, type1

X = tvar(0, 1)
Y = tvar(1, 1)
Z = tvar(2, 1)


def delta_zero(gamma):
    return build_lnd_type2(
        surface(2, 2, gamma),
        LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I),
    )


def delta_inf(gamma):
    return build_lnd_type2(
        surface(2, 2, gamma),
        LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=-I),
    )


def test_images_are_stored_in_normal_form():
    S = surface(2, 2, 2)
    d = Derivation(S, {X: poly_parse("T2_1^2")})
    assert d.image(X) == poly_parse("-T0_1^2 - T1_1^2")
    assert d.image(Y).is_zero()
    assert not d.is_zero()
    assert Derivation(S, {}).is_zero()


def test_constructor_rejects_foreign_generators():
    S = surface(2, 2, 2)
    with pytest.raises(UnknownGenerator):
        Derivation(S, {tvar(5, 1): Poly.constant(1)})
    with pytest.raises(UnknownGenerator):
        Derivation(S, {X: Poly.generator(svar(1))})


def test_foreign_generator_is_rejected_even_when_it_cancels():
    # on T1_1^2 - T2_1^2 - 1 the rule T2_1^2 -> T1_1^2 - 1 reduces the
    # image to zero; the foreign S5 must still be named
    P = type1(((2,), (2,)))
    image = poly_parse("T2_1^2 - T1_1^2 + 1") * Poly.generator(svar(5))
    assert normal_form(image, type1(((2,), (2,)), d=5)).is_zero()
    with pytest.raises(UnknownGenerator, match="^image of T1_1 uses foreign generator S5$"):
        Derivation(P, {tvar(1, 1): image})
    with pytest.raises(UnknownGenerator, match="^S5 is not a generator of this presentation$"):
        normal_form(image, P)
    d = Derivation(P, {tvar(1, 1): Poly.generator(tvar(2, 1))})
    with pytest.raises(UnknownGenerator, match="^S5 is not"):
        d.apply(image)
    with pytest.raises(UnknownGenerator, match="^S5 is not"):
        kernel_member(d, image)


def test_foreign_generator_named_independently_of_hashing():
    # the first foreign generator in the image's term order is named,
    # whatever order string hashing gives a set of generators
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "from trilnd import Derivation, poly_parse, surface, tvar\n"
        "try:\n"
        "    Derivation(surface(2, 2, 2), {tvar(0, 1): poly_parse('T7_1 + S3')})\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "image of T0_1 uses foreign generator T7_1", seed


def test_apply_leibniz_on_products():
    d = delta_zero(2)
    a = poly_parse("T0_1*T1_1")
    b = poly_parse("T2_1^2 + T0_1")
    left = d.apply(a * b)
    right = d.apply(a) * b + a * d.apply(b)
    assert left == normal_form(right, d.presentation)


def test_apply_rejects_foreign_polynomial():
    d = delta_zero(2)
    with pytest.raises(UnknownGenerator):
        d.apply(Poly.generator(svar(1)))
    # the first foreign generator in term order is named
    with pytest.raises(UnknownGenerator, match="^S3 is not"):
        d.apply(poly_parse("S3 + T7_1*S9"))


def test_derivation_sum_and_scale():
    S = surface(2, 2, 2)
    d1 = Derivation(S, {X: Poly.constant(1)})
    d2 = Derivation(S, {X: Poly.constant(2), Y: Poly.constant(1)})
    total = d1 + d2
    assert total.image(X) == Poly.constant(3)
    assert total.image(Y) == Poly.constant(1)
    assert (d1 * gq(4)).image(X) == Poly.constant(4)
    assert (2 * d1).image(X) == Poly.constant(2)
    with pytest.raises(ValueError):
        d1 + Derivation(surface(2, 2, 3), {X: Poly.constant(1)})


def test_well_definedness_verdicts():
    S = surface(2, 2, 2)
    good = delta_zero(2)
    assert is_well_defined(good).ok
    bad = Derivation(S, {X: Poly.constant(1)})
    report = is_well_defined(bad)
    assert not report.ok
    assert report.relation_index == 0
    assert report.residue == poly_parse("2*T0_1")


def test_nilpotency_verified_with_index():
    report = nilpotency_check(delta_zero(3))
    assert report.verified
    assert report.index == 4
    assert report.guard is None
    P = type1(((2,), (3,)), d=1)
    d = Derivation(P, {svar(1): Poly.constant(1)})
    report = nilpotency_check(d)
    assert report.verified
    assert report.index == 2


def free_grower(extra=""):
    """S1 -> S2^2, S2 -> S1 on free variables: no image is divisible by its
    generator, but each chain needs the other's, a degree cycle."""
    P = type1(((2,), (3,)), d=3)
    return derivation_from_text(P, "S1 = S2^2\nS2 = S1\n" + extra)


def plain_grower(extra=""):
    """S1 -> S1^2 + S2, S2 -> 1 on free variables, well defined: no iterate
    of S1 has a monomial factor, so nilpotency_check steps the plain
    iterates, of degrees 2, 3, 4, ... and 2, 3, 4, 5, 7, 8, 10, ... terms."""
    P = type1(((2,), (3,)), d=3)
    return derivation_from_text(P, "S1 = S1^2 + S2\nS2 = 1\n" + extra)


def test_nilpotency_refutes_euler_by_divisibility():
    # the Euler derivation maps every generator to itself: T0_1 divides
    # delta(T0_1) = T0_1, which an LND of a domain allows only when it is 0
    S = surface(2, 2, 2)
    euler = Derivation(S, {g: Poly.generator(g) for g in S.generators})
    report = nilpotency_check(euler, cap=12)
    assert report == NilpotencyReport(
        status="refuted", cap=12, witness=X, refutation="divisibility"
    )
    assert not report.verified
    assert refutation_holds(euler, report)


def test_nilpotency_size_guard_bails_out():
    assert nilpotency_check(plain_grower(), cap=64, degree_limit=10) == NilpotencyReport(
        status="inconclusive", cap=64, witness=svar(1), guard="degree_limit"
    )
    # delta^k(S1) = k! * S1^(k+1) grows without bound too, but the
    # divisibility test decides it before any guard can trip
    grower = Derivation(type1(((2,), (3,)), d=1), {svar(1): poly_parse("S1^2")})
    report = nilpotency_check(grower, cap=64, degree_limit=1)
    assert report == NilpotencyReport(
        status="refuted", cap=64, witness=svar(1), refutation="divisibility"
    )
    assert refutation_holds(grower, report)


def test_refutation_scans_every_generator_before_iterating():
    # S1 alone would run to the cap; S3 -> S3^2 is refutable, and is found
    # although S1 comes first
    assert nilpotency_check(plain_grower(), cap=20) == NilpotencyReport(
        status="inconclusive", cap=20, witness=svar(1), guard="cap"
    )
    delta = plain_grower("S3 = S3^2\n")
    report = nilpotency_check(delta, cap=20)
    assert report == NilpotencyReport(
        status="refuted", cap=20, witness=svar(3), refutation="divisibility"
    )
    assert refutation_holds(delta, report)


def test_refutation_needs_every_term_divisible():
    # one term of delta(S1) free of S1 leaves it undecided by divisibility
    P = type1(((2,), (3,)), d=2)
    delta = derivation_from_text(P, "S1 = S1^2 + S1*S2\nS2 = 1\n")
    assert nilpotency_check(delta, cap=8).status == "refuted"
    mixed = derivation_from_text(P, "S1 = S1^2 + S2\nS2 = 1\n")
    assert nilpotency_check(mixed, cap=8).status == "inconclusive"
    forged = NilpotencyReport(
        status="refuted", cap=8, witness=svar(1), refutation="divisibility"
    )
    assert not refutation_holds(mixed, forged)


def test_refutation_holds_rejects_other_reports():
    d = delta_zero(3)
    verified = nilpotency_check(d)
    assert verified.verified
    assert not refutation_holds(d, verified)
    # an LND passes no forged certificate, whatever the witness
    for g in d.presentation.generators:
        forged = NilpotencyReport(status="refuted", cap=64, witness=g, refutation="divisibility")
        assert not refutation_holds(d, forged)
    # a generator with zero image certifies nothing
    euler_x = Derivation(surface(2, 2, 2), {X: Poly.generator(X)})
    forged = NilpotencyReport(status="refuted", cap=64, witness=Y, refutation="divisibility")
    assert not refutation_holds(euler_x, forged)
    inconclusive = nilpotency_check(plain_grower(), cap=5)
    assert inconclusive.guard == "cap"
    assert not refutation_holds(plain_grower(), inconclusive)


def test_index_equal_to_the_cap_is_verified():
    # delta_zero(3) has index 4, and T0_1, the first generator, needs all four
    assert nilpotency_check(delta_zero(3), cap=4) == NilpotencyReport(
        status="verified", cap=4, index=4
    )
    assert nilpotency_check(delta_zero(3), cap=3) == NilpotencyReport(
        status="inconclusive", cap=3, witness=X, guard="cap"
    )


def test_degree_limit_trips_on_the_first_iterate_above_it():
    # the k-th iterate of S1 has degree k + 1: the first of degree 6 is the
    # fifth, so a cap of 5 stops one step before the guard would
    grower = plain_grower()
    assert nilpotency_check(grower, cap=6, degree_limit=5) == NilpotencyReport(
        status="inconclusive", cap=6, witness=svar(1), guard="degree_limit"
    )
    assert nilpotency_check(grower, cap=5, degree_limit=5).guard == "cap"
    assert nilpotency_check(grower, cap=6, degree_limit=6).guard == "cap"


def test_term_limit_trips_on_the_first_iterate_above_it():
    # the iterates of S1 have 2, 3, 4, 5, 7, ... terms: the fifth is the
    # first with more than five
    grower = plain_grower()
    assert nilpotency_check(grower, cap=6, term_limit=5) == NilpotencyReport(
        status="inconclusive", cap=6, witness=svar(1), guard="term_limit"
    )
    assert nilpotency_check(grower, cap=5, term_limit=5).guard == "cap"
    assert nilpotency_check(grower, cap=6, term_limit=7).guard == "cap"


def test_a_cycle_of_free_images_is_refuted():
    # delta(S1) = S2 and delta(S2) = S1 is well defined, and each chain
    # needs the other at its first step: nu(S1) > nu(S2) > nu(S1)
    P = type1(((2,), (3,)), d=2)
    S1, S2 = svar(1), svar(2)
    delta = Derivation(P, {S1: Poly.generator(S2), S2: Poly.generator(S1)})
    assert is_well_defined(delta).ok
    report = nilpotency_check(delta)
    assert report == NilpotencyReport(
        status="refuted",
        cap=64,
        witness=S1,
        refutation="degree_cycle",
        cycle=((S1, 1, S2, 1), (S2, 1, S1, 1)),
    )
    assert refutation_holds(delta, report)
    # free_grower's S1 needs S2^2, S2 needs S1, whatever the cap
    for cap in (2, 5, 64):
        report = nilpotency_check(free_grower(), cap=cap)
        assert report.cycle == ((S1, 1, S2, 2), (S2, 1, S1, 1))
        assert refutation_holds(free_grower(), report)


def test_a_self_loop_past_the_first_step_is_refuted():
    # delta(S1) = S1^2 + S2 has no monomial factor, but delta of it is
    # S1 * (2*S1^2 + 2*S2 + 1): S1's chain needs S1 at its second step
    P = type1(((2,), (3,)), d=2)
    delta = derivation_from_text(P, "S1 = S1^2 + S2\nS2 = S1\n")
    report = nilpotency_check(delta, cap=5)
    assert report == NilpotencyReport(
        status="refuted",
        cap=5,
        witness=svar(1),
        refutation="degree_cycle",
        cycle=((svar(1), 2, svar(1), 1),),
    )
    assert refutation_holds(delta, report)


def test_a_long_chain_is_walked_without_recursion():
    # S_k -> S_(k+1), S_1200 -> 1: nu(S_k) = 1201 - k, so S1's chain is
    # 1,200 generators deep
    n = 1200
    P = type1(((2,), (3,)), d=n)
    text = "".join(f"S{k} = S{k + 1}\n" for k in range(1, n)) + f"S{n} = 1\n"
    delta = derivation_from_text(P, text)
    assert nilpotency_check(delta) == NilpotencyReport(
        status="inconclusive", cap=64, witness=svar(1), guard="cap"
    )
    assert nilpotency_check(delta, cap=2000) == NilpotencyReport(
        status="verified", cap=2000, index=n + 1
    )


def test_refutation_holds_rejects_forged_cycles():
    P = type1(((2,), (3,)), d=2)
    S1, S2 = svar(1), svar(2)
    delta = derivation_from_text(P, "S1 = S2^2\nS2 = S1\n")
    report = nilpotency_check(delta)
    assert report.cycle == ((S1, 1, S2, 2), (S2, 1, S1, 1))
    assert refutation_holds(delta, report)

    def forged(cycle, witness=S1):
        return NilpotencyReport(
            status="refuted", cap=64, witness=witness, refutation="degree_cycle", cycle=cycle
        )

    # a smaller exponent still bounds nu(S1) below, so it still refutes
    assert refutation_holds(delta, forged(((S1, 1, S2, 1), (S2, 1, S1, 1))))
    for cycle in (
        ((S1, 2, S2, 2), (S2, 1, S1, 1)),  # wrong step: S2^2 strips to 1
        ((S1, 1, S2, 3), (S2, 1, S1, 1)),  # wrong exponent
        ((S1, 1, S2, 2), (S2, 1, S2, 1)),  # wrong target
        ((S1, 1, S2, 2), (S2, 1, S1, 0)),  # no power
        ((S1, 1, S2, 2),),  # an open path
        ((S2, 1, S1, 1), (S1, 1, S2, 2)),  # a cycle, but not from the witness
        (),
    ):
        assert not refutation_holds(delta, forged(cycle)), cycle
    assert not refutation_holds(delta, replace(report, refutation="divisibility"))
    assert not refutation_holds(delta, replace(report, status="inconclusive"))
    # an LND has no cycle, whatever the edges
    d = delta_zero(3)
    for cycle in (((X, 1, Y, 1), (Y, 1, X, 1)), ((X, 1, X, 1),), ((X, 2, Z, 1), (Z, 1, X, 1))):
        assert not refutation_holds(d, forged(cycle, witness=cycle[0][0])), cycle


def test_a_map_that_is_not_well_defined_reads_not_applicable():
    # T0_1 -> 1 on the sphere breaks the relation, and T0_1 -> T0_1 would be
    # refuted by divisibility on a derivation of A
    S = surface(2, 2, 2)
    for text in ("T0_1 = 1\n", "T0_1 = T0_1\n"):
        delta = derivation_from_text(S, text)
        assert not is_well_defined(delta).ok
        assert nilpotency_check(delta, cap=8) == NilpotencyReport(status="not_applicable", cap=8)


def test_nilpotency_cap_validation():
    with pytest.raises(ValueError):
        nilpotency_check(delta_zero(2), cap=0)


def test_kernel_member():
    d = delta_inf(3)
    assert kernel_member(d, poly_parse("i*T0_1 - T1_1"))
    assert not kernel_member(d, Poly.generator(Z))
    d0 = delta_zero(3)
    assert kernel_member(d0, poly_parse("i*T0_1 + T1_1"))


def test_replica_multiplies_images():
    d = delta_zero(3)
    h = poly_parse("i*T0_1 + T1_1")
    r = replica(d, h)
    for g in d.presentation.generators:
        assert r.image(g) == normal_form(d.image(g) * h, d.presentation)
    with pytest.raises(NotInKernel):
        replica(d, Poly.generator(Z))


def test_replica_accepts_scalars():
    d = delta_zero(2)
    assert replica(d, 3) == d * 3


def test_decompose_splits_by_degree():
    P = type1(((2,), (3,)), d=2)
    g = weight_assignment(P)
    d = Derivation(P, {svar(2): Poly.constant(1) + Poly.generator(svar(1))})
    parts = decompose(d, g)
    assert [w for w, _ in parts] == [(0, -1), (1, -1)]
    for _, comp in parts:
        assert nilpotency_check(comp).verified
    # the parts sum back to the original
    total = parts[0][1]
    for _, comp in parts[1:]:
        total = total + comp
    assert total == d


def test_decompose_homogeneous_is_identity():
    d = delta_zero(3)
    g = weight_assignment(d.presentation)
    parts = decompose(d, g)
    assert len(parts) == 1
    assert parts[0][1] == d


def test_text_round_trip():
    d = delta_zero(3)
    text = derivation_to_text(d)
    assert derivation_from_text(d.presentation, text) == d
    zero = Derivation(surface(2, 2, 2), {})
    assert derivation_to_text(zero) == ""
    assert derivation_from_text(surface(2, 2, 2), "").is_zero()


def test_text_format_accepts_comments():
    S = surface(2, 2, 2)
    text = "# a comment\n\nT0_1 = 2i*T2_1\n"
    d = derivation_from_text(S, text)
    assert d.image(X) == poly_parse("2i*T2_1")


def test_text_format_errors():
    S = surface(2, 2, 2)
    with pytest.raises(DerivationFormatError):
        derivation_from_text(S, "T0_1 2i")
    with pytest.raises(DerivationFormatError):
        derivation_from_text(S, "T0_1 = 1\nT0_1 = 2")
    with pytest.raises(DerivationFormatError):
        derivation_from_text(S, "Q9 = 1")
    with pytest.raises(UnknownGenerator):
        derivation_from_text(S, "S1 = 1")
    with pytest.raises(DerivationFormatError):
        derivation_from_text(S, "T0_1 = ")


def test_equality_ignores_presentation_identity():
    d1 = delta_zero(2)
    d2 = build_lnd_type2(
        surface(2, 2, 2),
        LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I),
    )
    assert d1 == d2
    assert hash(d1) == hash(d2)


def test_no_classifier_output_is_refuted():
    # every classifier output is an LND, so no generator may certify a
    # divisibility refutation, and each one verifies
    samples = Path(__file__).resolve().parents[1] / "sample_inputs"
    presentations = [
        *corpus(),
        *(TrinomialPresentation.from_json(path.read_text()) for path in sorted(samples.glob("*.json"))),
    ]
    assert len(presentations) == 60
    checked = 0
    for P in presentations:
        for inst in enumerate_lnds(P):
            if inst.derivation is None:
                continue
            report = nilpotency_check(inst.derivation)
            assert report.verified, (P.describe(), inst.descriptor)
            for g in P.generators:
                forged = NilpotencyReport(
                    status="refuted", cap=64, witness=g, refutation="divisibility"
                )
                assert not refutation_holds(inst.derivation, forged)
            checked += 1
    assert checked > len(presentations)
