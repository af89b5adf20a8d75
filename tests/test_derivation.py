import os
import subprocess
import sys
from pathlib import Path

import pytest

from trilnd.classify import LndDescriptor, build_lnd_type2
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
    replica,
)
from trilnd.gaussian import I, gq
from trilnd.grading import weight_assignment
from trilnd.poly import Poly, UnknownGenerator, poly_parse, svar, tvar
from trilnd.presentation import surface, type1

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
    assert left == d.presentation.normal_form(right)


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


def test_nilpotency_inconclusive_on_euler():
    S = surface(2, 2, 2)
    euler = Derivation(S, {g: Poly.generator(g) for g in S.generators})
    report = nilpotency_check(euler, cap=12)
    assert report.status == "inconclusive"
    assert report.witness == X
    assert report.guard == "cap"
    assert not report.verified


def test_nilpotency_size_guard_bails_out():
    S = surface(2, 2, 2)
    grower = Derivation(S, {X: poly_parse("T0_1^2")})
    report = nilpotency_check(grower, cap=64, degree_limit=10)
    assert report.status == "inconclusive"
    assert report.guard == "degree_limit"


def test_index_equal_to_the_cap_is_verified():
    # delta_zero(3) has index 4, and T0_1, the first generator, needs all four
    assert nilpotency_check(delta_zero(3), cap=4) == NilpotencyReport(
        status="verified", cap=4, index=4
    )
    assert nilpotency_check(delta_zero(3), cap=3) == NilpotencyReport(
        status="inconclusive", cap=3, witness=X, guard="cap"
    )


def test_degree_limit_trips_on_the_first_iterate_above_it():
    # delta^k(T0_1) = k! * T0_1^(k+1): the first iterate of degree 11
    # is the tenth, so a cap of 10 stops one step before the guard would
    grower = Derivation(surface(2, 2, 2), {X: poly_parse("T0_1^2")})
    assert nilpotency_check(grower, cap=11, degree_limit=10) == NilpotencyReport(
        status="inconclusive", cap=11, witness=X, guard="degree_limit"
    )
    assert nilpotency_check(grower, cap=10, degree_limit=10).guard == "cap"
    assert nilpotency_check(grower, cap=11, degree_limit=11).guard == "cap"


def test_term_limit_trips_on_the_first_iterate_above_it():
    # the iterates of S1 have 2, 3, 5, 6, 9, ... terms: the fourth is the
    # first with more than five
    P = type1(((2,), (3,)), d=2)
    grower = derivation_from_text(P, "S1 = S1^2 + S2\nS2 = S1\n")
    assert nilpotency_check(grower, cap=5, term_limit=5) == NilpotencyReport(
        status="inconclusive", cap=5, witness=svar(1), guard="term_limit"
    )
    assert nilpotency_check(grower, cap=4, term_limit=5).guard == "cap"
    assert nilpotency_check(grower, cap=5, term_limit=6).guard == "cap"


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
        assert r.image(g) == d.presentation.normal_form(d.image(g) * h)
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
