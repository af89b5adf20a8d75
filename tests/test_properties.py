"""Randomized algebra checks.

The deterministic tests freeze specific values; these ones attack the
ring axioms, normal forms, and the classifier from random directions.
"""

import contextlib
import functools
import io
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm
from pathlib import Path

from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from trilnd.classify import (
    LndDescriptor,
    admissible_tuples,
    build_lnd,
    class_plan,
    enumerate_lnds,
    kernel_generators,
)
from trilnd.cli import _descriptor_from_json, main
from trilnd.corpus import corpus, rescaled_members
from trilnd.derivation import (
    Derivation,
    NilpotencyReport,
    derivation_from_text,
    derivation_to_text,
    is_well_defined,
    kernel_member,
    nilpotency_check,
    refutation_holds,
    replica,
)
from trilnd.gaussian import I, ONE, ZERO, GaussianRational, gq, gq_format
from trilnd.grading import weight_assignment, weight_of
from trilnd.oracle import _nullspace, _rref, oracle_enumerate
from trilnd.poly import (
    Monomial,
    Poly,
    dense_terms,
    gen_name,
    normal_form,
    pack,
    packed_terms,
    poly_parse,
    stepwise_normal_form,
    summed_terms,
    svar,
)
from trilnd.presentation import PresentationError, TrinomialPresentation, surface, type2
from trilnd.toric import Cone2D, demazure_roots, gamma_cone, toric_derivation

SPHERE = surface(2, 2, 2)
UNEVEN = type2(((2,), (2,), (3,)))

SCALARS = st.sampled_from(
    [gq(0), gq(1), gq(-1), gq(2), gq(-3), I, -I, gq(1, 1), gq(-1, 2), gq(1, -2)]
)
# rational and non-unit Gaussian coefficients, for the dense form's scaling
FRACTIONAL_SCALARS = st.sampled_from(
    [gq(1), -I, gq(Fraction(1, 2)), gq(Fraction(-2, 3)), gq(2, 1), gq(Fraction(1, 3), -2), gq(0, 3)]
)
CORPUS = corpus()


def monomials(gens, max_exp=3):
    pools = [st.integers(min_value=0, max_value=max_exp) for _ in gens]
    return st.tuples(*pools).map(
        lambda exps: Monomial({g: e for g, e in zip(gens, exps) if e})
    )


def polys(presentation, max_terms=4, max_exp=3, scalars=SCALARS):
    term = st.tuples(scalars, monomials(presentation.generators, max_exp))
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: sum(
            (Poly.monomial(m, c) for c, m in terms), start=Poly.zero()
        )
    )


# -- normal form is a ring map onto the reduced representatives ---------------


@settings(max_examples=250, deadline=None)
@given(polys(SPHERE), polys(SPHERE))
def test_normal_form_is_multiplicative(p, q):
    lhs = normal_form(p * q, SPHERE)
    rhs = normal_form(normal_form(p, SPHERE) * normal_form(q, SPHERE), SPHERE)
    assert lhs == rhs


@settings(max_examples=250, deadline=None)
@given(polys(UNEVEN), polys(UNEVEN))
def test_normal_form_is_additive(p, q):
    assert normal_form(p + q, UNEVEN) == normal_form(p, UNEVEN) + normal_form(q, UNEVEN)


# the only corpus member whose rules have a denominator: its rule scale is 2
HALVED = next(P for P in CORPUS if P.describe() == "type2[(1),(2),(2),(2)]d0")


@settings(max_examples=250, deadline=None)
@given(
    st.one_of(
        polys(UNEVEN, max_exp=4).map(lambda p: (UNEVEN, p)),
        polys(HALVED, max_exp=4, scalars=FRACTIONAL_SCALARS).map(lambda p: (HALVED, p)),
    )
)
def test_rewrite_strategies_agree(sample):
    # on HALVED the input's own denominators and the rule scale to the
    # power of up to four rewrites both divide the dense result
    P, p = sample
    assert normal_form(p, P) == stepwise_normal_form(p, P.rewrite_rules)


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_normal_form_returns_an_irreducible_input_itself(data):
    P = data.draw(st.sampled_from(CORPUS))
    rules = P.rewrite_rules
    p = data.draw(polys(P, max_exp=4))
    if data.draw(st.booleans()):
        p = stepwise_normal_form(p, rules)
    nf = normal_form(p, P)
    assert nf == stepwise_normal_form(p, rules)
    irreducible = not any(lead.divides(m) for m in p.terms for lead in rules)
    assert (nf is p) == irreducible


@settings(max_examples=250, deadline=None)
@given(polys(SPHERE), polys(SPHERE))
def test_ring_subtraction_cancels(p, q):
    assert (p + q) - q == p


# -- the one merger of terms ---------------------------------------------------

# free-variable monomials are in normal form, so a derivation keeps them as read
FREE = surface(2, 2, 2, d=2)
FREE_KEYS = [Monomial(), Monomial({svar(1): 1}), Monomial({svar(1): 2, svar(2): 1}), Monomial({svar(2): 3})]
PARTS = st.tuples(
    st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-2, 3)]), st.sampled_from([0, 1, -1, 2])
)


@st.composite
def term_streams(draw):
    """(key position, (re, im)) pairs over FREE_KEYS, with zeros and repeats,
    and one key's sum cancelled, then that key added again."""
    pair = st.tuples(st.integers(0, len(FREE_KEYS) - 1), PARTS)
    stream = draw(st.lists(pair, max_size=8))
    k = draw(st.integers(0, len(FREE_KEYS) - 1))
    total = [sum(c[part] for j, c in stream if j == k) for part in (0, 1)]
    stream += [(k, (-total[0], -total[1])), (k, draw(PARTS))]
    return stream + draw(st.lists(pair, max_size=8))


def reference_sum(stream):
    """{key position: (re, im)} of the nonzero sums over Fractions, ordered by
    the term at which each key's running sum last left zero."""
    totals, entered = {}, {}
    for pos, (k, c) in enumerate(stream):
        t = totals.get(k, (0, 0))
        if t == (0, 0) and c != (0, 0):
            entered[k] = pos
        totals[k] = (t[0] + c[0], t[1] + c[1])
    live = [k for k, t in totals.items() if t != (0, 0)]
    return {k: totals[k] for k in sorted(live, key=entered.get)}


@settings(max_examples=300, deadline=None)
@given(term_streams(), st.booleans())
def test_summed_terms_adds_up_a_term_stream(stream, packed):
    index = FREE.generator_index
    keys = [pack(m.pairs, index) for m in FREE_KEYS] if packed else FREE_KEYS
    got = summed_terms((keys[k], gq(*c)) for k, c in stream)
    assert all(got.values())
    fractions = [(key, (Fraction(a, d), Fraction(b, d))) for key, c in got.items() for a, b, d in [c._abd]]
    assert fractions == [(keys[k], t) for k, t in reference_sum(stream).items()]
    # every reader of Q(i) terms sums them as summed_terms does
    pairs = [(FREE_KEYS[k], gq(*c)) for k, c in stream]
    want = list(summed_terms(pairs).items())
    assert list(Poly(pairs).terms.items()) == want
    text = " + ".join(f"({gq_format(c)})*{m}" for m, c in pairs)
    assert list(poly_parse(text).terms.items()) == want
    g = svar(1)
    images, scale = derivation_from_text(FREE, f"{gen_name(g)} = {text}").packed()
    assert [(key, GaussianRational._of(a, b, scale)) for key, (a, b) in images.get(g, {}).items()] == [
        (pack(m.pairs, index), c) for m, c in want
    ]


@settings(max_examples=200, deadline=None)
@given(polys(SPHERE), polys(SPHERE))
def test_derivation_satisfies_leibniz(p, q):
    delta = build_lnd(
        SPHERE, LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I)
    )
    lhs = delta.apply(p * q)
    rhs = delta.apply(p) * q + p * delta.apply(q)
    assert normal_form(lhs - rhs, SPHERE).is_zero()


# -- the dense form of a derivation agrees with Derivation.apply ---------------


@functools.cache
def classifier_lnds(P):
    return [
        inst.derivation
        for inst in enumerate_lnds(P)
        if inst.derivation is not None and not inst.derivation.is_zero()
    ]


def with_constants(draw, P):
    """P with drawn constants, so that the rewrite rules have denominators."""
    size = len(P.blocks)
    if P.kind == 1:
        constants = draw(st.lists(FRACTIONAL_SCALARS, min_size=size, max_size=size, unique=True))
    else:
        column = st.tuples(FRACTIONAL_SCALARS, FRACTIONAL_SCALARS)
        constants = draw(st.lists(column, min_size=size, max_size=size))
    try:
        return TrinomialPresentation(P.kind, P.blocks, tuple(constants), P.d, P.anchors)
    except PresentationError:
        assume(False)


@st.composite
def corpus_derivations(draw):
    """A classifier output times a scalar, or random images (rarely nilpotent)
    on a corpus member, possibly with other constants."""
    P = draw(st.sampled_from(CORPUS))
    lnds = classifier_lnds(P)
    if lnds and draw(st.booleans()):
        return draw(st.sampled_from(lnds)) * draw(FRACTIONAL_SCALARS)
    if draw(st.booleans()):
        P = with_constants(draw, P)
    gens = draw(st.lists(st.sampled_from(P.generators), unique=True, max_size=3))
    images = {
        g: draw(polys(P, max_terms=3, max_exp=2, scalars=FRACTIONAL_SCALARS)) for g in gens
    }
    return Derivation(P, images)


def gaussian_product(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dense_step_is_apply_up_to_a_scalar(data):
    delta = data.draw(corpus_derivations())
    P = delta.presentation
    p = data.draw(polys(P, scalars=FRACTIONAL_SCALARS))
    _, (terms,) = dense_terms([packed_terms(p, P.generator_index)])
    got = delta.step(terms)
    exact = delta.apply(p)
    _, (want,) = dense_terms([packed_terms(exact, P.generator_index)])
    assert got.keys() == want.keys()
    if got:
        m0 = next(iter(got))
        for m in got:
            assert gaussian_product(got[m], want[m0]) == gaussian_product(got[m0], want[m])
    assert kernel_member(delta, p) == exact.is_zero()
    assert is_well_defined(delta).ok == all(delta.apply(rel).is_zero() for rel in P.relations())


def apply_loop(delta, cap):
    """The plain iteration of every generator to the cap, computed with
    Derivation.apply, with no refutation and no size guard."""
    worst = 1
    for g in delta.presentation.generators:
        p = delta.image(g)
        steps = 1
        while p:
            if steps >= cap:
                return ("inconclusive", None, g, "cap")
            p = delta.apply(p)
            steps += 1
        worst = max(worst, steps)
    return ("verified", worst, None, None)


@functools.cache
def oracle_samples():
    """The nonzero samples of the oracle over the corpus at degree bound 3:
    well defined, and verified, refuted and open ones alike."""
    return [
        delta
        for P in CORPUS
        for entry in oracle_enumerate(P, degree_bound=3).entries
        for _, delta, _ in entry.samples
        if not delta.is_zero()
    ]


@st.composite
def checked_derivations(draw):
    """A draw of corpus_derivations, or an oracle sample times a scalar."""
    if draw(st.booleans()):
        return draw(st.sampled_from(oracle_samples())) * draw(FRACTIONAL_SCALARS)
    return draw(corpus_derivations())


@settings(max_examples=200, deadline=None)
@given(
    checked_derivations(),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=12),
)
def test_nilpotency_check_matches_an_apply_loop(delta, cap, term_limit, degree_limit):
    report = nilpotency_check(delta, cap=cap, term_limit=term_limit, degree_limit=degree_limit)
    if not is_well_defined(delta).ok:
        # no derivation of A, so there is nothing to decide
        assert report == NilpotencyReport(status="not_applicable", cap=cap)
        return
    # --hypothesis-show-statistics counts the well-defined draws by verdict
    event(f"well defined, {report.refutation or report.status}")
    unguarded = apply_loop(delta, cap)
    if report.verified:
        assert unguarded == ("verified", report.index, None, None)
    elif report.status == "refuted" or report.guard == "cap":
        assert unguarded[0] != "verified"
        assert report.status != "refuted" or refutation_holds(delta, report)
    if unguarded[0] == "verified":
        assert report.verified or report.guard in ("term_limit", "degree_limit")


@functools.cache
def kernel_pool():
    """(delta, its kernel generators) for every nonzero classifier output on
    the corpus and the rescaled members whose kernel list is not empty; the
    lists hold kernel_extra's polynomial for t2b, t2c and t2d."""
    out = []
    for P in (*CORPUS, *rescaled_members()):
        for inst in enumerate_lnds(P):
            if inst.derivation is not None and not inst.derivation.is_zero():
                kernel = kernel_generators(P, inst.descriptor)
                if kernel:
                    out.append((inst.derivation, tuple(kernel)))
    return out


@st.composite
def replicas(draw):
    """A classifier output delta and h, a nonconstant product of one or two
    sums of its kernel generators, with a scalar."""
    delta, kernel = draw(st.sampled_from(kernel_pool()))
    h = Poly.constant(draw(FRACTIONAL_SCALARS))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        summands = draw(st.lists(st.sampled_from(kernel), min_size=1, max_size=2))
        h = h * sum(summands, Poly.constant(draw(st.sampled_from([0, 1]))))
    return delta, h


@settings(max_examples=100, deadline=None)
@given(replicas())
def test_replicas_verify_with_the_index_of_their_derivation(case):
    delta, h = case
    twin = replica(delta, h)
    report = nilpotency_check(twin)
    assert report.verified and report.index == nilpotency_check(delta).index
    assert apply_loop(twin, report.cap) == ("verified", report.index, None, None)


@st.composite
def derivation_pairs(draw):
    """Two derivations on one corpus member, some on drawn constants."""
    A = draw(corpus_derivations())
    P = A.presentation
    lnds = classifier_lnds(P)
    if lnds and draw(st.booleans()):
        return A, draw(st.sampled_from(lnds)) * draw(FRACTIONAL_SCALARS)
    gens = draw(st.lists(st.sampled_from(P.generators), unique=True, max_size=3))
    images = {
        g: draw(polys(P, max_terms=3, max_exp=2, scalars=FRACTIONAL_SCALARS)) for g in gens
    }
    return A, Derivation(P, images)


@settings(max_examples=100, deadline=None)
@given(derivation_pairs())
def test_shared_reductions_do_not_depend_on_the_order_of_checks(pair):
    P = pair[0].presentation

    def verdicts(order):
        fresh = TrinomialPresentation(P.kind, P.blocks, P.constants, P.d, P.anchors)
        out = {}
        for k in order:
            delta = Derivation(fresh, pair[k].images)
            report = nilpotency_check(delta, cap=10, term_limit=200, degree_limit=20)
            out[k] = (report, is_well_defined(delta))
        return out

    assert verdicts([0, 1]) == verdicts([1, 0])


# -- fraction-free elimination agrees with Gauss-Jordan over Q(i) ---------------


def reference_rref(rows, ncols):
    """Gauss-Jordan over GaussianRational; returns (nonzero rows, pivot columns)."""
    r = 0
    pivots = []
    for c in range(ncols):
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                f = rows[k][c]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def reference_nullspace(rows, ncols):
    reduced, pivots = reference_rref([list(r) for r in rows], ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for ridx, pc in enumerate(pivots):
            vec[pc] = -reduced[ridx][fc]
        basis.append(vec)
    return basis


MATRIX_ENTRIES = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b: gq(Fraction(a, b)), st.integers(-9, 9), st.integers(1, 6)),
    st.builds(
        lambda a, b, c: gq(Fraction(a, c), Fraction(b, c)),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(1, 6),
    ),
)


@st.composite
def matrices(draw):
    """Up to 12 x 12, with rational, Gaussian and zero entries and some
    duplicated or dependent rows."""
    ncols = draw(st.integers(min_value=1, max_value=12))
    row = st.lists(MATRIX_ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(min_value=0, max_value=12 - len(rows)))):
        if not rows:
            break
        a = draw(st.sampled_from(rows))
        b = draw(st.sampled_from(rows))
        ca, cb = draw(SCALARS), draw(SCALARS)
        rows.append([ca * x + cb * y for x, y in zip(a, b)])
    return ncols, draw(st.permutations(rows))


def integer_row(row):
    """The row times the least positive integer that clears its denominators."""
    s = 1
    for x in row:
        s = lcm(s, x.real.denominator, x.imag.denominator)
    return {c: (int(x.real * s), int(x.imag * s)) for c, x in enumerate(row) if x}


def dense(vectors, ncols):
    return [[v.get(c, ZERO) for c in range(ncols)] for v in vectors]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_fraction_free_elimination_matches_gauss_jordan(matrix):
    ncols, rows = matrix
    want_rows, want_pivots = reference_rref([list(r) for r in rows], ncols)
    reduced, pivots = _rref([integer_row(r) for r in rows], ncols)
    assert pivots == want_pivots
    assert dense(reduced, ncols) == want_rows
    assert dense(_nullspace(reduced, pivots, ncols), ncols) == reference_nullspace(rows, ncols)


# -- scalar field axioms -------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(SCALARS, SCALARS, SCALARS)
def test_gaussian_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + (b + c) == (a + b) + c
    if not b == 0:
        assert (a / b) * b == a


@settings(max_examples=300, deadline=None)
@given(SCALARS)
def test_gaussian_conjugate_norm(a):
    assert a * a.conjugate() == GaussianRational.of(a.norm())


# -- classifier invariances ----------------------------------------------------


def test_counts_survive_block_permutation():
    # shuffling blocks (with matching constants) cannot change the story
    base_blocks = ((2,), (2,), (4,))
    base_cols = ((gq(1), gq(0)), (gq(0), gq(1)), (gq(-1), gq(-1)))
    reference = None
    for perm in itertools.permutations(range(3)):
        blocks = tuple(base_blocks[i] for i in perm)
        cols = tuple(base_cols[i] for i in perm)
        P = type2(blocks, constants=cols)
        infos = admissible_tuples(P)
        signature = sorted((a.case, len(a.labelings)) for a in infos)
        if reference is None:
            reference = signature
        assert signature == reference


def test_enumerated_lnds_verify_across_random_lambdas():
    rng = random.Random(20260815)
    for _ in range(10):
        lam = gq(rng.randint(-5, 5), rng.randint(-5, 5))
        out = enumerate_lnds(SPHERE, lambdas=(lam,))
        for inst in out:
            assert inst.derivation is not None
            assert is_well_defined(inst.derivation).ok
            assert nilpotency_check(inst.derivation).verified


def test_toric_grid_all_verified():
    for gamma in (2, 3, 4, 5, 6):
        for ray in (1, 2):
            for p in (1, 2, 3):
                td = toric_derivation(gamma, ray, p)
                assert is_well_defined(td.xyz).ok
                assert nilpotency_check(td.xyz).verified


def test_random_cones_pair_correctly():
    # every emitted root must pair to -1 against its ray's normal and
    # stay non-negative against the other one
    rng = random.Random(7)
    cones = [gamma_cone(g) for g in (2, 3, 4, 5)]
    while len(cones) < 12:
        a = (rng.randint(-4, 4), rng.randint(-4, 4))
        b = (rng.randint(-4, 4), rng.randint(-4, 4))
        try:
            cones.append(Cone2D(a, b))
        except ValueError:
            continue
    for cone in cones:
        for ray in (1, 2):
            fam = demazure_roots(cone, ray)
            n = fam.normal
            other = fam.other_normal
            for p in range(1, 8):
                e = fam.root(p)
                assert n[0] * e[0] + n[1] * e[1] == -1
                assert other[0] * e[0] + other[1] * e[1] >= 0
                assert fam.contains(e)


# -- corpus-wide structural facts ----------------------------------------------


def test_relations_reduce_to_zero_everywhere():
    for P in corpus():
        for rel in P.relations():
            assert normal_form(rel, P).is_zero()


def test_relations_homogeneous_everywhere():
    for P in corpus():
        grading = weight_assignment(P)
        for rel in P.relations():
            weight_of(rel, grading)


def test_invariant_field_generators_share_weights():
    for P in corpus():
        grading = weight_assignment(P)
        for num, den in P.invariant_field_generators():
            assert weight_of(num, grading) == weight_of(den, grading)


def test_derivation_text_round_trip_on_emitted_lnds():
    for P in corpus():
        for inst in enumerate_lnds(P):
            if inst.derivation is None:
                continue
            text = derivation_to_text(inst.derivation)
            assert derivation_from_text(P, text) == inst.derivation


SAMPLE_PATHS = sorted((Path(__file__).resolve().parents[1] / "sample_inputs").glob("*.json"))
DESCRIPTOR_KINDS = ("free", "type1", "t2a", "t2b", "t2c", "t2d", "bogus")
DESCRIPTOR_FIELDS = {
    "k": st.integers(min_value=-1, max_value=3),
    "c": st.lists(st.integers(min_value=0, max_value=3), max_size=4),
    "roles": st.lists(st.integers(min_value=-1, max_value=3), max_size=4),
    "param": st.sampled_from(["0", "1", "-1", "2", "i", "-i", "1+i"]),
}


@functools.cache
def plan_descriptors(path):
    """The descriptors of the class plan of a sample, families at
    parameter 1, as descriptor JSON objects; a bare kind for a rigid one."""
    P = TrinomialPresentation.from_json(path.read_text())
    out = []
    for entry in class_plan(P):
        out.extend(desc.to_dict() for _, desc in entry.descriptors)
        if entry.family is not None:
            out.append(replace(entry.family, param=ONE).to_dict())
    return out or [{"kind": "type1"}]


@st.composite
def sample_descriptors(draw):
    """A sample input and descriptor JSON for it: a plan descriptor with
    up to three changes, each a new kind or a field dropped or redrawn."""
    path = draw(st.sampled_from(SAMPLE_PATHS))
    data = dict(draw(st.sampled_from(plan_descriptors(path))))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        name = draw(st.sampled_from(("kind", *DESCRIPTOR_FIELDS)))
        if name == "kind":
            data["kind"] = draw(st.sampled_from(DESCRIPTOR_KINDS))
        elif draw(st.booleans()):
            data.pop(name, None)
        else:
            data[name] = draw(DESCRIPTOR_FIELDS[name])
    return path, json.dumps(data)


def outcome(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(sample_descriptors())
def test_every_descriptor_is_checked_alike_by_build_and_kernel(case):
    """build_lnd and kernel_generators both succeed or raise the same
    exception with the same message, and trilnd kernel, with or without
    --member, exits 0 or 1 with a JSON report."""
    path, text = case
    P = TrinomialPresentation.from_json(path.read_text())
    desc = _descriptor_from_json(text)
    assert outcome(lambda: build_lnd(P, desc)) == outcome(lambda: kernel_generators(P, desc))
    argv = ["kernel", "--presentation", str(path), "--descriptor", text]
    for extra in ([], ["--member", gen_name(P.generators[0])]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv + extra)
        rep = json.loads(out.getvalue())
        assert code == 0 and "kernel" in rep or code == 1 and set(rep) == {"error", "kind"}
