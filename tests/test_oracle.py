import copy
import math
import pickle
import random
from pathlib import Path

import pytest

import trilnd.oracle
from trilnd.classify import LndDescriptor, build_lnd, enumerate_lnds
from trilnd.corpus import corpus
from trilnd.derivation import (
    Derivation,
    NilpotencyReport,
    is_well_defined,
    nilpotency_check,
    refutation_holds,
)
from trilnd.gaussian import ONE, ZERO, I, InvalidArgument, gq
from trilnd.grading import weight_assignment
from trilnd.oracle import (
    _MAX_BOX_MONOMIALS,
    BoxTooLarge,
    _box_by_weight,
    induced_weight_box,
    oracle_enumerate,
    reduced_monomials,
    solution_space,
)
from trilnd.poly import (
    Monomial,
    Poly,
    RewriteEngine,
    normal_form,
    pack,
    poly_parse,
    tvar,
    unpack,
)
from trilnd.presentation import TrinomialPresentation, surface, type1, type2

X = tvar(0, 1)
Y = tvar(1, 1)
Z = tvar(2, 1)


def test_solution_space_degree_one_sphere():
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    # nine unknown coefficients: three generators times (1, x, y, z) minus
    # the images that cannot carry weight zero
    assert len(sp.unknowns) == 9
    assert sp.dimension == 4
    assert len(sp.basis) == 4
    for delta in sp.basis:
        from trilnd.derivation import is_well_defined

        assert is_well_defined(delta).ok
    # spaces solved the same way compare equal
    assert solution_space(P, (0,), degree_bound=1) == sp


def test_solution_space_contains_classifier_output():
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    d0 = build_lnd(P, LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I))
    assert sp.contains(d0)
    coords = sp.coordinates_of(d0)
    assert coords is not None
    assert len(coords) == len(sp.unknowns)
    assert any(coords)


def test_solution_space_contains_euler():
    # the diagonal derivation is linear of weight zero, so it must show up
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    euler = Derivation(P, {g: Poly.generator(g) for g in P.generators})
    assert sp.contains(euler)


def test_coordinates_outside_the_box():
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    cubic = Derivation(P, {tvar(0, 1): poly_parse("T2_1^3")})
    assert sp.coordinates_of(cubic) is None
    assert not sp.contains(cubic)


def test_a_derivation_on_other_generators_has_no_coordinates():
    # coordinates are read off packed keys, which are over the generators
    # of the derivation's own presentation
    P = surface(2, 2, 2)
    sp = solution_space(P, (0,), degree_bound=1)
    images = {g: Poly.generator(g) for g in P.generators}
    assert sp.coordinates_of(Derivation(surface(2, 2, 2), images)) is not None
    assert sp.coordinates_of(Derivation(surface(2, 2, 2, d=1), images)) is None


def test_solution_space_unknown_guard():
    with pytest.raises(BoxTooLarge):
        solution_space(surface(2, 2, 2), (0,), degree_bound=4, max_unknowns=1)


def test_induced_weight_box():
    assert induced_weight_box(surface(2, 2, 2)) == ((0,),)
    assert induced_weight_box(surface(2, 2, 4)) == ((0,), (4,))
    assert induced_weight_box(type1(((3,), (1, 2)))) == ((0,), (2,))


def test_oracle_finds_sphere_lnds():
    rep = oracle_enumerate(surface(2, 2, 2), degree_bound=1)
    assert rep.nilpotent_found
    (entry,) = rep.entries
    assert entry.weight == (0,)
    assert entry.dimension == 4
    assert entry.nilpotent_found
    # every classifier output lands inside the solved space
    assert entry.classifier_members
    assert all(in_span for _, in_span in entry.classifier_members)


def test_oracle_on_rigid_member():
    rep = oracle_enumerate(type1(((2, 3), (4,))), degree_bound=2)
    assert not rep.nilpotent_found
    for entry in rep.entries:
        assert not entry.nilpotent_found


def test_oracle_guards(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(trilnd.oracle, "_MAX_WEIGHTS", 0)
        with pytest.raises(BoxTooLarge):
            oracle_enumerate(surface(2, 2, 2))
    with pytest.raises(BoxTooLarge):
        oracle_enumerate(surface(2, 2, 2), max_unknowns=2)


def test_box_size_is_checked_before_the_box_is_built(monkeypatch):
    def never(*args):
        raise AssertionError("the box was enumerated")

    monkeypatch.setattr(trilnd.oracle, "reduced_monomials", never)
    # the box is enumerated as keys, by the engine
    monkeypatch.setattr(RewriteEngine, "box", never)
    P = type1(((1, 1, 1), (1, 1, 1)))
    # C(6 + 12, 6) = 18,564 monomials fit; C(6 + 13, 6) = 27,132 do not
    assert math.comb(18, 6) <= _MAX_BOX_MONOMIALS < math.comb(19, 6)
    with pytest.raises(BoxTooLarge, match="27132 monomials"):
        solution_space(P, (0, 0, 0, 0), degree_bound=13)
    with pytest.raises(BoxTooLarge):
        oracle_enumerate(P, degree_bound=13)
    with pytest.raises(AssertionError, match="enumerated"):
        solution_space(P, (0, 0, 0, 0), degree_bound=12)
    # the cross-checks run far below the limit
    largest = max(math.comb(len(Q.generators) + 4, 4) for Q in corpus())
    assert largest * 100 < _MAX_BOX_MONOMIALS


def test_report_serialization():
    rep = oracle_enumerate(surface(2, 2, 2), degree_bound=1)
    d = rep.to_dict()
    assert list(d.keys()) == [
        "presentation",
        "degree_bound",
        "cap",
        "weight_basis",
        "nilpotent_found",
        "entries",
    ]
    assert d["weight_basis"] == ["e"]
    (entry,) = d["entries"]
    assert entry["weight"] == [0]
    assert entry["weight_label"] == "0"
    assert entry["dimension"] == 4
    assert entry["nilpotent_found"] is True
    sample_names = [s["name"] for s in entry["samples"]]
    assert "basis[0]" in sample_names
    verified = [s for s in entry["samples"] if s["nilpotency"] == "verified"]
    assert verified
    assert all(s["index"] is not None and s["witness"] is None for s in verified)
    # 31 samples: 12 verified, 10 refuted by divisibility, 9 by a cycle
    assert len(entry["samples"]) == 31
    assert len(verified) == 12
    assert entry["refuted_samples"] == 19
    assert entry["inconclusive_samples"] == 0
    by_name = {s["name"]: s for s in entry["samples"]}
    assert by_name["basis[0]"] == {
        "name": "basis[0]",
        "images": {"T0_1": "-T1_1", "T1_1": "T0_1"},
        "nilpotency": "refuted",
        "index": None,
        "witness": "T0_1",
        "refutation": "degree_cycle",
        "cycle": [
            {"from": "T0_1", "step": 1, "to": "T1_1", "exponent": 1},
            {"from": "T1_1", "step": 1, "to": "T0_1", "exponent": 1},
        ],
    }
    assert by_name["basis[3]"] == {
        "name": "basis[3]",
        "images": {"T0_1": "T0_1", "T1_1": "T1_1", "T2_1": "T2_1"},
        "nilpotency": "refuted",
        "index": None,
        "witness": "T0_1",
        "refutation": "divisibility",
    }


def test_explicit_weight_list():
    P = surface(2, 2, 4)
    rep = oracle_enumerate(P, weights=[(4,)], degree_bound=2)
    assert [e.weight for e in rep.entries] == [(4,)]
    assert rep.nilpotent_found


def test_combination_sampling_finds_hidden_lnd():
    # no single basis vector of the weight-zero space is nilpotent, but a
    # complex combination is; the sampler must surface one
    rep = oracle_enumerate(surface(2, 2, 2), degree_bound=1)
    (entry,) = rep.entries
    basis = {name: report for name, _, report in entry.samples[: entry.dimension]}
    # each of the three rotations swaps two generators, a degree cycle; the
    # Euler derivation is refuted by divisibility
    def cycle(a, b):
        return NilpotencyReport(
            status="refuted",
            cap=16,
            witness=a,
            refutation="degree_cycle",
            cycle=((a, 1, b, 1), (b, 1, a, 1)),
        )

    assert basis == {
        "basis[0]": cycle(X, Y),
        "basis[1]": cycle(X, Z),
        "basis[2]": cycle(Y, Z),
        "basis[3]": NilpotencyReport(
            status="refuted", cap=16, witness=X, refutation="divisibility"
        ),
    }
    combo_hits = [
        s
        for s in entry.samples
        if not s[0].startswith("classifier:") and s[2].status == "verified"
    ]
    assert combo_hits


def test_weight_without_unknowns_gives_an_empty_entry():
    rep = oracle_enumerate(surface(2, 2, 3), weights=[(100,)], degree_bound=2)
    (entry,) = rep.entries
    assert entry.unknown_count == 0
    assert entry.dimension == 0
    assert entry.samples == []


def test_cap_below_one_and_negative_degree_bound_are_rejected():
    P = type1(((2,), (3,), (4,), (2,)))
    with pytest.raises(ValueError):
        oracle_enumerate(P, cap=0)
    with pytest.raises(ValueError):
        oracle_enumerate(P, degree_bound=-3)
    with pytest.raises(ValueError):
        solution_space(P, (0,), degree_bound=-1)
    # a negative limit is an invalid argument, not a box that is too large
    with pytest.raises(ValueError):
        oracle_enumerate(P, max_unknowns=-1)
    with pytest.raises(ValueError):
        solution_space(P, (0,), max_unknowns=-1)


def test_contains_checks_the_reduced_constraints():
    rng = random.Random(8017)
    pool = [gq(1), gq(-2), I, gq(1, -1), gq(3, 2) / 5]
    broken = 0
    for P in corpus():
        outputs = [
            inst.derivation
            for inst in enumerate_lnds(P)
            if inst.derivation is not None and not inst.derivation.is_zero()
        ]
        for w in induced_weight_box(P):
            space = solution_space(P, w, degree_bound=4)
            for delta in space.basis:
                assert space.contains(delta)
            combos = [Derivation(P, {})]
            for _ in range(3):
                if space.basis:
                    picked = rng.sample(space.basis, min(3, len(space.basis)))
                    combos.append(sum((d * rng.choice(pool) for d in picked[1:]), picked[0]))
            for delta in combos:
                assert space.contains(delta)
            # one more monomial in one image: contained exactly when that
            # monomial alone is a derivation of the presentation
            for g, m in rng.sample(space.unknowns, min(6, len(space.unknowns))):
                extra = Derivation(P, {g: Poly.monomial(m)})
                ok = is_well_defined(extra).ok
                broken += not ok
                assert space.contains(rng.choice(combos) + extra) == ok
            for delta in outputs:
                expected = space.coordinates_of(delta) is not None and is_well_defined(delta).ok
                assert space.contains(delta) == expected
    assert broken


def reference_loop(delta, cap):
    """nilpotency_check without the divisibility refutation: the dense
    iteration alone, with the default size guards."""
    images, _ = delta.packed()
    n = len(delta.presentation.generators)
    worst = 1
    for g in delta.presentation.generators:
        p = images.get(g)
        steps = 1
        while p:
            guard = None
            if steps >= cap:
                guard = "cap"
            elif len(p) > 4096:
                guard = "term_limit"
            elif max(sum(unpack(m, n)) for m in p) > 512:
                guard = "degree_limit"
            if guard is not None:
                return NilpotencyReport(status="inconclusive", cap=cap, witness=g, guard=guard)
            p = delta.step(p)
            steps += 1
        worst = max(worst, steps)
    return NilpotencyReport(status="verified", cap=cap, index=worst)


def test_criterion_6_refutes_exactly_the_certified_samples_the_loop_leaves_open():
    # the samples of the rigidity cross-check (degree bound 4, cap 16): a
    # sample is refuted by divisibility exactly when the plain iteration
    # does not verify it and some generator certifies divisibility; a
    # degree cycle is re-checked and the plain iteration does not verify
    # it either; every other verdict, index, witness and guard is the
    # plain iteration's
    counts = {"verified": 0, "divisibility": 0, "degree_cycle": 0, "inconclusive": 0}
    for P in corpus():
        for entry in oracle_enumerate(P, degree_bound=4, cap=16).entries:
            for name, delta, report in entry.samples:
                counts[report.refutation or report.status] += 1
                reference = reference_loop(delta, cap=16)
                if report.refutation == "degree_cycle":
                    assert refutation_holds(delta, report), (P.describe(), name)
                    assert not reference.verified, (P.describe(), name)
                    continue
                certified = [
                    g
                    for g in P.generators
                    if refutation_holds(
                        delta,
                        NilpotencyReport(
                            status="refuted", cap=16, witness=g, refutation="divisibility"
                        ),
                    )
                ]
                if report.status == "refuted":
                    assert not reference.verified, (P.describe(), name)
                    assert refutation_holds(delta, report)
                    assert report.witness == certified[0]
                else:
                    assert not certified, (P.describe(), name)
                    assert report == reference, (P.describe(), name)
    # at this commit: 1,899 samples, of which the plain iteration verifies
    # 547 and leaves 1,352 at the cap; divisibility decides 1,044 of those
    # and a degree cycle 257
    assert counts == {"verified": 547, "divisibility": 1044, "degree_cycle": 257, "inconclusive": 51}


SAMPLE_INPUTS = sorted((Path(__file__).resolve().parents[1] / "sample_inputs").glob("*.json"))


def exponent_vectors(n, bound):
    """Every exponent vector of length n with total degree at most bound."""
    if n == 0:
        yield ()
        return
    for e in range(bound + 1):
        for rest in exponent_vectors(n - 1, bound - e):
            yield (e,) + rest


def test_key_box_matches_brute_force():
    # every exponent vector up to the bound, minus those a rewrite lead
    # divides, grouped by weight and sorted in Monomial order
    presentations = list(corpus())
    presentations += [TrinomialPresentation.from_json(p.read_text()) for p in SAMPLE_INPUTS]
    for P in presentations:
        grading = weight_assignment(P)
        leads = list(P.rewrite_rules)
        for bound in range(6):
            monomials = sorted(
                m
                for m in (
                    Monomial(zip(P.generators, exps))
                    for exps in exponent_vectors(len(P.generators), bound)
                )
                if not any(lead.divides(m) for lead in leads)
            )
            want: dict = {}
            for m in monomials:
                want.setdefault(grading.weight_of_monomial(m), []).append(
                    pack(m.pairs, P.generator_index)
                )
            box = _box_by_weight(P, bound)
            assert box == want, (P.describe(), bound)
            assert reduced_monomials(P, bound) == monomials, (P.describe(), bound)


def test_dense_samples_match_their_derivation_views():
    # each sample is packed only; its Poly view must be the named
    # combination of the basis, in normal form, inside the space, with the
    # verdict the packed view got
    for P in corpus():
        for entry in oracle_enumerate(P, degree_bound=4, cap=16).entries:
            space = solution_space(P, entry.weight, degree_bound=4)
            basis = space.basis
            # the basis of the reduced row echelon form: 1 at its own free
            # coordinate, the largest of its support, and 0 at the others
            coordinates = [space.coordinates_of(delta) for delta in basis]
            free = [max(k for k, c in enumerate(vec) if c) for vec in coordinates]
            for vec, own in zip(coordinates, free):
                assert [vec[k] for k in free] == [ONE if k == own else ZERO for k in free]
            reference = {f"basis[{k}]": delta for k, delta in enumerate(basis)}
            head = basis[: trilnd.oracle._MAX_COMBO_BASIS]
            for a in range(len(head)):
                for b in range(a + 1, len(head)):
                    reference[f"basis[{a}]+basis[{b}]"] = head[a] + head[b]
                    reference[f"basis[{a}]-basis[{b}]"] = head[a] + head[b] * -1
                    reference[f"basis[{a}]+i*basis[{b}]"] = head[a] + head[b] * I
            names = [name for name, _, _ in entry.samples if not name.startswith("classifier:")]
            assert names == list(reference)
            for name, delta, report in entry.samples[: len(names)]:
                assert delta == reference[name], (P.describe(), name)
                assert type(delta) is Derivation
                assert all(normal_form(img, P) == img for img in delta.images.values())
                assert space.contains(delta)
                assert nilpotency_check(delta, cap=16) == report, (P.describe(), name)


def test_a_repeated_or_wrong_length_weight_is_rejected_before_any_search(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(trilnd.oracle, "solution_space", never)
    monkeypatch.setattr(RewriteEngine, "box", never)
    P = surface(2, 2, 2)
    with pytest.raises(InvalidArgument, match=r"weight \[0\] is repeated"):
        oracle_enumerate(P, weights=[(0,), (0,)], degree_bound=1)
    with pytest.raises(InvalidArgument, match=r"weight \[4\] is repeated"):
        oracle_enumerate(P, weights=[[4], (0,), (4,)], degree_bound=1)
    with pytest.raises(InvalidArgument, match="weight must have 1 components"):
        oracle_enumerate(P, weights=[(0,), (1, 2)], degree_bound=1)


def test_oracle_derivations_copy_and_pickle():
    P = surface(2, 2, 2)
    (entry,) = oracle_enumerate(P, weights=[(0,)], degree_bound=1).entries
    space = solution_space(P, (0,), degree_bound=1)
    # a classifier output whose packed view is checked and stepped
    output = enumerate_lnds(P, expand=False)[0].derivation
    assert nilpotency_check(output).verified
    for delta in [*space.basis, *(sample for _, sample, _ in entry.samples), output]:
        assert copy.copy(delta) == delta
        assert copy.deepcopy(delta) == delta
        assert pickle.loads(pickle.dumps(delta)) == delta
    assert pickle.loads(pickle.dumps(output)).well_defined


def test_the_oracle_builds_no_poly_image_it_does_not_print(monkeypatch):
    # every sample is packed only, nilpotent_found reads no Poly image,
    # and printing the report writes the images off their keys, so it
    # builds none either; the report reads as one whose samples were
    # never counted
    built = []
    poly = RewriteEngine.poly

    def counted(engine, terms, scale):
        built.append(terms)
        return poly(engine, terms, scale)

    samples = 0
    for P in corpus()[:6]:
        monkeypatch.setattr(RewriteEngine, "poly", counted)
        report = oracle_enumerate(P, degree_bound=4)
        samples += sum(len(entry.samples) for entry in report.entries)
        assert built == [], P.describe()
        printed = report.to_dict()
        assert built == [], P.describe()
        built.clear()
        monkeypatch.undo()
        assert printed == oracle_enumerate(P, degree_bound=4).to_dict()
    assert samples


def test_every_sample_marked_well_defined_is_well_defined(monkeypatch):
    # the oracle hands nilpotency_check Derivations marked well defined,
    # which skips the relation check before the certificate; a fresh
    # Derivation of the same images is checked here
    marked = []
    check = trilnd.oracle.nilpotency_check

    def spy(sample, cap):
        if sample.well_defined:
            marked.append(sample)
        return check(sample, cap=cap)

    monkeypatch.setattr(trilnd.oracle, "nilpotency_check", spy)
    for P in corpus():
        oracle_enumerate(P, degree_bound=3)
    assert len(marked) > 1000
    assert all(is_well_defined(Derivation(d.presentation, d.images)).ok for d in marked)
