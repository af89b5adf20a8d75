import pytest

from trilnd.classify import LndDescriptor, NeedsNormalization, build_lnd_type2, enumerate_lnds
from trilnd.corpus import corpus, unnormalized_member
from trilnd.gaussian import I


def test_corpus_size_and_mix():
    members = corpus()
    assert len(members) == 55
    kinds = [P.kind for P in members]
    assert kinds.count(1) == 25
    assert kinds.count(2) == 30
    # type 1 members come first so indices are stable across runs
    assert kinds == sorted(kinds)


def test_corpus_structural_bounds():
    for P in corpus():
        assert P.r0 <= 4
        assert all(len(block) <= 3 for block in P.blocks)
        assert all(l <= 4 for block in P.blocks for l in block)
        assert P.d <= 2


def test_corpus_members_are_distinct():
    members = corpus()
    assert len(set(members)) == len(members)


def test_corpus_members_are_small_enough_for_exhaustive_checks():
    for P in corpus():
        assert P.n + P.d <= 5


def test_corpus_classifier_images_fit_the_oracle_degree_box():
    # the oracle's default image degree bound is 4; an output above it
    # would be invisible to the rigidity cross-check
    for P in corpus():
        for inst in enumerate_lnds(P):
            if inst.derivation is None:
                continue
            for img in inst.derivation.images.values():
                assert img.degree() <= 4, P.describe()


def test_unnormalized_member_is_kept_outside():
    P = unnormalized_member()
    assert P not in corpus()
    desc = LndDescriptor(kind="t2c", c=(1, 1, 1), roles=(0, 1, 2), param=I)
    with pytest.raises(NeedsNormalization):
        build_lnd_type2(P, desc)
