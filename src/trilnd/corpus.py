"""A fixed corpus of presentations for sweep tests and cross-checks.

Every entry stays inside the soundness bounds (at most four blocks, at
most three variables per block, exponents at most 4, at most two free
variables). All but one use the default constants; the exception is
documented next to its columns. A deliberately unnormalized
presentation, whose coefficient ratio has no square root in Q(i), is
kept outside the corpus proper as ``unnormalized_member``; it exercises
the NeedsNormalization path but would defeat the rigid-vs-nilpotent
cross-check, since its rational forms miss the derivations that exist
over the closure.
"""

from __future__ import annotations

from functools import lru_cache

from .gaussian import gq
from .presentation import TrinomialPresentation, type1, type2

_TYPE1 = (
    (((1,), (1,)), 0),
    (((2,), (2,)), 0),
    (((2,), (3,)), 0),
    (((3,), (1, 2)), 0),
    (((2, 3), (4,)), 0),
    (((1, 2), (2,)), 0),
    (((1, 1), (2,)), 0),
    (((2, 2), (3,)), 0),
    (((1, 2, 2), (2,)), 0),
    (((2,), (2,), (2,)), 0),
    (((1,), (2,), (3,)), 0),
    (((2,), (1, 2), (3,)), 0),
    (((1, 1), (2,), (2, 2)), 0),
    (((3,), (3,), (3,)), 0),
    (((1, 2), (1, 2)), 0),
    (((4,), (2, 3)), 0),
    (((2,), (3,), (4,), (2,)), 0),
    (((1,), (2, 2), (3,)), 0),
    (((2,), (2,)), 1),
    (((3,), (1, 2)), 1),
    (((2, 3), (2,)), 1),
    (((1, 2), (3,)), 2),
    (((2,), (3,)), 2),
    (((2, 2), (2, 2)), 0),
    (((1, 3), (2, 2), (4,)), 0),
)

_TYPE2 = (
    (((1,), (1,), (1,)), 0),
    (((2,), (2,), (2,)), 0),
    (((2,), (2,), (3,)), 0),
    (((2,), (2,), (4,)), 0),
    (((1,), (2,), (2,)), 0),
    (((1,), (2,), (3,)), 0),
    (((2,), (3,), (4,)), 0),
    (((3,), (3,), (3,)), 0),
    (((2,), (2,), (2, 2)), 0),
    (((1, 1), (2,), (2,)), 0),
    (((1, 2), (2,), (3,)), 0),
    (((2,), (2,), (3,)), 1),
    (((2,), (2,), (2,)), 1),
    (((3,), (2,), (2,)), 0),
    (((2, 2), (2,), (2,)), 0),
    (((4,), (2,), (2,)), 0),
    (((2,), (4,), (2,)), 0),
    (((1,), (1,), (2,)), 0),
    (((1,), (3,), (3,)), 0),
    (((2,), (2,), (3,), (2,)), 0),
    (((2,), (2,), (2,), (1,)), 0),
    (((1,), (2,), (2,), (2,)), 0),
    (((1,), (1,), (2,), (2,)), 0),
    (((1, 2), (1, 2), (2,)), 0),
    (((2,), (2,), (2,)), 2),
    (((1,), (2,), (4,)), 0),
    (((1, 1, 1), (2,), (2,)), 0),
    (((2,), (3,), (3,)), 0),
    (((4,), (4,), (2,)), 0),
    (((2, 2), (2, 2), (2,)), 0),
)

# With four blocks and the exponent-1 block first, the parameter family
# lives on the last three columns, and the default fourth column makes
# their minor ratio 1/2: no square root in Q(i). These columns keep all
# the relevant minors at +-1 so the family materializes.
_CUSTOM_COLUMNS = {
    ((1,), (2,), (2,), (2,)): (
        (gq(1), gq(-2)),
        (gq(1), gq(0)),
        (gq(0), gq(1)),
        (gq(-1), gq(-1)),
    ),
}


def unnormalized_member() -> TrinomialPresentation:
    """The deliberately unnormalized entry: its only case B labeling has
    coefficient ratio 1/2, which is not a square in Q(i)."""
    return type2(
        ((2,), (2,), (4,)),
        constants=((gq(1), gq(0)), (gq(0), gq(1)), (gq(-2), gq(-1))),
    )


@lru_cache(maxsize=1)
def rescaled_members():
    """Type 2 presentations whose t2c and t2d roots are not all 1 (sb = 2,
    i and 3/2), kept outside corpus(): every corpus member uses the
    standard columns, where sb = sc = 1, so the corpus alone cannot see a
    formula that drops or misplaces a root."""
    return (
        type2(((2,), (2,), (2,)), constants=((1, 0), (0, 1), (1, 4))),
        type2(((2, 4), (2,), (2, 2)), constants=((1, 0), (0, 1), (1, -1))),
        type2(((2,), (2,), (2,), (1, 1)), constants=((1, 0), (0, 1), (4, 9), (1, 2))),
    )


@lru_cache(maxsize=1)
def corpus():
    """The full fixed corpus, type 1 entries first."""
    members = [type1(blocks, d=d) for blocks, d in _TYPE1]
    members.extend(
        type2(blocks, constants=_CUSTOM_COLUMNS.get(blocks), d=d)
        for blocks, d in _TYPE2
    )
    return tuple(members)

