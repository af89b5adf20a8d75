"""The finest grading by a lattice under which the relations are homogeneous.

Weights live in Z^(n + d - r). Every block designates an anchor variable
(index b_i, default 1); the non-anchor variables get independent basis
vectors scaled so that the block power T_i^{l_i} has a fixed weight: zero
for type 1, a common vector theta for type 2 (wired through one extra
basis vector that only type 2 has). Free variables get their own basis
vectors.

Basis order: the extra type 2 vector first, then block vectors by
(block, variable index), then free variable vectors. Weight tuples
compare lexicographically in that basis order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Mapping, Tuple

from .poly import Gen, Monomial, Poly, gen_name, svar, tvar
from .presentation import TrinomialPresentation

Weight = Tuple[int, ...]


class NonHomogeneous(ValueError):
    """A polynomial (or derivation) fails to have a single weight."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


class ZeroPolynomial(ValueError):
    """weight_of was asked for the weight of the zero polynomial."""


class ZeroDerivation(ValueError):
    """derivation_degree was asked for the degree of the zero derivation."""


@dataclass(frozen=True)
class Grading:
    basis_labels: Tuple[str, ...]
    weights: Mapping[Gen, Weight]

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def zero(self) -> Weight:
        return (0,) * self.rank

    def weight_of_monomial(self, m: Monomial) -> Weight:
        total = [0] * self.rank
        for g, e in m.pairs:
            w = self.weights[g]
            for idx, comp in enumerate(w):
                total[idx] += comp * e
        return tuple(total)

    def format_weight(self, w: Weight) -> str:
        if all(c == 0 for c in w):
            return "0"
        parts = []
        for label, comp in zip(self.basis_labels, w):
            if comp == 0:
                continue
            if comp == 1:
                piece = label
            elif comp == -1:
                piece = f"-{label}"
            else:
                piece = f"{comp}{label}"
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)


def weight_assignment(P: TrinomialPresentation) -> Grading:
    """Build the canonical grading of a presentation; P.grading holds it."""
    labels = []
    if P.kind == 2:
        labels.append("e")
    block_positions = {}
    for i in P.block_numbers:
        b = P.anchor(i)
        for j in range(1, P.block_size(i) + 1):
            if j == b:
                continue
            block_positions[(i, j)] = len(labels)
            labels.append(f"e{i}_{j}")
    free_positions = {}
    for k in range(1, P.d + 1):
        free_positions[k] = len(labels)
        labels.append(f"e{k}")
    rank = len(labels)

    weights = {}
    for i in P.block_numbers:
        exps = P.exponents(i)
        b = P.anchor(i)
        for j in range(1, len(exps) + 1):
            vec = [0] * rank
            if j != b:
                scale = prod(e for idx, e in enumerate(exps, start=1) if idx != j)
                vec[block_positions[(i, j)]] = scale
            else:
                if P.kind == 2:
                    vec[0] = prod(
                        P.exponents(p)[P.anchor(p) - 1]
                        for p in P.block_numbers
                        if p != i
                    )
                off_scale = prod(e for idx, e in enumerate(exps, start=1) if idx != b)
                for jj in range(1, len(exps) + 1):
                    if jj != b:
                        vec[block_positions[(i, jj)]] = -off_scale
            weights[tvar(i, j)] = tuple(vec)
    for k in range(1, P.d + 1):
        vec = [0] * rank
        vec[free_positions[k]] = 1
        weights[svar(k)] = tuple(vec)
    return Grading(basis_labels=tuple(labels), weights=weights)


def weight_of(p: Poly, grading: Grading) -> Weight:
    """The common weight of all terms; NonHomogeneous otherwise."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no weight")
    seen = None
    witness_first = None
    for m in p.terms:
        w = grading.weight_of_monomial(m)
        if seen is None:
            seen = w
            witness_first = m
        elif w != seen:
            raise NonHomogeneous(
                f"mixed weights: {witness_first} has {seen}, {m} has {w}",
                witnesses=((witness_first, seen), (m, w)),
            )
    return seen


def homogeneous_parts(p: Poly, grading: Grading) -> dict:
    """Split into weight-homogeneous summands, keyed by weight."""
    parts: dict = {}
    for m, c in p.terms.items():
        w = grading.weight_of_monomial(m)
        parts.setdefault(w, []).append((m, c))
    return {w: Poly(items) for w, items in parts.items()}


def derivation_degree(delta, grading: Grading) -> Weight:
    """The common degree shift weight(image) - weight(gen) of a Derivation.

    A Derivation stores only nonzero images; the zero derivation has no
    degree and raises ZeroDerivation, a ValueError.
    """
    degree = None
    for g, img in delta.images.items():
        w_img = weight_of(img, grading)
        w_gen = grading.weights[g]
        shift = tuple(a - b for a, b in zip(w_img, w_gen))
        if degree is None:
            degree = shift
        elif shift != degree:
            raise NonHomogeneous(
                f"derivation degree mismatch: {gen_name(g)} shifts by {shift}, "
                f"earlier generators by {degree}"
            )
    if degree is None:
        raise ZeroDerivation("the zero derivation has no degree")
    return degree
