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
from functools import cached_property
from math import prod
from operator import sub
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

    @cached_property
    def sparse(self) -> dict:
        """Each generator's weight as the (basis index, value) pairs of its
        nonzero components: a block variable has at most its block's
        size of them, plus one for type 2."""
        return {g: tuple((k, c) for k, c in enumerate(w) if c) for g, w in self.weights.items()}

    def weight_of_monomial(self, m: Monomial) -> Weight:
        total = [0] * self.rank
        sparse = self.sparse
        for g, e in m.pairs:
            for k, c in sparse[g]:
                total[k] += c * e
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
    """Build the canonical grading of a presentation; P.grading holds it.

    In block i with exponents l and anchor b, T_ij for j != b gets
    prod(l) / l_j on its own basis vector, and T_ib gets -prod(l) / l_b
    on each of the block's vectors, plus, for type 2, the product of the
    other blocks' anchor exponents on e; S_k gets its own vector.
    """
    labels = ["e"] if P.kind == 2 else []
    blocks = [(i, exps, P.anchor(i)) for i, exps in zip(P.block_numbers, P.blocks)]
    anchors = prod(exps[b - 1] for _, exps, b in blocks)
    entries = {}  # generator -> (basis index, value) of each nonzero component
    for i, exps, b in blocks:
        first = len(labels)
        labels += [f"e{i}_{j}" for j in range(1, len(exps) + 1) if j != b]
        total = prod(exps)
        for j, e in enumerate(exps, start=1):
            if j != b:
                entries[tvar(i, j)] = ((first + j - 1 - (j > b), total // e),)
                continue
            own = ((0, anchors // e),) if P.kind == 2 else ()
            entries[tvar(i, j)] = own + tuple((k, -total // e) for k in range(first, len(labels)))
    for k in range(1, P.d + 1):
        entries[svar(k)] = ((len(labels), 1),)
        labels.append(f"e{k}")
    weights = {}
    for g, pairs in entries.items():
        vec = [0] * len(labels)
        for k, c in pairs:
            vec[k] = c
        weights[g] = tuple(vec)
    return Grading(basis_labels=tuple(labels), weights=weights)


def weight_of(p: Poly, grading: Grading) -> Weight:
    """The common weight of all terms; NonHomogeneous otherwise."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no weight")
    return _common_weight(p.terms, grading.weight_of_monomial)


def _common_weight(terms, weigh, monomial=None) -> Weight:
    """The weight weigh(t) of every term t, in order; NonHomogeneous names
    the first term and the first other one, monomial(t) if given."""
    seen = first = None
    for t in terms:
        w = weigh(t)
        if seen is None:
            seen, first = w, t
        elif w != seen:
            a, b = (first, t) if monomial is None else (monomial(first), monomial(t))
            raise NonHomogeneous(
                f"mixed weights: {a} has {seen}, {b} has {w}",
                witnesses=((a, seen), (b, w)),
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

    Each term's weight is read off its packed key through the
    presentation's engine, and a term becomes a Monomial only in a
    NonHomogeneous message. A Derivation stores only nonzero images; the
    zero derivation has no degree and raises ZeroDerivation, a ValueError.
    """
    engine = delta.presentation.engine
    sparse, rank = grading.sparse, grading.rank
    degree = None
    for g, terms in delta.packed()[0].items():
        weight = _common_weight(terms, lambda key: engine.weight(key, sparse, rank), engine.monomial)
        shift = tuple(map(sub, weight, grading.weights[g]))
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
