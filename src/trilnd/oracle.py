"""Brute-force search for homogeneous derivations, independent of the
classification formulas.

For a fixed weight shift w the graded derivations of that degree form a
finite-dimensional vector space once the image degree is capped: the
unknowns are coefficients x_(g, m) of reduced monomials m with
weight(m) = weight(g) + w, and each defining relation imposes linear
constraints because its image must reduce to zero. The solution space
is computed by row reduction over Q(i) with no reference to the
classified constructions, which makes it a useful cross-check: every
classifier output below the degree cap must land inside the span, and
rigid presentations must yield no certified nilpotent element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .classify import enumerate_lnds
from .derivation import Derivation, NilpotencyReport, nilpotency_check
from .gaussian import GaussianRational, I, ONE, ZERO, gq_format
from .grading import Grading, derivation_degree, weight_assignment
from .poly import Monomial, Poly, partial_derivative
from .presentation import TrinomialPresentation


class BoxTooLarge(RuntimeError):
    """The search region exceeds the configured size limits."""


_MAX_COMBO_BASIS = 4


def reduced_monomials(P: TrinomialPresentation, max_degree: int):
    """All normal-form monomials of total degree at most max_degree."""
    gens = P.generators
    leads = tuple(P.rewrite_rules)
    out = []

    def rec(idx, remaining, acc):
        if idx == len(gens):
            m = Monomial(tuple(acc))
            if all(not lead.divides(m) for lead in leads):
                out.append(m)
            return
        g = gens[idx]
        rec(idx + 1, remaining, acc)
        for e in range(1, remaining + 1):
            acc.append((g, e))
            rec(idx + 1, remaining - e, acc)
            acc.pop()

    rec(0, max_degree, [])
    out.sort()
    return out


def _rref(rows: List[List[GaussianRational]], ncols: int):
    """Row-reduce in place; returns (nonzero rows, pivot columns)."""
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


def _nullspace(rows, ncols):
    reduced, pivots = _rref([list(r) for r in rows], ncols)
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


@dataclass
class SolutionSpace:
    """Derivations of one fixed degree, found by linear algebra."""

    presentation: TrinomialPresentation
    weight: Tuple[int, ...]
    degree_bound: int
    unknowns: List[Tuple]  # (generator, monomial) pairs
    dimension: int
    basis: List[Derivation]
    _span_rows: List[List[GaussianRational]] = field(repr=False, default_factory=list)
    _span_pivots: List[int] = field(repr=False, default_factory=list)

    def coordinates_of(self, delta: Derivation):
        """Coefficient vector of a derivation, or None if it uses
        monomials outside the search box."""
        index = {um: k for k, um in enumerate(self.unknowns)}
        vec = [ZERO] * len(self.unknowns)
        for g, img in delta.images.items():
            for m, c in img.terms.items():
                k = index.get((g, m))
                if k is None:
                    return None
                vec[k] = c
        return vec

    def contains(self, delta: Derivation) -> bool:
        vec = self.coordinates_of(delta)
        if vec is None:
            return False
        v = list(vec)
        for row, pc in zip(self._span_rows, self._span_pivots):
            f = v[pc]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return not any(v)


def solution_space(
    P: TrinomialPresentation,
    weight,
    degree_bound: int = 4,
    max_unknowns: int = 600,
    grading: Optional[Grading] = None,
) -> SolutionSpace:
    """Solve for all derivations of the given degree shift whose images
    stay within the degree bound."""
    grading = grading or weight_assignment(P)
    weight = tuple(weight)
    if len(weight) != grading.rank:
        raise ValueError(f"weight must have {grading.rank} components")
    box = reduced_monomials(P, degree_bound)
    by_weight: dict = {}
    for m in box:
        by_weight.setdefault(grading.weight_of_monomial(m), []).append(m)
    unknowns = []
    for g in P.generators:
        target = tuple(a + b for a, b in zip(grading.weights[g], weight))
        for m in by_weight.get(target, ()):
            unknowns.append((g, m))
    if len(unknowns) > max_unknowns:
        raise BoxTooLarge(
            f"{len(unknowns)} unknowns exceed the limit {max_unknowns}; raise "
            "max_unknowns to search anyway"
        )
    rows = []
    for rel in P.relations():
        cells: dict = {}
        for k, (g, m) in enumerate(unknowns):
            contribution = P.normal_form(partial_derivative(rel, g) * Poly.monomial(m))
            for mono, coeff in contribution.terms.items():
                row = cells.get(mono)
                if row is None:
                    row = [ZERO] * len(unknowns)
                    cells[mono] = row
                row[k] = row[k] + coeff
        rows.extend(row for _, row in sorted(cells.items(), key=lambda kv: kv[0]))
    vectors = _nullspace(rows, len(unknowns))
    basis = [_vector_to_derivation(P, unknowns, vec) for vec in vectors]
    span_rows, span_pivots = _rref([list(v) for v in vectors], len(unknowns))
    return SolutionSpace(
        presentation=P,
        weight=weight,
        degree_bound=degree_bound,
        unknowns=unknowns,
        dimension=len(vectors),
        basis=basis,
        _span_rows=span_rows,
        _span_pivots=span_pivots,
    )


def _vector_to_derivation(P, unknowns, vec) -> Derivation:
    images: dict = {}
    for (g, m), c in zip(unknowns, vec):
        if c:
            images.setdefault(g, []).append((m, c))
    return Derivation(P, {g: Poly(items) for g, items in images.items()})


def _classifier_by_degree(P: TrinomialPresentation, lambdas, grading):
    """The classifier's nonzero outputs, grouped by degree shift."""
    by_degree: dict = {}
    for inst in enumerate_lnds(P, lambdas):
        if inst.derivation is None or inst.derivation.is_zero():
            continue
        deg = derivation_degree(inst.derivation, grading)
        by_degree.setdefault(deg, []).append(inst)
    return by_degree


def induced_weight_box(P: TrinomialPresentation, lambdas=None, grading=None):
    """The degree shifts realized by the classifier, plus zero."""
    grading = grading or weight_assignment(P)
    return tuple(sorted({grading.zero(), *_classifier_by_degree(P, lambdas, grading)}))


@dataclass
class OracleWeightEntry:
    weight: Tuple[int, ...]
    unknown_count: int
    dimension: int
    basis: List[Derivation]
    samples: List[Tuple[str, Derivation, NilpotencyReport]]
    nilpotent_found: bool
    inconclusive: int
    classifier_members: List[Tuple[str, bool]]

    def to_dict(self, grading: Grading):
        return {
            "weight": list(self.weight),
            "weight_label": grading.format_weight(self.weight),
            "unknowns": self.unknown_count,
            "dimension": self.dimension,
            "nilpotent_found": self.nilpotent_found,
            "inconclusive_samples": self.inconclusive,
            "samples": [
                {
                    "name": name,
                    "images": delta.image_strings(),
                    "nilpotency": report.status,
                    "index": report.index,
                }
                for name, delta, report in self.samples
            ],
            "classifier_members": [
                {"descriptor": name, "in_span": flag}
                for name, flag in self.classifier_members
            ],
        }


@dataclass
class OracleReport:
    presentation: TrinomialPresentation
    degree_bound: int
    cap: int
    entries: List[OracleWeightEntry]

    @property
    def nilpotent_found(self) -> bool:
        return any(e.nilpotent_found for e in self.entries)

    def to_dict(self):
        grading = weight_assignment(self.presentation)
        return {
            "presentation": self.presentation.to_input_dict(),
            "degree_bound": self.degree_bound,
            "cap": self.cap,
            "weight_basis": list(grading.basis_labels),
            "nilpotent_found": self.nilpotent_found,
            "entries": [e.to_dict(grading) for e in self.entries],
        }


def oracle_enumerate(
    P: TrinomialPresentation,
    weights=None,
    degree_bound: int = 4,
    cap: int = 16,
    max_unknowns: int = 600,
    max_weights: int = 200,
    lambdas=None,
) -> OracleReport:
    """Search each weight for derivations and probe them for nilpotency.

    Weights default to the induced box: every degree shift the
    classifier realizes, plus zero. Samples per weight are the basis
    vectors, their pairwise sums and differences (with an i twist), and
    the classifier's own outputs of that degree; each sample gets an
    iterated-application nilpotency verdict, never a guess. The default
    cap of 16 is three times the largest vanishing index any classifier
    output exhibits at the default degree bound; raise it when hunting
    slow-dying candidates.
    """
    grading = weight_assignment(P)
    by_degree = _classifier_by_degree(P, lambdas, grading)
    if weights is None:
        weights = tuple(sorted({grading.zero(), *by_degree}))
    else:
        weights = tuple(tuple(w) for w in weights)
    if len(weights) > max_weights:
        raise BoxTooLarge(
            f"{len(weights)} weights exceed the limit {max_weights}"
        )
    entries = []
    for w in weights:
        space = solution_space(
            P, w, degree_bound=degree_bound, max_unknowns=max_unknowns, grading=grading
        )
        samples = [(f"basis[{k}]", delta) for k, delta in enumerate(space.basis)]
        head = space.basis[:_MAX_COMBO_BASIS]
        for a in range(len(head)):
            for b in range(a + 1, len(head)):
                samples.append((f"basis[{a}]+basis[{b}]", head[a] + head[b]))
                samples.append((f"basis[{a}]-basis[{b}]", head[a] + head[b] * -1))
                samples.append((f"basis[{a}]+i*basis[{b}]", head[a] + head[b] * I))
        members = []
        for inst in by_degree.get(w, ()):
            name = _descriptor_label(inst.descriptor)
            members.append((name, space.contains(inst.derivation)))
            samples.append((f"classifier:{name}", inst.derivation))
        checked = []
        nilpotent_found = False
        inconclusive = 0
        for name, delta in samples:
            report = nilpotency_check(delta, cap=cap)
            checked.append((name, delta, report))
            if report.status == "verified" and not delta.is_zero():
                nilpotent_found = True
            elif report.status == "inconclusive":
                inconclusive += 1
        entries.append(
            OracleWeightEntry(
                weight=w,
                unknown_count=len(space.unknowns),
                dimension=space.dimension,
                basis=space.basis,
                samples=checked,
                nilpotent_found=nilpotent_found,
                inconclusive=inconclusive,
                classifier_members=members,
            )
        )
    return OracleReport(
        presentation=P, degree_bound=degree_bound, cap=cap, entries=entries
    )


def _descriptor_label(desc) -> str:
    bits = [desc.kind]
    if desc.k is not None:
        bits.append(f"k={desc.k}")
    if desc.c is not None:
        bits.append("c=" + ",".join(str(x) for x in desc.c))
    if desc.roles is not None:
        bits.append("roles=" + ",".join(str(x) for x in desc.roles))
    if desc.param is not None:
        bits.append(f"param={gq_format(desc.param)}")
    return ";".join(bits)
