"""Brute-force search for homogeneous derivations, independent of the
classification formulas.

For a fixed weight shift w the graded derivations of that degree form a
finite-dimensional vector space once the image degree is capped: the
unknowns are coefficients x_(g, m) of reduced monomials m with
weight(m) = weight(g) + w, and each defining relation imposes linear
constraints because its image must reduce to zero. The solution space
is computed by fraction-free row reduction over the Gaussian integers,
with no reference to the classified constructions, which makes it a useful cross-check: every
classifier output below the degree cap must land inside the span, and
rigid presentations must yield no certified nilpotent element.

The search runs on the dense form of poly.py end to end. The engine
enumerates the box as normal-form keys with their weights, an unknown is
a (generator, key) pair, and the basis vectors and the samples combined
from them are Derivations of packed images at one integer scale per
space; reports print them off their keys, and SolutionSpace.contains
reads a classifier output's coordinates off its keys, so no Poly is
built. The samples solve every relation row, so they are marked well
defined and nilpotency_check skips the relation check, as it does for
each classifier output that lies in the span. SolutionSpace.unknowns
turns its keys into monomials when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import List, Optional, Tuple

from .classify import enumerate_lnds
from .derivation import Derivation, NilpotencyReport, nilpotency_check
from .gaussian import GaussianRational, InputError, InvalidArgument, ONE, ZERO, gq_format
from .grading import Grading
from .poly import dense_combination, dense_leibniz, dense_terms, primitive_part
from .presentation import TrinomialPresentation


class BoxTooLarge(InputError, RuntimeError):
    """The search region exceeds the configured size limits."""


_MAX_COMBO_BASIS = 4

# The search box holds every monomial of degree at most the bound in n
# generators, C(n + bound, n) of them before the rewrite leads are
# filtered out, and the engine enumerates them as keys at about 1
# microsecond each (0.7-1.2 us per point on the degree-12 boxes of
# type1[(1,1,1),(1,1,1)] and type1[(2,2,2),(2,2,2)], Python 3.11, 2-core
# x86_64). Past this many the box is refused before it is built: 20,000
# is about 20 ms of enumeration, but every unknown it yields also costs a
# column of the constraint matrix, and the largest corpus box at degree
# bound 4 is 126.
_MAX_BOX_MONOMIALS = 20_000
# More degree shifts than this are refused before any search.
_MAX_WEIGHTS = 200


def reduced_monomials(P: TrinomialPresentation, max_degree: int):
    """All normal-form monomials of total degree at most max_degree, in
    increasing order: the Monomial view of the engine's box of keys."""
    engine = P.engine
    # empty weight vectors: the box is not graded here
    weights = [()] * len(P.generators)
    return [engine.monomial(key) for key, _ in engine.box(max_degree, weights)]


def _eliminate(row: dict, pivot_row: dict, c: int) -> dict:
    """p * row - x * pivot_row (dense_combination), where p = pivot_row[c] and
    x = row[c], divided by the gcd of its parts. Column c drops out."""
    pa, pb = pivot_row[c]
    xa, xb = row[c]
    scaled = {j: (pa * a - pb * b, pa * b + pb * a) for j, (a, b) in row.items()}
    return primitive_part(dense_combination(scaled, pivot_row, -xa, -xb))


def _rref(rows: List[dict], ncols: int):
    """Reduced row echelon form of a matrix over the Gaussian integers.

    Rows are sparse dicts from column to (real, imaginary) int pairs.
    Gauss-Jordan runs over Z[i] with every updated row divided by the gcd
    of its parts, so no fraction appears until the end, where each pivot
    row is divided by its pivot. The reduced row echelon form is unique,
    so it does not depend on the pivot rows chosen on the way. Returns
    (reduced rows as sparse dicts of nonzero GaussianRational entries,
    pivot columns in increasing order).
    """
    pending = [row for row in rows if row]
    done: List[Tuple[int, dict]] = []
    for c in range(ncols):
        if not pending:
            break
        candidates = [row for row in pending if c in row]
        if not candidates:
            continue
        pivot_row = min(candidates, key=len)
        pending = [
            _eliminate(row, pivot_row, c) if c in row else row
            for row in pending
            if row is not pivot_row
        ]
        pending = [row for row in pending if row]
        done = [(pc, _eliminate(row, pivot_row, c) if c in row else row) for pc, row in done]
        done.append((c, pivot_row))
    reduced = []
    for pc, row in done:
        pa, pb = row[pc]
        n = pa * pa + pb * pb
        reduced.append(
            {
                j: GaussianRational._of(a * pa + b * pb, b * pa - a * pb, n)
                for j, (a, b) in row.items()
            }
        )
    return reduced, [pc for pc, _ in done]


def _nullspace(reduced: List[dict], pivots: List[int], ncols: int) -> List[dict]:
    """A basis of {v : Rv = 0} from the reduced rows R: one sparse vector per
    free column, 1 there and 0 at every other free column."""
    pivot_set = set(pivots)
    basis = {fc: {fc: ONE} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(reduced, pivots):
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = -v
    return list(basis.values())


@dataclass
class SolutionSpace:
    """Derivations of one fixed degree, found by linear algebra.

    The unknowns are (generator, key) columns, and each basis vector is a
    Derivation of packed images at one integer scale common to the basis.
    unknowns, with its monomials, is built when first read.
    """

    presentation: TrinomialPresentation
    weight: Tuple[int, ...]
    degree_bound: int
    dimension: int
    basis: List[Derivation]
    _columns: List[Tuple] = field(repr=False)  # (generator, key) per unknown
    _constraints: List[dict] = field(repr=False)  # reduced rows

    @cached_property
    def unknowns(self) -> List[Tuple]:
        """(generator, monomial) pairs, one per coordinate."""
        monomial = self.presentation.engine.monomial
        return [(g, monomial(key)) for g, key in self._columns]

    def coordinates_of(self, delta: Derivation):
        """Coefficient vector of a derivation, read off its packed keys, or
        None if it uses monomials outside the search box or is a derivation
        on other generators, whose keys are over another index."""
        if delta.presentation.generators != self.presentation.generators:
            return None
        column = {gk: k for k, gk in enumerate(self._columns)}
        vec = [ZERO] * len(column)
        packed, scale = delta.packed()
        for g, img in packed.items():
            for key, (a, b) in img.items():
                k = column.get((g, key))
                if k is None:
                    return None
                vec[k] = GaussianRational._of(a, b, scale)
        return vec

    def contains(self, delta: Derivation) -> bool:
        """Whether delta lies in the box and satisfies every reduced constraint."""
        vec = self.coordinates_of(delta)
        if vec is None:
            return False
        return not any(sum((v * vec[c] for c, v in row.items()), ZERO) for row in self._constraints)


def _box_by_weight(P: TrinomialPresentation, degree_bound: int) -> dict:
    """The engine's box of normal-form keys, grouped by weight in
    P.grading, each list in Monomial order. Raises BoxTooLarge before
    enumerating a box of more than _MAX_BOX_MONOMIALS monomials."""
    n = len(P.generators)
    size = math.comb(n + degree_bound, n)
    if size > _MAX_BOX_MONOMIALS:
        raise BoxTooLarge(
            f"the degree-{degree_bound} box in {n} generators has {size} monomials, "
            f"over the limit {_MAX_BOX_MONOMIALS}; lower the degree bound"
        )
    keys: dict = {}
    weights = P.grading.weights
    for key, w in P.engine.box(degree_bound, [weights[g] for g in P.generators]):
        keys.setdefault(w, []).append(key)
    return keys


def _check_limits(degree_bound: int, max_unknowns: int) -> None:
    if degree_bound < 0:
        raise InvalidArgument("degree bound must be nonnegative")
    if max_unknowns < 0:
        raise InvalidArgument("max_unknowns must be nonnegative")


def solution_space(
    P: TrinomialPresentation,
    weight,
    degree_bound: int = 4,
    max_unknowns: int = 600,
    box: Optional[dict] = None,
) -> SolutionSpace:
    """Solve for all derivations of the given degree shift whose images
    stay within the degree bound.

    box is the search box grouped by weight (_box_by_weight), which
    oracle_enumerate builds once for all the weights it solves; it is
    built here when omitted, and a box over _MAX_BOX_MONOMIALS raises
    BoxTooLarge unbuilt.
    The constraint matrix has one column per unknown and one row per
    relation and monomial of the relation's image. Its entries are the
    Gaussian integers of the presentation engine's dense_normal_forms,
    which give all rows of one relation one scale factor, so they vanish
    on the same vectors as the exact rows. Column (g_k, m) is the
    one-image derivation g_k -> m applied to the relation, in normal form.
    """
    _check_limits(degree_bound, max_unknowns)
    grading = P.grading
    weight = tuple(weight)
    if len(weight) != grading.rank:
        raise InvalidArgument(f"weight must have {grading.rank} components")
    if box is None:
        box = _box_by_weight(P, degree_bound)
    columns = []
    for g in P.generators:
        target = tuple(map(add, grading.weights[g], weight))
        columns.extend((g, key) for key in box.get(target, ()))
    if len(columns) > max_unknowns:
        raise BoxTooLarge(
            f"{len(columns)} unknowns exceed the limit {max_unknowns}; raise "
            "max_unknowns to search anyway"
        )
    engine = P.engine
    # leibniz_part of each unknown's one-image derivation
    parts = [(engine.leibniz_part(g, ((key, (1, 0)),)),) for g, key in columns]
    rows = []
    for rel in engine.relations:
        cells: dict = {}
        forms, _ = engine.dense_normal_forms(dense_leibniz(rel, part) for part in parts)
        for col, nf in enumerate(forms):
            for mono, c in nf.items():
                cells.setdefault(mono, {})[col] = c
        rows.extend(cells.values())
    reduced, pivots = _rref(rows, len(columns))
    vectors = _nullspace(reduced, pivots, len(columns))
    # one scale for the whole basis, so that sums and twists of basis
    # vectors are exact on the dense images
    scale, vectors = dense_terms(vectors)
    basis = []
    for vec in vectors:
        images: dict = {}
        for k in sorted(vec):
            g, key = columns[k]
            images.setdefault(g, {})[key] = vec[k]
        basis.append(Derivation._of(P, images, scale, well_defined=True))
    return SolutionSpace(
        presentation=P,
        weight=weight,
        degree_bound=degree_bound,
        dimension=len(basis),
        basis=basis,
        _columns=columns,
        _constraints=reduced,
    )


def _combination(x: Derivation, y: Derivation, c: Tuple[int, int]) -> Derivation:
    """x + c * y, packed only, for two derivations packed at one scale and
    a Gaussian integer c, as (real, imaginary), with cancelled terms and
    images dropped. The relation images are linear in the derivation, so
    the sum is well defined when both terms are."""
    (xs, scale), (ys, _) = x.packed(), y.packed()
    images = {}
    for g in {**xs, **ys}:
        img = dense_combination(xs.get(g, {}), ys.get(g, {}), *c)
        if img:
            images[g] = img
    well_defined = x.well_defined and y.well_defined
    return Derivation._of(x.presentation, images, scale, well_defined)


def _classifier_by_degree(P: TrinomialPresentation):
    """The classifier's nonzero outputs, grouped by degree shift."""
    by_degree: dict = {}
    for inst in enumerate_lnds(P):
        if inst.derivation is None or inst.derivation.is_zero():
            continue
        by_degree.setdefault(inst.degree_shift(), []).append(inst)
    return by_degree


def induced_weight_box(P: TrinomialPresentation):
    """The degree shifts realized by the classifier, plus zero."""
    return tuple(sorted({P.grading.zero(), *_classifier_by_degree(P)}))


@dataclass
class OracleWeightEntry:
    weight: Tuple[int, ...]
    unknown_count: int
    dimension: int
    samples: List[Tuple[str, Derivation, NilpotencyReport]]
    nilpotent_found: bool
    refuted: int
    inconclusive: int
    classifier_members: List[Tuple[str, bool]]

    def to_dict(self, grading: Grading):
        return {
            "weight": list(self.weight),
            "weight_label": grading.format_weight(self.weight),
            "unknowns": self.unknown_count,
            "dimension": self.dimension,
            "nilpotent_found": self.nilpotent_found,
            "refuted_samples": self.refuted,
            "inconclusive_samples": self.inconclusive,
            "samples": [
                {
                    "name": name,
                    "images": delta.image_strings(),
                    "nilpotency": report.status,
                    "index": report.index,
                    **report.evidence(),
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
        grading = self.presentation.grading
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
) -> OracleReport:
    """Search each weight for derivations and probe them for nilpotency.

    Weights default to the induced box: every degree shift the
    classifier realizes, plus zero. Samples per weight are the basis
    vectors, their pairwise sums and differences (with an i twist), and
    the classifier's own outputs of that degree; each sample gets an
    exact nilpotency verdict (verified, refuted or inconclusive), never a
    guess. The default cap of 16 is three times the largest vanishing
    index any classifier output exhibits at the default degree bound;
    raise it when hunting slow-dying candidates. A cap below 1, a negative
    degree bound or a negative max_unknowns raises InvalidArgument before
    any search, and so does a weight listed twice or of the wrong length.
    """
    if cap < 1:
        raise InvalidArgument("cap must be at least 1")
    _check_limits(degree_bound, max_unknowns)
    if weights is not None:
        weights = tuple(tuple(w) for w in weights)
        seen = set()
        for w in weights:
            if w in seen:
                raise InvalidArgument(f"weight {list(w)} is repeated")
            seen.add(w)
    grading = P.grading
    for w in weights or ():
        if len(w) != grading.rank:
            raise InvalidArgument(f"weight must have {grading.rank} components")
    by_degree = _classifier_by_degree(P)
    if weights is None:
        weights = tuple(sorted({grading.zero(), *by_degree}))
    if len(weights) > _MAX_WEIGHTS:
        raise BoxTooLarge(f"{len(weights)} weights exceed the limit {_MAX_WEIGHTS}")
    box = _box_by_weight(P, degree_bound)
    entries = []
    for w in weights:
        space = solution_space(P, w, degree_bound=degree_bound, max_unknowns=max_unknowns, box=box)
        samples = [(f"basis[{k}]", delta) for k, delta in enumerate(space.basis)]
        head = space.basis[:_MAX_COMBO_BASIS]
        for a in range(len(head)):
            for b in range(a + 1, len(head)):
                for sign, c in (("+", (1, 0)), ("-", (-1, 0)), ("+i*", (0, 1))):
                    name = f"basis[{a}]{sign}basis[{b}]"
                    samples.append((name, _combination(head[a], head[b], c)))
        members = []
        for inst in by_degree.get(w, ()):
            name = _descriptor_label(inst.descriptor)
            delta = inst.derivation
            in_span = space.contains(delta)
            # in the span, it solves every relation row as the basis does
            delta.well_defined |= in_span
            members.append((name, in_span))
            samples.append((f"classifier:{name}", delta))
        checked = []
        nilpotent_found = False
        refuted = inconclusive = 0
        for name, delta in samples:
            report = nilpotency_check(delta, cap=cap)
            if report.status == "verified" and not delta.is_zero():
                nilpotent_found = True
            elif report.status == "refuted":
                refuted += 1
            elif report.status == "inconclusive":
                inconclusive += 1
            checked.append((name, delta, report))
        entries.append(
            OracleWeightEntry(
                weight=w,
                unknown_count=len(space._columns),
                dimension=space.dimension,
                samples=checked,
                nilpotent_found=nilpotent_found,
                refuted=refuted,
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
