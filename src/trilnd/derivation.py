"""Derivations of a presented algebra, stored by generator images.

A derivation is determined by its images on generators and extends by
the Leibniz rule. Images are kept in normal form, so two derivations
inducing the same map have equal image dictionaries. Whether a
candidate assignment actually descends to the quotient algebra is a
check (is_well_defined), not an assumption, since the verification
oracle deliberately produces candidates that can fail it.

Every normal form comes from the presentation's one rewrite engine,
P.engine. A Derivation is its packed images over the Gaussian integers at
one integer scale, on which iteration and zero tests (nilpotency_check,
is_well_defined, kernel_member), the degree, the orbit relabelling
(RewriteEngine.swapped) and the printed text (RewriteEngine.format) run.
Its Poly images are a view derived from them, built when first read,
for the references: Derivation.apply, the Leibniz rule on Poly, and
poly.stepwise_normal_form are what the tests compare the packed images
with. Derivation(P, images) packs Poly images with poly.packed_terms,
and derivation_from_text packs the terms of derivation text as it reads
them; both end in one tail (_normal_images): dense_terms, then
engine.dense_normal_forms, the one normalizer, and neither keeps a Poly
view. `trilnd verify` checks text from end to end on the packed images
and builds Poly images only for a residue. The classifier packs its
terms, already in normal form, with dense_terms (Derivation._of_terms).
A derivation that passed the relation check, or that the oracle built
from a solution of the relation rows, is marked well_defined;
nilpotency_check checks any other first. It decides in one
walk over the degree function of delta: it strips each iterate's
monomial content, adds up the index from the generators' own, and
refutes by divisibility or by a cycle of generators whose chains need
each other. refutation_holds re-checks a refutation on the exact images
alone, with Derivation.apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from .gaussian import GaussianRational, InputError, InvalidArgument, gq
from .grading import Grading, homogeneous_parts
from .poly import (
    DegreeOverflow,
    Gen,
    Monomial,
    Poly,
    PolyParseError,
    UnknownGenerator,
    _products,
    _reject_foreign,
    dense_leibniz,
    dense_terms,
    exact_divide,
    gen_name,
    normal_form,
    pack,
    packed_terms,
    parse_gen_name,
    partial_derivative,
    poly_format,
    poly_terms,
    primitive_part,
    summed_terms,
)
from .presentation import TrinomialPresentation


class NotInKernel(ValueError):
    """replica() was given a cofactor outside the kernel."""


class DerivationFormatError(InputError):
    """Malformed derivation file."""


@dataclass(frozen=True)
class WellDefinedReport:
    ok: bool
    relation_index: Optional[int] = None
    residue: Optional[Poly] = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class NilpotencyReport:
    status: str  # "verified" | "refuted" | "inconclusive" | "not_applicable"
    cap: int
    index: Optional[int] = None
    witness: Optional[Gen] = None
    guard: Optional[str] = None  # "cap" | "term_limit" | "degree_limit" when inconclusive
    refutation: Optional[str] = None  # "divisibility" | "degree_cycle" when refuted
    cycle: Optional[tuple] = None  # (from, step, to, exponent) edges of a degree_cycle

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def evidence(self) -> dict:
        """What decided the verdict, for JSON reports: the witness generator
        (None when verified), plus the guard of an inconclusive report or
        the refutation of a refuted one, with the edges of a cycle."""
        out = {"witness": None if self.witness is None else gen_name(self.witness)}
        if self.status == "inconclusive":
            out["guard"] = self.guard
        elif self.status == "refuted":
            out["refutation"] = self.refutation
            if self.cycle:
                out["cycle"] = [
                    {"from": gen_name(a), "step": k, "to": gen_name(b), "exponent": e}
                    for a, k, b, e in self.cycle
                ]
        return out


class Derivation:
    """A derivation of the presentation, held as its packed images.

    The packed images map each generator with a nonzero image to that
    image in the dense form of poly.py, over the presentation's
    generator_index: in normal form, free of zero coefficients and scale
    times the exact image, scale being one positive integer. step, the
    relation check, kernel_member, nilpotency_check, the degree, the
    orbit relabelling and the printed text all read them. The Poly view
    (images) is derived from them: built by the engine on first read and
    kept, never packed back. Only the references read it: apply,
    refutation_holds, the residue of is_well_defined, replica, scaled,
    addition, decompose, equality and hashing. Every constructor keeps
    the packed images only: Derivation(P, images) packs and normalizes
    Poly images and keeps no Poly view of them. The packed images also
    keep their Leibniz parts, built by the first step, so a derivation
    never stepped, as a sample refuted by divisibility, never builds
    them. well_defined is True once the derivation is known to map
    every relation into the relation ideal: it passed is_well_defined, or
    it was built from a solution of the relation rows (the oracle's
    samples).
    """

    # _dense is [packed images, scale, Leibniz parts or None]; _images is
    # the Poly view, None until read
    __slots__ = ("presentation", "_images", "_dense", "well_defined")

    def __init__(self, presentation: TrinomialPresentation, images: Mapping[Gen, Poly]):
        index = presentation.generator_index
        terms = {}
        for g, img in images.items():
            if g not in index:
                raise UnknownGenerator(f"{gen_name(g)} is not a generator here")
            if not isinstance(img, Poly):
                img = Poly.constant(img)
            terms[g] = packed_terms(img, index, f"image of {gen_name(g)} uses foreign generator {{}}")
        self.presentation = presentation
        self._images = None
        self._dense = [*_normal_images(presentation, terms), None]
        self.well_defined = False

    @staticmethod
    def _of(
        presentation: TrinomialPresentation,
        packed: dict,
        scale: int = 1,
        well_defined: bool = False,
    ) -> "Derivation":
        """Wrap packed images at scale, as the class docstring states them,
        without copying or checking them."""
        out = Derivation.__new__(Derivation)
        out.presentation = presentation
        out._images = None
        out._dense = [packed, scale, None]
        out.well_defined = well_defined
        return out

    @staticmethod
    def _of_terms(presentation: TrinomialPresentation, images: dict) -> "Derivation":
        """The packed images, unchecked, of images {generator: {key:
        coefficient}} in normal form, scaled by dense_terms; empty images are
        dropped."""
        images = {g: img for g, img in images.items() if img}
        scale, packed = dense_terms(images.values())
        return Derivation._of(presentation, dict(zip(images, packed)), scale)

    @property
    def images(self) -> dict:
        """The Poly view; the engine builds it from the packed images on
        first read, without normalizing them again."""
        if self._images is None:
            packed, scale, _ = self._dense
            poly = self.presentation.engine.poly
            self._images = {g: poly(img, scale) for g, img in packed.items()}
        return self._images

    def packed(self) -> Tuple[dict, int]:
        """The packed images and their scale."""
        return self._dense[0], self._dense[1]

    def step(self, p: dict) -> dict:
        """delta(p) for a dense p, in normal form and up to a nonzero
        scalar, as a primitive dense dict: it vanishes exactly when
        delta(p) does, and has the same monomials."""
        engine = self.presentation.engine
        dense = self._dense
        if dense[2] is None:
            dense[2] = tuple(engine.leibniz_part(g, img.items()) for g, img in dense[0].items())
        return primitive_part(engine.dense_normal_form(dense_leibniz(p, dense[2]))[0])

    def image(self, g: Gen) -> Poly:
        return self.images.get(g, Poly.zero())

    def image_strings(self) -> dict:
        """Nonzero images as formatted strings, in generator order."""
        packed = self._dense[0]
        return {gen_name(g): self._text(g) for g in self.presentation.generators if g in packed}

    def _text(self, g: Gen) -> str:
        """The nonzero image of g as poly_format writes it, off its keys
        (RewriteEngine.format)."""
        packed, scale, _ = self._dense
        exact = {key: GaussianRational._of(a, b, scale) for key, (a, b) in packed[g].items()}
        return self.presentation.engine.format(exact)

    def is_zero(self) -> bool:
        return not self._dense[0]

    def relabelled(self, sigma: Mapping[Gen, Gen]) -> "Derivation":
        """sigma * self * sigma^-1 for a product sigma of transpositions of
        generators, each listed both ways, that maps every relation to itself.

        Such a sigma fixes every block power, hence every rewrite rule, so
        it maps normal forms to normal forms: the packed images are swapped
        key by key (RewriteEngine.swapped) and not normalized again. The
        caller checks the relations.
        """
        packed, scale = self.packed()
        swapped = self.presentation.engine.swapped
        return Derivation._of(
            self.presentation, {sigma.get(g, g): swapped(img, sigma) for g, img in packed.items()}, scale
        )

    def __eq__(self, other):
        return (
            isinstance(other, Derivation)
            and self.presentation == other.presentation
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.presentation, frozenset(self.images.items())))

    def apply(self, p: Poly) -> Poly:
        """The Leibniz extension, the sum over the nonzero images of
        dp/dg * delta(g), returned in normal form."""
        _reject_foreign(p, self.presentation.generator_set)
        terms = (t for g, img in self.images.items() for t in _products(partial_derivative(p, g), img))
        return normal_form(Poly._of(summed_terms(terms)), self.presentation)

    def scaled(self, factor: GaussianRational) -> "Derivation":
        factor = factor if isinstance(factor, GaussianRational) else gq(factor)
        return Derivation(
            self.presentation, {g: img * factor for g, img in self.images.items()}
        )

    def __mul__(self, factor):
        return self.scaled(factor)

    __rmul__ = __mul__

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.presentation != other.presentation:
            raise ValueError("cannot add derivations on different presentations")
        merged = dict(self.images)
        for g, img in other.images.items():
            merged[g] = merged.get(g, Poly.zero()) + img
        return Derivation(self.presentation, merged)

    def __repr__(self):
        body = ", ".join(f"{gen_name(g)} -> {self._text(g)}" for g in sorted(self._dense[0], reverse=True))
        return f"Derivation({body or '0'})"


def _normal_images(P: TrinomialPresentation, images: dict) -> Tuple[dict, int]:
    """(packed images, scale) of {generator: {key: nonzero GaussianRational}}
    by dense_terms and engine.dense_normal_forms, vanished images dropped:
    the tail of Derivation(P, images) and derivation_from_text."""
    scale, dense = dense_terms(images.values())
    forms, top = P.engine.dense_normal_forms(dense)
    return {g: terms for g, terms in zip(images, forms) if terms}, scale * P.engine.scale**top


def is_well_defined(delta: Derivation) -> WellDefinedReport:
    """Check that every defining relation maps into the relation ideal.

    The zero test runs on the packed images with Derivation.step and marks
    delta well defined when it passes; a broken relation's residue is
    recomputed exactly with Derivation.apply.
    """
    for idx, rel in enumerate(delta.presentation.engine.relations):
        if delta.step(rel):
            residue = delta.apply(delta.presentation.relations()[idx])
            return WellDefinedReport(ok=False, relation_index=idx, residue=residue)
    delta.well_defined = True
    return WellDefinedReport(ok=True)


def nilpotency_check(
    delta: Derivation,
    cap: int = 64,
    term_limit: int = 4096,
    degree_limit: int = 512,
) -> NilpotencyReport:
    """Decide local nilpotency in one walk over the degree function of delta.

    Let nu = index - 1 on the nilpotent elements of A. For a derivation
    of A, a domain of characteristic 0 (see refutation_holds), nu(fg) =
    nu(f) + nu(g) for nilpotent f and g: delta^(a+b)(fg) = C(a+b, a) *
    delta^a(f) * delta^b(g) is not zero for a = nu(f), b = nu(g), and
    every higher power kills fg. So the chain of a generator g splits
    each iterate p_k as mu_k * q_k, mu_k the greatest monomial dividing
    every term, and steps only q_k: p_1 = delta(g), p_(k+1) = delta(q_k).
    nu(g) is k plus the sum of e * nu(x) over the powers x^e in mu_1, ...,
    mu_k, for the first k with q_k constant or delta(q_k) = 0. A replica
    h * delta sheds the monomial part of h at every step. The nu of a
    generator is computed when first needed, on an explicit stack of
    open chains, and kept. The walk answers:

    * not_applicable: delta is not marked well_defined, and
      is_well_defined finds a broken relation;
    * refuted, "divisibility": the first generator, in generator order,
      in the content mu_1 of its own image;
    * refuted, "degree_cycle": a generator x needed while its own chain
      is open. An edge g -> x at step k, x^e in mu_k, gives nu(g) >= k +
      e * nu(x) > nu(x), so no LND has a cycle of edges. The witness is
      x; cycle lists the edges (from, step, to, exponent) from x to x;
    * inconclusive: a running nu reaches cap, or the stack grows deeper
      than cap (nu of the outermost chain is at least the depth), guard
      "cap"; or a stripped q_k passes term_limit or degree_limit. The
      witness is the outermost chain's generator, the first in
      generator order whose nu is not known yet;
    * verified(m), m = max nu + 1: m is minimal with delta^m killing
      every generator, which certifies local nilpotency.

    Iterates live in the packed form, each a nonzero scalar multiple of
    the true one, so content, term count and degree (of max(q)) are exact.
    """
    if cap < 1:
        raise InvalidArgument("cap must be at least 1")
    if not delta.well_defined and not is_well_defined(delta):
        return NilpotencyReport("not_applicable", cap)
    engine = delta.presentation.engine
    generators = delta.presentation.generators
    images, _ = delta.packed()
    for g in generators:
        if g in images and engine.divides_every_key(g, images[g]):
            return NilpotencyReport("refuted", cap, witness=g, refutation="divisibility")
    nu = {g: 0 for g in generators if g not in images}
    started = set()  # chains begun; those not yet in nu are on the stack
    for root in generators:
        if root in nu:
            continue
        started.add(root)
        # open chains, outermost first: [generator, step k, running nu,
        # pairs of mu_k, q_k, index of the first pair not yet added]; step
        # 1 is the content of the image, taken when the chain opens
        stack = [[root, 1, 1, *engine.content(images[root]), 0]]
        while stack:
            frame = stack[-1]
            g, k, total, pairs, q, i = frame
            while i < len(pairs) and pairs[i][0] in nu:
                total += pairs[i][1] * nu[pairs[i][0]]
                i += 1
            guard = None
            if i < len(pairs):
                frame[2], frame[5] = total, i
                x = pairs[i][0]
                if x in started:
                    j = next(n for n, f in enumerate(stack) if f[0] == x)
                    edges = tuple((f[0], f[1], *f[3][f[5]]) for f in stack[j:])
                    return NilpotencyReport(
                        "refuted", cap, witness=x, refutation="degree_cycle", cycle=edges
                    )
                if len(stack) < cap:
                    started.add(x)
                    stack.append([x, 1, 1, *engine.content(images[x]), 0])
                    continue
                guard = "cap"
            elif total >= cap:
                guard = "cap"
            elif len(q) > 1:  # else a constant, once stripped
                if len(q) > term_limit:
                    guard = "term_limit"
                elif engine.degree(max(q)) > degree_limit:
                    guard = "degree_limit"
                else:
                    p = delta.step(q)
                    if p:
                        frame[1:] = k + 1, total + 1, *engine.content(p), 0
                        continue
            if guard is not None:
                return NilpotencyReport("inconclusive", cap, witness=root, guard=guard)
            nu[g] = total
            stack.pop()
    return NilpotencyReport("verified", cap, index=max(nu.values()) + 1)


def refutation_holds(delta: Derivation, report: NilpotencyReport) -> bool:
    """Re-check a refuted report from the exact images alone.

    The divisibility certificate holds when delta(witness) is nonzero and
    every monomial of it contains the witness. A degree_cycle holds when
    its edges close into a cycle from the witness back to it, and each
    edge (g, k, x, e) replays g's chain of nilpotency_check on Poly, with
    Derivation.apply and exact_divide: p_1, ..., p_k are nonzero, q_1,
    ..., q_(k-1) are not constant, and x^e divides the content of p_k.
    Either refutes local nilpotency, because:

    * normal forms are canonical (the rewrite leads are pairwise coprime,
      so the rules are a Groebner basis), hence a nonzero normal form is
      a nonzero element of A, and the normal form g*h of delta(g) shows
      that g divides delta(g) in A;
    * A is an integral domain: the trinomial algebras of type 1
      (pairwise distinct constants) and of type 2 (pairwise linearly
      independent coefficient columns), free variables adjoined or not,
      are normal integral domains (Hausen and Wrobel, "Non-complete
      rational T-varieties of complexity one", Math. Nachr. 290 (2017));
    * a locally nilpotent derivation D of a domain with f | D(f) has
      D(f) = 0 (Freudenburg, Algebraic Theory of Locally Nilpotent
      Derivations, Ch. 1), and here delta(g) is not 0;
    * for an LND of a domain of characteristic 0, each edge gives
      nu(g) > nu(x) (see nilpotency_check), which no cycle satisfies.

    So a refuted delta is not a locally nilpotent derivation of A; when
    delta is not well defined it is no derivation of A at all, and the
    statement holds trivially.
    """
    if report.status != "refuted":
        return False
    g = report.witness
    if report.refutation == "divisibility":
        image = delta.image(g)
        return bool(image) and all(m.exponent(g) >= 1 for m in image.terms)
    edges = report.cycle
    if report.refutation != "degree_cycle" or not edges or edges[0][0] != g:
        return False
    closed = all(a[2] == b[0] for a, b in zip(edges, edges[1:] + edges[:1]))
    return closed and all(_edge_holds(delta, *edge) for edge in edges)


def _edge_holds(delta: Derivation, g: Gen, step: int, x: Gen, e: int) -> bool:
    """Whether x^e, e >= 1, divides the content of p_step in g's chain."""
    p = delta.image(g)
    for k in range(1, step + 1):
        if not p:
            return False
        first = next(iter(p.terms)).variables()
        content = Monomial({y: min(m.exponent(y) for m in p.terms) for y in first})
        if k == step:
            return e >= 1 and content.exponent(x) >= e
        q = exact_divide(p, content)
        if q.degree() == 0:
            return False
        p = delta.apply(q)
    return False


def kernel_member(delta: Derivation, p: Poly) -> bool:
    _, (terms,) = dense_terms((packed_terms(p, delta.presentation.generator_index),))
    return not delta.step(terms)


def replica(delta: Derivation, h: Poly) -> Derivation:
    """The derivation h * delta; h must lie in the kernel of delta."""
    if not isinstance(h, Poly):
        h = Poly.constant(h)
    if not kernel_member(delta, h):
        raise NotInKernel(f"{poly_format(h)} is not killed by the derivation")
    return Derivation(
        delta.presentation, {g: img * h for g, img in delta.images.items()}
    )


def decompose(delta: Derivation, grading: Grading):
    """Split into degree-homogeneous components, sorted by degree.

    Returns a list of (degree, Derivation). The component of degree w
    collects, for every generator g, the part of delta(g) with weight
    weight(g) + w.
    """
    buckets: dict = {}
    for g, img in delta.images.items():
        base = grading.weights[g]
        for w, part in homogeneous_parts(img, grading).items():
            shift = tuple(a - b for a, b in zip(w, base))
            buckets.setdefault(shift, {})[g] = part
    out = []
    for shift in sorted(buckets):
        out.append((shift, Derivation(delta.presentation, buckets[shift])))
    return out


def derivation_to_text(delta: Derivation) -> str:
    """One 'generator = polynomial' line per nonzero image.

    Generators with no line map to zero, so the zero derivation writes
    as an empty body. Reading the output back yields an equal
    derivation.
    """
    lines = [f"{name} = {text}" for name, text in delta.image_strings().items()]
    return "\n".join(lines) + ("\n" if lines else "")


def derivation_from_text(P: TrinomialPresentation, text: str) -> Derivation:
    """Parse the derivation file format.

    Blank lines and '#' comments are allowed; each other line must read
    'generator = polynomial', the polynomial in poly.poly_terms' grammar.
    Listing a generator twice is an error; unlisted generators map to
    zero. Each term is packed as it is read, into the Derivation's packed
    images. Repeated terms merge in first-seen order, as in
    poly_parse, and engine.dense_normal_forms keeps an image in normal
    form as it is, so the images, their term order and every error are
    those of Derivation(P, {g: poly_parse(rhs)}), except that each error
    raised by a line names the line.
    """
    index = P.generator_index
    known = P.generator_set
    images: dict = {}
    factors: dict = {}  # poly_terms' memo, shared by the lines
    overflow = False

    def term_key(pairs):  # past the degree bound, a Monomial: raised below unless it cancels
        nonlocal overflow
        try:
            return pack(pairs, index)
        except DegreeOverflow:
            overflow = True
            return Monomial(pairs)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, rhs = line.partition("=")
        if not eq:
            raise DerivationFormatError(f"line {lineno}: expected 'generator = polynomial'")
        name = name.strip()
        try:
            g = parse_gen_name(name)
        except UnknownGenerator as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
        if g not in known:
            raise UnknownGenerator(
                f"line {lineno}: {name} is not a generator of this presentation"
            )
        if g in images:
            raise DerivationFormatError(f"line {lineno}: duplicate image for {name}")
        try:
            terms = poly_terms(rhs, known, factors)
        except PolyParseError as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
        except UnknownGenerator as exc:
            raise UnknownGenerator(f"line {lineno}: {exc}") from None
        images[g] = summed_terms(
            (term_key(pairs), GaussianRational._of(sign * a, sign * b, d)) for sign, pairs, (a, b, d) in terms
        )
    if overflow:
        for terms in images.values():
            for key in terms:
                if isinstance(key, Monomial):
                    pack(key.pairs, index)  # raises DegreeOverflow
    return Derivation._of(P, *_normal_images(P, images))
