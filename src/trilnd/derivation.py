"""Derivations of a presented algebra, stored by generator images.

A derivation is determined by its images on generators and extends by
the Leibniz rule. Images are kept in normal form, so two derivations
inducing the same map have equal image dictionaries. Whether a
candidate assignment actually descends to the quotient algebra is a
check (is_well_defined), not an assumption, since the verification
oracle deliberately produces candidates that can fail it.

Every normal form comes from the presentation's one rewrite engine,
P.engine, through poly.normal_form for a Poly. Iteration and
zero tests (nilpotency_check, is_well_defined, kernel_member) run on a
dense form of the derivation over the Gaussian integers that is exact up
to a nonzero scalar and built per call, unless the caller has one: the
oracle keeps its samples in that form and turns each into a Derivation
with _DenseForm.derivation, and the classifier packs each build once
(_DenseForm.of_normal_images) and checks that form.
Derivation.apply, the Leibniz rule on Poly, and poly.stepwise_normal_form
are the references the tests compare the dense form with. A refuted
nilpotency report is re-checked by refutation_holds on the exact images
alone. A form that passed the relation check, or that the oracle built
from a solution of the relation rows, is marked well_defined, and only
such a form reaches the degree-function certificate of nilpotency_check
(_degree_index), which strips each iterate's monomial content and adds
up the index from the generators' own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .gaussian import GaussianRational, InvalidArgument, gq
from .grading import Grading, homogeneous_parts
from .poly import (
    Gen,
    Poly,
    PolyParseError,
    UnknownGenerator,
    _add_product,
    dense_leibniz,
    gen_name,
    integer_terms,
    normal_form,
    parse_gen_name,
    partial_derivative,
    poly_format,
    poly_parse,
    primitive_part,
)
from .presentation import TrinomialPresentation


class NotInKernel(ValueError):
    """replica() was given a cofactor outside the kernel."""


class DerivationFormatError(ValueError):
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
    status: str  # "verified" | "refuted" | "inconclusive"
    cap: int
    index: Optional[int] = None
    witness: Optional[Gen] = None
    guard: Optional[str] = None  # "cap" | "term_limit" | "degree_limit" when inconclusive
    refutation: Optional[str] = None  # "divisibility" when refuted

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def evidence(self) -> dict:
        """What decided the verdict, for JSON reports: the witness generator
        (None when verified), plus the guard of an inconclusive report or
        the refutation of a refuted one."""
        out = {"witness": None if self.witness is None else gen_name(self.witness)}
        if self.status == "inconclusive":
            out["guard"] = self.guard
        elif self.status == "refuted":
            out["refutation"] = self.refutation
        return out


def _reject_foreign(
    p: Poly, known, message: str = "{} is not a generator of this presentation"
) -> None:
    """Raise UnknownGenerator, message naming the first generator of p
    outside known in p's term order, if there is one. Callers check their
    input before normalizing it, where a foreign term may cancel."""
    for m in p.terms:
        for g, _ in m.pairs:
            if g not in known:
                raise UnknownGenerator(message.format(gen_name(g)))


class _DenseForm:
    """A derivation over the Gaussian integers, exact up to a nonzero scalar.

    Polynomials are in the dense form of poly.py, over the presentation's
    generator_index. The images are nonzero, in normal form and free of
    zero coefficients, scale times those of the derivation this form
    stands for, scale being one positive integer. The normal form is the
    presentation engine's, and step returns the primitive part of an
    integer multiple of delta(p) in normal form: the result vanishes
    exactly when delta(p) does, and has the same monomials. The Leibniz
    parts of the images are built by the first step, so a form that is
    never stepped, as a sample refuted by divisibility, never builds them.
    well_defined is True once the form is known to map every relation
    into the relation ideal: it passed broken_relation, or it was built
    from a solution of the relation rows (the oracle's samples).
    """

    __slots__ = ("presentation", "index", "scale", "images", "parts", "well_defined")

    def __init__(self, delta: "Derivation"):
        scale, dense = integer_terms(delta.images.values(), delta.presentation.generator_index)
        self._set(delta.presentation, dict(zip(delta.images, dense)), scale)

    @classmethod
    def from_images(
        cls, presentation: TrinomialPresentation, images: dict, scale: int, well_defined=False
    ):
        """The form with these dense images at this scale; they must be
        nonzero, in normal form and free of zero coefficients."""
        out = cls.__new__(cls)
        out._set(presentation, images, scale)
        out.well_defined = well_defined
        return out

    @classmethod
    def of_normal_images(cls, presentation: TrinomialPresentation, images: Mapping[Gen, Poly]):
        """The form of the derivation with these nonzero Poly images, packed
        once, or None when some term is not in normal form."""
        scale, dense = integer_terms(images.values(), presentation.generator_index)
        if not presentation.engine.in_normal_form(key for terms in dense for key in terms):
            return None
        return cls.from_images(presentation, dict(zip(images, dense)), scale)

    def _set(self, presentation, images, scale):
        self.presentation = presentation
        self.index = presentation.generator_index
        self.scale = scale
        self.images = images
        self.parts = None  # the Leibniz parts, built by the first step
        self.well_defined = False

    def derivation(self) -> "Derivation":
        """The Derivation this form stands for. The engine builds its images
        from the dense ones without normalizing them again."""
        poly = self.presentation.engine.poly
        return Derivation._of(
            self.presentation, {g: poly(img, self.scale) for g, img in self.images.items()}
        )

    def is_zero(self) -> bool:
        return not self.images

    def of(self, p: Poly) -> dict:
        return integer_terms((p,), self.index)[1][0]

    def step(self, p: dict) -> dict:
        """delta(p) in normal form, up to a nonzero scalar, as a primitive dense dict."""
        parts = self.parts
        if parts is None:
            part = self.presentation.engine.leibniz_part
            parts = self.parts = tuple(part(g, img.items()) for g, img in self.images.items())
        terms = dense_leibniz(p, parts)
        return primitive_part(self.presentation.engine.dense_normal_form(terms)[0])

    def broken_relation(self) -> Optional[int]:
        """The index of the first relation whose image is not zero in normal
        form, or None, which also marks the form well defined."""
        for idx, rel in enumerate(self.presentation.engine.relations):
            if self.step(rel):
                return idx
        self.well_defined = True
        return None


class Derivation:
    """Images are normalized on construction; zero images are dropped."""

    __slots__ = ("presentation", "images")

    def __init__(self, presentation: TrinomialPresentation, images: Mapping[Gen, Poly]):
        known = presentation.generator_set
        stored = {}
        for g, img in images.items():
            if g not in known:
                raise UnknownGenerator(f"{gen_name(g)} is not a generator here")
            if not isinstance(img, Poly):
                img = Poly.constant(img)
            _reject_foreign(img, known, f"image of {gen_name(g)} uses foreign generator {{}}")
            reduced = normal_form(img, presentation)
            if reduced:
                stored[g] = reduced
        self.presentation = presentation
        self.images = stored

    @staticmethod
    def _of(presentation: TrinomialPresentation, images: dict) -> "Derivation":
        """Wrap images that are nonzero and already in normal form, without
        copying or checking them."""
        out = Derivation.__new__(Derivation)
        out.presentation = presentation
        out.images = images
        return out

    def image(self, g: Gen) -> Poly:
        return self.images.get(g, Poly.zero())

    def image_strings(self) -> dict:
        """Nonzero images as formatted strings, in generator order."""
        return {
            gen_name(g): poly_format(self.images[g])
            for g in self.presentation.generators
            if g in self.images
        }

    def is_zero(self) -> bool:
        return not self.images

    def relabelled(self, sigma: Mapping[Gen, Gen]) -> "Derivation":
        """sigma * self * sigma^-1 for a permutation sigma of the generators
        that maps every relation to itself.

        Such a sigma fixes every block power, hence every rewrite rule, so
        it maps normal forms to normal forms: the images are not normalized
        again. The caller checks the relations.
        """
        return Derivation._of(
            self.presentation,
            {sigma.get(g, g): img.relabel(sigma) for g, img in self.images.items()},
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
        acc: dict = {}
        for g, img in self.images.items():
            _add_product(acc, partial_derivative(p, g), img)
        return normal_form(Poly._of(acc), self.presentation)

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
        images = sorted(self.images.items(), reverse=True)
        body = ", ".join(f"{gen_name(g)} -> {poly_format(img)}" for g, img in images)
        return f"Derivation({body or '0'})"


def is_well_defined(delta: Union[Derivation, _DenseForm]) -> WellDefinedReport:
    """Check that every defining relation maps into the relation ideal.

    The zero test runs on the dense form, which delta may already be, and
    marks that form well defined when it passes; a broken relation's
    residue is recomputed exactly with Derivation.apply.
    """
    dense = delta if isinstance(delta, _DenseForm) else _DenseForm(delta)
    idx = dense.broken_relation()
    if idx is None:
        return WellDefinedReport(ok=True)
    exact = delta.derivation() if delta is dense else delta
    residue = exact.apply(delta.presentation.relations()[idx])
    return WellDefinedReport(ok=False, relation_index=idx, residue=residue)


def nilpotency_check(
    delta: Union[Derivation, _DenseForm],
    cap: int = 64,
    term_limit: int = 4096,
    degree_limit: int = 512,
) -> NilpotencyReport:
    """Decide local nilpotency where an exact test can, else iterate up to cap steps.

    Refuted(witness g) means delta(g) is nonzero and every term of its
    normal form contains g (refutation "divisibility"); such a delta is
    not a locally nilpotent derivation of the algebra A, and
    refutation_holds re-checks that on the exact images. Every image is
    scanned before any generator is iterated, so a refutable generator is
    found even when an earlier one would run to the cap.

    Verified(m) means delta^m kills every generator and m is minimal.
    Since the generators generate, that certifies local nilpotency of
    the whole derivation. Hitting the cap is reported as inconclusive,
    never as failure: weight reasons can make a non-nilpotent candidate
    cycle forever. The size guards likewise bail out as inconclusive
    when an iterate balloons past any plausible vanishing trajectory.
    An inconclusive report names the guard that tripped.

    Between the two, a delta known to map every relation into the
    relation ideal (a dense form marked well_defined, else checked with
    broken_relation) is first given to the degree-function certificate,
    _degree_index. When that verifies, its index is the one the loop
    below would report, and it also verifies a delta whose plain iterates
    pass a size guard while their monomial-free parts stay within it.
    When it gives up, the loop runs unchanged, so every refuted and
    inconclusive report comes from the loop and the scan.

    Iterates live in the dense form, where each is a nonzero scalar
    multiple of the true one: its vanishing, term count and degree are
    those of the true iterate. Keys order by total degree first, so the
    degree of an iterate p is that of max(p). delta may also be given in
    that dense form, as the oracle keeps its samples.
    """
    if cap < 1:
        raise InvalidArgument("cap must be at least 1")
    dense = delta if isinstance(delta, _DenseForm) else _DenseForm(delta)
    generators = dense.presentation.generators
    engine = dense.presentation.engine
    for g in generators:
        img = dense.images.get(g)
        if img and engine.every_term_contains(img, g):
            return NilpotencyReport(
                status="refuted", cap=cap, witness=g, refutation="divisibility"
            )
    if dense.well_defined or dense.broken_relation() is None:
        index = _degree_index(dense, cap, term_limit, degree_limit)
        if index is not None:
            return NilpotencyReport(status="verified", cap=cap, index=index)
    worst = 1
    for g in generators:
        p = dense.images.get(g)
        steps = 1
        while p:
            guard = None
            if steps >= cap:
                guard = "cap"
            elif len(p) > term_limit:
                guard = "term_limit"
            elif engine.degree(max(p)) > degree_limit:
                guard = "degree_limit"
            if guard is not None:
                return NilpotencyReport(status="inconclusive", cap=cap, witness=g, guard=guard)
            p = dense.step(p)
            steps += 1
        worst = max(worst, steps)
    return NilpotencyReport(status="verified", cap=cap, index=worst)


def _degree_index(
    dense: _DenseForm, cap: int, term_limit: int, degree_limit: int
) -> Optional[int]:
    """The nilpotency index of a well-defined dense form, read off the
    degree function of delta, or None where this certificate gives up.

    Let nu = index - 1 on the nilpotent elements of A. In a domain of
    characteristic 0, as A is (see refutation_holds), and for a
    derivation of A, nu(fg) = nu(f) + nu(g) for nilpotent f and g,
    because delta^(a+b)(fg) = C(a+b, a) * delta^a(f) * delta^b(g) is not
    zero for a = nu(f), b = nu(g), and every higher power kills fg. So
    each iterate p of a generator is split as mu * q, mu the greatest
    monomial dividing every term of p, and nu(p) is the sum of e * nu(x)
    over the powers x^e in mu, plus nu(q): 0 when q is a constant or
    delta(q) = 0, else 1 + nu(delta(q)). Only q is stepped, so a
    monomial factor of an iterate, such as the monomial part of h in the
    iterates h^n * delta^n(g) of a replica, is never carried into the
    next step. nu of a generator is computed when first needed and kept
    for the rest of the check, so the recursion is at most as deep as
    there are generators.

    Gives up when a generator's nu is needed while its own chain is still
    open (a cycle), when some index would exceed cap, or when a stripped
    iterate q passes term_limit or degree_limit.
    """
    engine = dense.presentation.engine
    images = dense.images
    nu = {g: 0 for g in dense.presentation.generators if g not in images}
    started = set()  # chains begun; those not yet in nu are open

    def degree(g):
        if g in started:
            return None
        started.add(g)
        p = images[g]
        total = 0
        while p:
            total += 1
            pairs, q = engine.content(p)
            for x, e in pairs:
                v = nu.get(x)
                if v is None:
                    v = degree(x)
                    if v is None:
                        return None
                total += e * v
            if total >= cap:
                return None
            if len(q) == 1:  # a constant, once stripped
                break
            if len(q) > term_limit or engine.degree(max(q)) > degree_limit:
                return None
            p = dense.step(q)
        nu[g] = total
        return total

    for g in images:
        if g not in nu and degree(g) is None:
            return None
    return max(nu.values()) + 1


def refutation_holds(delta: Derivation, report: NilpotencyReport) -> bool:
    """Re-check a refuted report from the exact images alone.

    The divisibility certificate holds when delta(witness) is nonzero and
    every monomial of it contains the witness. It then refutes local
    nilpotency, because:

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
      Derivations, Ch. 1), and here delta(g) is not 0.

    So a refuted delta is not a locally nilpotent derivation of A; when
    delta is not well defined it is no derivation of A at all, and the
    statement holds trivially.
    """
    if report.status != "refuted" or report.refutation != "divisibility":
        return False
    g = report.witness
    image = delta.image(g)
    return bool(image) and all(m.exponent(g) >= 1 for m in image.terms)


def kernel_member(delta: Derivation, p: Poly) -> bool:
    _reject_foreign(p, delta.presentation.generator_set)
    dense = _DenseForm(delta)
    return not dense.step(dense.of(p))


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
    lines = []
    for g in delta.presentation.generators:
        img = delta.images.get(g)
        if img is not None:
            lines.append(f"{gen_name(g)} = {poly_format(img)}")
    return "\n".join(lines) + ("\n" if lines else "")


def derivation_from_text(P: TrinomialPresentation, text: str) -> Derivation:
    """Parse the derivation file format.

    Blank lines and '#' comments are allowed; each other line must read
    'generator = polynomial'. Listing a generator twice is an error;
    unlisted generators map to zero.
    """
    images = {}
    known = set(P.generators)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, eq, rhs = line.partition("=")
        if not eq:
            raise DerivationFormatError(f"line {lineno}: expected 'generator = polynomial'")
        try:
            g = parse_gen_name(name.strip())
        except UnknownGenerator as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
        if g not in known:
            raise UnknownGenerator(
                f"line {lineno}: {name.strip()} is not a generator of this presentation"
            )
        if g in images:
            raise DerivationFormatError(f"line {lineno}: duplicate image for {name.strip()}")
        try:
            images[g] = poly_parse(rhs.strip(), allowed=known)
        except PolyParseError as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
    return Derivation(P, images)
