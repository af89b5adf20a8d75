"""Classification and construction of graded locally nilpotent derivations.

Everything revolves around admissible tuples: a choice of one variable
per block. Writing Big(c) for the blocks whose chosen variable carries
an exponent above 1, a tuple is admissible when

* type 1: |Big| <= 1 (one derivation class per tuple), or
* type 2, case A: |Big| <= 2, recorded with the ordered pairs (i1, i2)
  of blocks that can play the two distinguished roles, or
* type 2, case B: |Big| = 3 and some pair inside Big consists of blocks
  whose chosen exponent is exactly 2 with every exponent even.

Derivations are built on packed exponent keys, with no Poly arithmetic,
from explicit partial-derivative formulas on two distinguished blocks;
the remaining images are forced by the relations, exact key quotients.
Case B formulas need square roots of coefficient ratios inside Q(i); if
missing, the build raises NeedsNormalization, not a field extension.

Admissibility only reads the exponent at the chosen variable of each
block, so the tuples come in orbits: all tuples that pick variables of
the same exponents. Swapping two equal-exponent variables of one block
is an automorphism sigma fixing every relation, and delta -> sigma delta
sigma^-1 carries the classes of a tuple c onto those of sigma(c)
(Arzhantsev, Hausen, Herppich, Liendo, Moscow Math. J. 14 (2014)). The
class plan holds one entry per orbit, built at its lexicographically
first member; expand_orbits relabels it onto every other member.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from typing import Optional, Tuple

from .derivation import Derivation, is_well_defined
from .gaussian import I, ONE, GaussianRational, InputError, InternalError, _shown, gq, gq_format, gq_sqrt
from .grading import Weight, derivation_degree
from .poly import Gen, Poly, gen_name, pack, summed_terms, svar, tvar
from .presentation import AssumptionViolated, TrinomialPresentation, _is_int


class WrongType(InputError, TypeError):
    """Operation defined for the other presentation type."""


class InadmissibleTuple(InputError):
    """The tuple fails the admissibility predicate."""


class InadmissibleDescriptor(InputError):
    """A derivation descriptor that does not match any classified case."""


class NoSuchFreeVariable(InputError):
    """Free variable index out of range."""


class NeedsNormalization(InputError):
    """Construction requires a root of a coefficient ratio missing in Q(i)."""

    def __init__(self, message, ratio=None, order=None):
        super().__init__(message)
        self.ratio = ratio
        self.order = order


class ExactDivisionFailed(InternalError):
    """A structurally guaranteed division failed; this signals a bug."""


DEFAULT_LAMBDAS = (gq(0), gq(1), gq(-1), I, -I, gq(2), gq(1, 1))


@dataclass(frozen=True)
class AdmissibleTuple:
    c: Tuple[int, ...]
    case: str  # "Type1" | "A" | "B"
    big: Tuple[int, ...]
    labelings: Tuple = ()


@dataclass(frozen=True)
class LndDescriptor:
    kind: str  # "free" | "type1" | "t2a" | "t2b" | "t2c" | "t2d"
    k: Optional[int] = None
    c: Optional[Tuple[int, ...]] = None
    roles: Optional[Tuple[int, int, int]] = None
    param: Optional[GaussianRational] = None

    def to_dict(self):
        out = {"kind": self.kind}
        if self.k is not None:
            out["k"] = self.k
        if self.c is not None:
            out["c"] = list(self.c)
        if self.roles is not None:
            out["roles"] = list(self.roles)
        if self.param is not None:
            out["param"] = gq_format(self.param)
        return out


def _case_b_pair_ok(P: TrinomialPresentation, i: int, ci: int) -> bool:
    exps = P.exponents(i)
    return exps[ci - 1] == 2 and all(e % 2 == 0 for e in exps)


def _tuple_info(P: TrinomialPresentation, c) -> AdmissibleTuple:
    """Validate and classify a tuple; raises InadmissibleTuple."""
    nums = list(P.block_numbers)
    c = tuple(c)
    if len(c) != len(nums):
        raise InadmissibleTuple(f"tuple must pick one variable in each of {len(nums)} blocks")
    for i, ci in zip(nums, c):
        if not _is_int(ci) or not 1 <= ci <= P.block_size(i):
            raise InadmissibleTuple(f"index {_shown(ci)} out of range in block {i}")
    cmap = dict(zip(nums, c))
    big = tuple(i for i in nums if P.exponents(i)[cmap[i] - 1] > 1)
    if P.kind == 1:
        if len(big) > 1:
            raise InadmissibleTuple(
                f"two blocks {big[0]} and {big[1]} have exponent above 1 at the tuple"
            )
        return AdmissibleTuple(c=c, case="Type1", big=big)
    if len(big) <= 2:
        pairs = tuple(
            (i1, i2)
            for i1 in nums
            for i2 in nums
            if i1 != i2 and set(big) <= {i1, i2}
        )
        return AdmissibleTuple(c=c, case="A", big=big, labelings=pairs)
    if len(big) == 3:
        bigs = sorted(big)
        triples = []
        for x in range(3):
            for y in range(x + 1, 3):
                i1, i2 = bigs[x], bigs[y]
                (i3,) = [b for b in bigs if b not in (i1, i2)]
                if _case_b_pair_ok(P, i1, cmap[i1]) and _case_b_pair_ok(P, i2, cmap[i2]):
                    triples.append((i1, i2, i3))
        if triples:
            return AdmissibleTuple(c=c, case="B", big=big, labelings=tuple(triples))
        raise InadmissibleTuple(
            "three blocks have exponent above 1 at the tuple but no pair of them "
            "is even with chosen exponent 2"
        )
    raise InadmissibleTuple(
        f"{len(big)} blocks have exponent above 1 at the tuple, at most 3 are allowed"
    )


@dataclass(frozen=True)
class TupleOrbit:
    """The tuples that pick, in each block, a variable of one fixed exponent.

    columns[k] lists, ascending, the columns of block blocks[k] that carry
    that exponent. Every member is admissible exactly when one is, with
    the same case, Big set and labelings.
    """

    blocks: Tuple[int, ...]
    columns: Tuple[Tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return prod(len(cols) for cols in self.columns)

    @property
    def representative(self) -> Tuple[int, ...]:
        """The lexicographically first member."""
        return tuple(cols[0] for cols in self.columns)

    def members(self):
        """Every member tuple, in lexicographic order."""
        return product(*self.columns)

    def swap(self, c) -> dict:
        """sigma as a generator map: per block, the representative's
        variable and member c's variable trade places."""
        sigma = {}
        for i, a, b in zip(self.blocks, self.representative, c):
            if a != b:
                sigma[tvar(i, a)] = tvar(i, b)
                sigma[tvar(i, b)] = tvar(i, a)
        return sigma

    def to_dict(self):
        return {"size": self.size, "columns": [list(cols) for cols in self.columns]}


def _check_swaps(P: TrinomialPresentation, groups) -> None:
    """Raise InternalError unless swapping the first column of each group
    with each other one fixes every packed relation of P.engine, key by key.

    Every sigma of TupleOrbit.swap is a product of such transpositions in
    distinct blocks, so this one pass covers every orbit of P.
    """
    for i, block_groups in zip(P.block_numbers, groups):
        for a, *others in block_groups:
            for b in others:
                engine, g, h = P.engine, tvar(i, a), tvar(i, b)
                for index, relation in enumerate(engine.relations):
                    if engine.swapped(relation, {g: h, h: g}) != relation:
                        raise InternalError(f"swapping T{i}_{a} and T{i}_{b} moves relation {index}")


def tuple_orbits(P: TrinomialPresentation):
    """(AdmissibleTuple of the representative, TupleOrbit) per orbit of
    admissible tuples, in lexicographic order of the representatives.

    The candidates are the product over blocks of the distinct exponents;
    no member beyond a representative is looked at.
    """
    groups = []
    for i in P.block_numbers:
        by_exponent = {}
        for j, e in enumerate(P.exponents(i), start=1):
            by_exponent.setdefault(e, []).append(j)
        # first-occurrence order keeps the representatives lexicographic
        groups.append([tuple(cols) for cols in by_exponent.values()])
    _check_swaps(P, groups)
    blocks = tuple(P.block_numbers)
    out = []
    for columns in product(*groups):
        orbit = TupleOrbit(blocks, columns)
        try:
            out.append((_tuple_info(P, orbit.representative), orbit))
        except InadmissibleTuple:
            continue
    return out


def expand_orbits(pairs):
    """Expand (orbit, value) pairs, orbit None for a free variable entry,
    into (value, c, sigma) for every member c of every orbit.

    Free variable entries come first with c None and sigma empty, then
    the members of all orbits merged in lexicographic order of c: the
    order of admissible_tuples, which is the order classes were listed in
    before orbits were formed. sigma is TupleOrbit.swap(c), the map that
    carries the representative's classes onto c's; it is empty for the
    representative.
    """
    pairs = list(pairs)
    for orbit, value in pairs:
        if orbit is None:
            yield value, None, {}
    members = sorted(
        (c, k) for k, (orbit, _) in enumerate(pairs) if orbit is not None for c in orbit.members()
    )
    for c, k in members:
        orbit, value = pairs[k]
        yield value, c, orbit.swap(c)


def admissible_tuples(P: TrinomialPresentation):
    """All admissible tuples in lexicographic order."""
    pairs = ((entry.orbit, entry.info) for entry in P.plan if entry.orbit is not None)
    return [replace(info, c=c) for info, c, _ in expand_orbits(pairs)]


def _divides_both(P: TrinomialPresentation, cmap: dict, i1: int, i2: int) -> bool:
    """Whether the chosen exponent of block i1 divides every exponent of
    blocks i1 and i2: the condition for a t2b family on labeling (i1, i2)."""
    m = P.exponents(i1)[cmap[i1] - 1]
    return all(e % m == 0 for i in (i1, i2) for e in P.exponents(i))


def _case_a_infinite(P: TrinomialPresentation, info: AdmissibleTuple):
    """Witness (B0, B1) for the divisibility condition (_divides_both),
    or None: the class family becomes infinite on such a labeling."""
    cmap = dict(zip(P.block_numbers, info.c))
    return next((lab for lab in info.labelings if _divides_both(P, cmap, *lab)), None)


def _roots_exist(P: TrinomialPresentation, lab, need_gamma: bool) -> bool:
    alpha, beta, gamma = P.triple_coefficients(*lab)
    if gq_sqrt(beta / alpha) is None:
        return False
    return not need_gamma or gq_sqrt(gamma / alpha) is not None


def _preferred_case_b_labeling(P: TrinomialPresentation, info: AdmissibleTuple):
    """First labeling whose coefficient ratio is a square in Q(i), if any.

    Labelings are interchangeable mathematically, but only some may be
    buildable without extending the field, so those are preferred.
    """
    return next((lab for lab in info.labelings if _roots_exist(P, lab, False)), info.labelings[0])


def _case_b_infinite(P: TrinomialPresentation, info: AdmissibleTuple):
    """Witness labeling for the even third block condition, or None."""
    cmap = dict(zip(P.block_numbers, info.c))
    qualifying = [lab for lab in info.labelings if _case_b_pair_ok(P, lab[2], cmap[lab[2]])]
    if not qualifying:
        return None
    for lab in qualifying:
        if _roots_exist(P, lab, True):
            return lab
    return qualifying[0]


# -- the class plan -------------------------------------------------------


@dataclass(frozen=True)
class PlannedClass:
    """One class entry: a free variable (info and orbit None) or an orbit
    of admissible tuples, described at its representative.

    descriptors holds (label, descriptor) pairs that build directly;
    family is the parameter family of an InfiniteFamily tuple, with no
    parameter set.
    """

    info: Optional[AdmissibleTuple]
    count: str  # "SingleFamily" | "ExactlyTwo" | "InfiniteFamily"
    descriptors: Tuple[Tuple[str, LndDescriptor], ...]
    family: Optional[LndDescriptor] = None
    orbit: Optional[TupleOrbit] = None


def class_plan(P: TrinomialPresentation):
    """Yield the classes in order: free variables first, then one entry
    per orbit of admissible tuples, in the order of the representatives.

    This is the only place that picks role blocks and decides between
    ExactlyTwo and InfiniteFamily. The presentation keeps the plan as
    P.plan, which class_report, enumerate_lnds, admissible_tuples,
    is_rigid and is_semirigid all read. The first tuple entry's
    representative is the lexicographically first admissible tuple, and
    an orbit exists exactly when a tuple does.
    """

    def with_third(pair):
        return (*pair, min(i for i in P.block_numbers if i not in pair))

    for k in range(1, P.d + 1):
        desc = LndDescriptor(kind="free", k=k)
        yield PlannedClass(None, "SingleFamily", ((f"partial_S{k}", desc),))
    for info, orbit in tuple_orbits(P):
        if info.case == "Type1":
            desc = LndDescriptor(kind="type1", c=info.c)
            yield PlannedClass(info, "SingleFamily", (("base", desc),), orbit=orbit)
            continue
        family = None
        if info.case == "A":
            i1, i2, b2 = with_third(info.labelings[0])
            descriptors = tuple(
                (f"a:moves_block{roles[0]}", LndDescriptor(kind="t2a", c=info.c, roles=roles))
                for roles in ((i1, i2, b2), (i2, i1, b2))
            )
            witness = _case_a_infinite(P, info)
            if witness is not None:
                family = LndDescriptor(kind="t2b", c=info.c, roles=with_third(witness))
        else:
            lab = _preferred_case_b_labeling(P, info)
            descriptors = tuple(
                (label, LndDescriptor(kind="t2c", c=info.c, roles=lab, param=mu))
                for mu, label in ((I, "delta_0"), (-I, "delta_infinity"))
            )
            witness = _case_b_infinite(P, info)
            if witness is not None:
                family = LndDescriptor(kind="t2d", c=info.c, roles=witness)
        count = "ExactlyTwo" if family is None else "InfiniteFamily"
        yield PlannedClass(info, count, descriptors, family, orbit)


def _term(*factors) -> dict:
    """The product of (key, integer) terms as one {key: coefficient}."""
    return {sum(key for key, _ in factors): gq(prod(c for _, c in factors))}


def _sqrt_or_raise(ratio: GaussianRational, what: str) -> GaussianRational:
    root = gq_sqrt(ratio)
    if root is None:
        raise NeedsNormalization(
            f"{what} requires a square root of {gq_format(ratio)} in Q(i); rescale the "
            "presentation first",
            ratio=ratio,
            order=2,
        )
    return root


# the fields each descriptor kind reads besides its kind
_FIELDS = {"free": ("k",), "type1": ("c",), "t2a": ("c", "roles")}
_FIELDS.update(dict.fromkeys(("t2b", "t2c", "t2d"), ("c", "roles", "param")))


def _validated(P: TrinomialPresentation, desc: LndDescriptor) -> Optional[AdmissibleTuple]:
    """The AdmissibleTuple of a descriptor's tuple (None for a free
    variable), after checking everything about desc but its parameter's
    value; raises the input error that names what is wrong."""
    if not isinstance(desc.kind, str) or desc.kind not in _FIELDS:
        raise InadmissibleDescriptor(f"unknown descriptor kind {_shown(desc.kind)}")
    fields = _FIELDS[desc.kind]
    stray = [
        f for f in ("k", "c", "roles", "param") if f not in fields and getattr(desc, f) is not None
    ]
    if stray:
        raise InadmissibleDescriptor(f"a {desc.kind} descriptor takes no {', '.join(stray)}")
    if desc.kind == "free":
        if desc.k is None:
            raise InadmissibleDescriptor("free descriptor needs an index k")
        if not _is_int(desc.k) or not 1 <= desc.k <= P.d:
            raise NoSuchFreeVariable(
                f"presentation has {P.d} free variables, asked for {_shown(desc.k)}"
            )
        return None
    if desc.kind == "type1":
        if desc.c is None:
            raise InadmissibleDescriptor("type1 descriptor needs a tuple")
        if P.kind != 1:
            raise WrongType("type1 descriptor on a type 2 presentation")
    else:
        if P.kind != 2:
            raise WrongType(f"{desc.kind} descriptor on a type 1 presentation")
        if desc.c is None or desc.roles is None:
            raise InadmissibleDescriptor("descriptor needs a tuple and role blocks")
    info = _tuple_info(P, desc.c)
    if desc.kind == "type1":
        return info
    cmap = dict(zip(P.block_numbers, info.c))
    roles = tuple(desc.roles)
    if len(roles) != 3 or len(set(roles)) != 3 or any(
        not _is_int(i) or i not in P.block_numbers for i in roles
    ):
        raise InadmissibleDescriptor(f"roles must be three distinct blocks, got {_shown(roles)}")
    B0, B1, B2 = roles
    if desc.kind in ("t2a", "t2b"):
        if info.case != "A":
            raise InadmissibleDescriptor(f"tuple is case {info.case}, descriptor wants case A")
        if (B0, B1) not in info.labelings:
            raise InadmissibleDescriptor(f"({B0},{B1}) is not a valid labeling for this tuple")
        if desc.kind == "t2b" and not _divides_both(P, cmap, B0, B1):
            raise InadmissibleDescriptor(
                f"exponent {P.exponents(B0)[cmap[B0] - 1]} of the first role block must "
                "divide both distinguished blocks"
            )
    else:
        if info.case != "B":
            raise InadmissibleDescriptor(f"tuple is case {info.case}, descriptor wants case B")
        key = (min(B0, B1), max(B0, B1), B2)
        if key not in info.labelings:
            raise InadmissibleDescriptor(f"({B0},{B1},{B2}) is not a valid labeling for this tuple")
        if desc.kind == "t2d" and not _case_b_pair_ok(P, B2, cmap[B2]):
            raise InadmissibleDescriptor(
                f"third block {B2} must be even with chosen exponent 2 for this family"
            )
    return info


class _Construction:
    """A validated descriptor of any kind: its derivation and its kernel,
    from the parameter-free pieces of its formulas, each computed on first
    use.

    This is the one place that reads a descriptor's kind. Every kind is
    built once, as its coefficients in the parameter, {packed key: Q(i)}
    terms per image (terms), each checked against every relation
    (coefficients); every derivation it describes is their exact sum on
    those terms. Family samples, the two t2c classes and the descriptors'
    kernels share one construction. Callers keep it for one plan entry at
    most, never on the presentation, which holds only block-level pieces.
    """

    def __init__(self, P: TrinomialPresentation, desc: LndDescriptor, info=None):
        """A construction of desc; its parameter is checked by check_param.

        info is the class plan's AdmissibleTuple for desc.c when the plan
        made desc, which is then not validated again; any other descriptor
        is (_validated)."""
        if info is None or info.c != desc.c:
            info = _validated(P, desc)
        self.presentation = P
        self.kind = desc.kind
        if desc.kind == "free":
            self.moved = frozenset({svar(desc.k)})
            return
        self.cmap = cmap = dict(zip(P.block_numbers, info.c))
        self.moved = frozenset(tvar(i, ci) for i, ci in cmap.items())
        if desc.kind == "type1":
            return
        self.roles = roles = tuple(desc.roles)
        self.gens = tuple(tvar(i, cmap[i]) for i in roles)
        # t2b: T_B0 and T_B1 are m-th powers, m the chosen exponent of B0
        self._m = P.exponents(roles[0])[cmap[roles[0]] - 1] if desc.kind == "t2b" else 2

    def param_fault(self, param) -> Optional[str]:
        """Why param does not suit this kind, or None when it does."""
        if self.kind == "t2b" and not param:
            return "this family needs a nonzero parameter"
        if self.kind == "t2c" and (param is None or param * param != gq(-1)):
            return "parameter must be i or -i"
        if self.kind == "t2d" and param is None:
            return "this family needs a parameter value"
        return None

    def check_param(self, param):
        """Raise InadmissibleDescriptor unless param suits this kind."""
        fault = self.param_fault(param)
        if fault is not None:
            raise InadmissibleDescriptor(fault)

    @cached_property
    def parts(self) -> Tuple[int, ...]:
        """The keys of T_B0^(l/m) and T_B1^(l/m) for t2b, m the chosen
        exponent of B0; of the halves of the role blocks for t2c (B0, B1)
        and t2d (B0, B1, B2)."""
        count = 3 if self.kind == "t2d" else 2
        return tuple(self.presentation.block_term(i, m=self._m)[0] for i in self.roles[:count])

    @cached_property
    def roots(self) -> Tuple[GaussianRational, ...]:
        """sb for t2c, sb and sc for t2d; NeedsNormalization when missing in Q(i)."""
        if self.kind not in ("t2c", "t2d"):
            return ()
        alpha, beta, gamma = self.presentation.triple_coefficients(*self.roles)
        what = "the two-class family" if self.kind == "t2c" else "the parameter family"
        sb = _sqrt_or_raise(beta / alpha, what)
        if self.kind == "t2c":
            return (sb,)
        return (sb, _sqrt_or_raise(gamma / alpha, what))

    @cached_property
    def image_pieces(self) -> Tuple[dict, ...]:
        """The parameter-free factors of the two distinguished images of a
        type 2 kind, each one term {key: coefficient} (_term).

        With rest the product of the partials of the blocks outside B0 and
        B1: rest for t2a, and d_b * rest and d_a * rest for t2b and t2c,
        where d_a, d_b are the partials of parts. For t2d, rest leaves out
        B2 as well, and the pieces are the half-products d_b*d_c*half_b,
        d_b*d_c*half_c, d_a*d_c*half_a and d_a*d_c*half_c times rest.
        """
        P = self.presentation
        skip = self.roles if self.kind == "t2d" else self.roles[:2]
        rest = [P.block_term(i, ci) for i, ci in self.cmap.items() if i not in skip]
        if self.kind == "t2a":
            return (_term(*rest),)
        d_a, d_b, *d_c = (P.block_term(i, self.cmap[i], self._m) for i in skip)
        if self.kind != "t2d":
            return (_term(d_b, *rest), _term(d_a, *rest))
        half_a, half_b, half_c = (P.block_term(i, m=2) for i in skip)
        pairs = (d_b, half_b), (d_b, half_c), (d_a, half_a), (d_a, half_c)
        return tuple(_term(d, *d_c, half, *rest) for d, half in pairs)

    def build(self, param=None) -> Derivation:
        """The derivation at param: coefficients[0] for a kind with one
        coefficient, else the exact sum of param^j * D_j on their terms. A
        sum of normal forms is a normal form, and the relations hold by
        linearity, so the sum is neither normalized nor checked again."""
        self.check_param(param)
        first, *rest = self.coefficients
        if not rest:
            return first
        images = {}
        power = ONE
        for terms in self.terms:
            for g, img in terms.items():
                images.setdefault(g, []).extend((k, c if power is ONE else c * power) for k, c in img.items())
            power = power * param
        return Derivation._of_terms(self.presentation, {g: summed_terms(pairs) for g, pairs in images.items()})

    @cached_property
    def terms(self) -> tuple:
        """D_0, ..., D_k as images {generator: {key: coefficient}}, the
        derivation at param being the sum of param^j * D_j: one for free,
        type1 and t2a, two for t2b and t2c, three for t2d. A type 2 D_j
        sets its distinguished images by the classified formulas and solves
        the rest (_solved); NeedsNormalization when a root is missing."""
        if self.kind == "free":
            return (dict.fromkeys(self.moved, _term()),)
        if self.kind == "type1":
            # each chosen variable maps to the product of the other blocks' partials
            P = self.presentation
            return ({
                tvar(i, ci): _term(*(P.block_term(k, ck) for k, ck in self.cmap.items() if k != i))
                for i, ci in self.cmap.items()
            },)
        t_a, t_b, _ = self.gens
        pieces = self.image_pieces
        if self.kind in ("t2a", "t2b"):
            heads = tuple({g: (piece, ONE)} for g, piece in zip(self.gens, pieces))
        elif self.kind == "t2c":
            # t_a -> mu*sb*A, t_b -> B
            heads = ({t_b: (pieces[1], ONE)}, {t_a: (pieces[0], self.roots[0])})
        else:
            # t_a -> 2*lambda*sb*ab + (1+lambda^2)*i*sc*ac,
            # t_b -> -2*lambda/sb*ba + (1-lambda^2)*sc/sb*bc
            ab, ac, ba, bc = pieces
            sb, sc = self.roots
            heads = (
                {t_a: (ac, I * sc), t_b: (bc, sc / sb)},
                {t_a: (ab, 2 * sb), t_b: (ba, gq(-2) / sb)},
                {t_a: (ac, I * sc), t_b: (bc, -sc / sb)},
            )
        return tuple(self._solved(head) for head in heads)

    @cached_property
    def coefficients(self) -> Tuple[Derivation, ...]:
        """The checked D_j (_checked): a relation's image is linear in the
        derivation, so checking each D_j once covers every param."""
        if len(self.terms) == 1:
            return (self._checked(self.terms[0], f"type {self.presentation.kind} construction"),)
        return tuple(
            self._checked(images, f"the coefficient D{j} of the {self.kind} construction")
            for j, images in enumerate(self.terms)
        )

    def _checked(self, images: dict, what: str) -> Derivation:
        """Derivation._of_terms of these images, once every key is in
        normal form and the packed images kill every relation; InternalError,
        naming what, for a term outside normal form or a broken relation,
        which no formula makes: a block enters an image as T_i^{l_i}/T_ic or
        as a root of T_i^{l_i} times a partial, and the solved block cancels."""
        P = self.presentation
        if not all(map(P.engine.in_normal_form, images.values())):
            raise InternalError(f"{what} has a term outside normal form")
        delta = Derivation._of_terms(P, images)
        report = is_well_defined(delta)
        if not report.ok:
            raise InternalError(f"{what} broke relation {report.relation_index}")
        return delta

    @cached_property
    def degree(self) -> Optional[Weight]:
        """The degree in P.grading of every member of a t2b or t2d family,
        read once off its coefficients, which must share it; None for
        every other kind."""
        if self.kind not in ("t2b", "t2d"):
            return None
        grading = self.presentation.grading
        degrees = {derivation_degree(delta, grading) for delta in self.coefficients}
        if len(degrees) != 1:
            raise InternalError(f"the coefficients of the {self.kind} family differ in degree")
        return degrees.pop()

    def _solved(self, head: dict) -> dict:
        """The images of a D_j, empty ones included: each distinguished image
        a piece times a scalar, {generator: (piece, scalar)} in head, then the
        image of every other chosen variable T_sc, -(dB0*alpha_s*img0 +
        dB1*beta_s*img1) / (ds*gamma_s) with the minors of the relation on
        (B0, B1, s) and each d = l * x^key a block partial, its terms exact
        key quotients; P.minor_ratios keeps -alpha_s/gamma_s and
        -beta_s/gamma_s."""
        P = self.presentation
        B0, B1, _ = self.roles
        images = {g: piece if scalar is ONE else {k: c * scalar for k, c in piece.items()}
                  for g, (piece, scalar) in head.items()}
        heads = [(images.get(g, {}), P.block_term(i, self.cmap[i])) for g, i in zip(self.gens, (B0, B1))]
        for s, cs in self.cmap.items():
            if s in (B0, B1):
                continue
            c_key, l_s = P.block_term(s, cs)
            ratios = P.minor_ratios(B0, B1, s)
            pairs = [
                (k + d_key, c * (r if l == l_s else r * Fraction(l, l_s)))
                for (img, (d_key, l)), r in zip(heads, ratios)
                for k, c in img.items()
            ]
            images[tvar(s, cs)] = solved = {}
            for key, c in summed_terms(pairs).items():
                quotient = P.engine.quotient(key, c_key)
                if quotient is None:
                    raise ExactDivisionFailed(
                        f"solving the image of T{s}_{cs} failed: term "
                        f"{P.engine.monomial(key)} is not divisible by {P.engine.monomial(c_key)}"
                    )
                solved[quotient] = c
        return images

    def kernel(self, param=None) -> list:
        """Generators of the kernel at param: every generator the derivation
        does not move, then kernel_extra's generator if any. A family member
        moves the generators whose image at param is nonzero; at an
        exceptional param that leaves out some chosen variable."""
        P = self.presentation
        extra = self.kernel_extra(param)
        moved = self.build(param).packed()[0] if self.kind in ("t2b", "t2d") else self.moved
        gens = [Poly.generator(g) for g in P.generators if g not in moved]
        return gens if extra is None else [*gens, Poly({P.engine.monomial(k): c for k, c in extra.items()})]

    def kernel_extra(self, param) -> Optional[dict]:
        """The kernel generator of a type 2 kind beyond the generators it
        does not move, as {key: coefficient}; None for free and type1."""
        self.check_param(param)
        if self.kind == "t2a":
            return {pack(((self.gens[1], 1),), self.presentation.generator_index): ONE}
        if self.kind == "t2b":
            coefficients = param, -ONE
        elif self.kind == "t2c":
            coefficients = param, self.roots[0]
        elif self.kind == "t2d":
            sb, sc = self.roots
            coefficients = ONE - param * param, -(ONE + param * param) * I * sb, 2 * param * sc
        else:
            return None
        return {key: c for key, c in zip(self.parts, coefficients) if c}

    def kernel_pattern(self, sigma) -> str:
        """kernel_extra of a t2b or t2d family in the formal parameter
        lambda, carried onto the orbit member whose swap is sigma;
        NeedsNormalization when it needs a root missing in Q(i)."""
        roots, engine = self.roots, self.presentation.engine
        parts = [engine.format(engine.swapped({part: ONE}, sigma)) for part in self.parts]
        if self.kind == "t2b":
            return f"lambda*({parts[0]}) - ({parts[1]})"
        sb, sc = roots
        return (
            f"(1-lambda^2)*({parts[0]}) - (1+lambda^2)*({gq_format(I * sb)})*({parts[1]})"
            f" + 2*lambda*({gq_format(sc)})*({parts[2]})"
        )


def build_lnd(P: TrinomialPresentation, desc: LndDescriptor) -> Derivation:
    """The derivation desc describes, of any kind, self-checked."""
    return _Construction(P, desc).build(desc.param)


def free_variable_lnd(P: TrinomialPresentation, k: int) -> Derivation:
    """The partial derivative by the free variable S_k."""
    return _Construction(P, LndDescriptor(kind="free", k=k)).build()


def build_lnd_type1(P: TrinomialPresentation, c) -> Derivation:
    """The tuple derivation: each chosen variable maps to the product of
    the other blocks' partials, everything else to zero."""
    return _Construction(P, LndDescriptor(kind="type1", c=c)).build()


def build_lnd_type2(P: TrinomialPresentation, desc: LndDescriptor) -> Derivation:
    """build_lnd, under the name of the type 2 constructions."""
    return _Construction(P, desc).build(desc.param)


def kernel_generators(P: TrinomialPresentation, desc: LndDescriptor):
    """Generators of the kernel of the described derivation."""
    return _Construction(P, desc).kernel(desc.param)


# -- rigidity and the Makar-Limanov invariant ------------------------------


@dataclass(frozen=True)
class RigidityReport:
    rigid: bool
    reason: str
    witness: Optional[LndDescriptor] = None

    def __bool__(self):
        return self.rigid


def is_rigid(P: TrinomialPresentation) -> RigidityReport:
    """Rigid means: no nonzero graded locally nilpotent derivation at all.
    Read off the first entry of the class plan."""
    if not P.plan:
        return RigidityReport(True, "no free variables and no admissible tuple")
    first = P.plan[0]
    if first.info is None:
        reason = "free variables always carry derivations"
    else:
        reason = f"admissible tuple {first.info.c} exists"
    return RigidityReport(False, reason, first.descriptors[0][1])


@dataclass(frozen=True)
class SemirigidityReport:
    semirigid: bool
    clause: Optional[str] = None

    def __bool__(self):
        return self.semirigid


def is_semirigid(P: TrinomialPresentation) -> SemirigidityReport:
    """Semirigid means all nonzero derivations share one kernel.

    Holds when the algebra is rigid; when there is a single free
    variable over a rigid base; (type 1 only) when the Makar-Limanov
    computation applies; or when the algebra has dimension one, where
    the kernel of every nonzero locally nilpotent derivation is the
    algebraic closure of k in A (Freudenburg, Algebraic Theory of
    Locally Nilpotent Derivations, Ch. 1). Admissible tuples do not
    depend on the free variables, so the base without them is rigid
    exactly when the class plan has no tuple entry.
    """
    if not P.plan:
        return SemirigidityReport(True, "rigid")
    if P.d == 1 and len(P.plan) == 1:
        return SemirigidityReport(True, "single_free_variable_over_rigid_base")
    if P.kind == 1 and makar_limanov(P).status == "computed":
        return SemirigidityReport(True, "makar_limanov")
    if P.dimension() == 1:
        return SemirigidityReport(True, "dimension_one")
    return SemirigidityReport(False)


@dataclass(frozen=True)
class MakarLimanovReport:
    status: str  # "computed" | "not_applicable"
    reason: Optional[str] = None
    i0: Optional[int] = None
    c: Optional[dict] = None
    generators: Optional[Tuple[Gen, ...]] = None

    def to_dict(self):
        out = {"status": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.status == "computed":
            out["i0"] = self.i0
            out["c"] = {str(i): ci for i, ci in sorted(self.c.items())}
            out["generators"] = [gen_name(g) for g in self.generators]
        return out


def makar_limanov(P: TrinomialPresentation) -> MakarLimanovReport:
    """Compute the ring of functions killed by every locally nilpotent
    derivation, in the pattern where that computation closes.

    Needs: no free variables; a block i0 that is a single variable with
    exponent above 1; every other block with exactly one exponent equal
    to 1. The result is generated by the off-tuple variables outside
    block i0. Raises WrongType on type 2 input.
    """
    if P.kind != 1:
        raise WrongType("the Makar-Limanov computation covers type 1 presentations")
    if P.d != 0:
        return MakarLimanovReport(
            status="not_applicable", reason="free variables present"
        )
    candidates = [
        i
        for i in P.block_numbers
        if P.block_size(i) == 1 and P.exponents(i)[0] > 1
    ]
    if not candidates:
        return MakarLimanovReport(
            status="not_applicable",
            reason="no block is a single variable with exponent above 1",
        )
    first_failure = None
    for i0 in candidates:
        assignment = {}
        failure = None
        for i in P.block_numbers:
            if i == i0:
                continue
            ones = [j for j, e in enumerate(P.exponents(i), start=1) if e == 1]
            if len(ones) != 1:
                failure = (
                    f"block {i} needs exactly one exponent equal to 1, has {len(ones)}"
                )
                break
            assignment[i] = ones[0]
        if failure is None:
            gens = tuple(
                tvar(i, j)
                for i in P.block_numbers
                if i != i0
                for j in range(1, P.block_size(i) + 1)
                if j != assignment[i]
            )
            return MakarLimanovReport(
                status="computed", i0=i0, c=assignment, generators=gens
            )
        if first_failure is None:
            first_failure = failure
    return MakarLimanovReport(status="not_applicable", reason=first_failure)


# -- the classification report ---------------------------------------------


@dataclass(frozen=True)
class LndInstance:
    """One built class. degree is the degree of a family member, read once
    per family (_Construction.degree); None where it is not known yet."""

    descriptor: LndDescriptor
    derivation: Optional[Derivation]
    error: Optional[str] = None
    orbit: Optional[TupleOrbit] = None
    degree: Optional[Weight] = None

    def relabelled(self, c, sigma) -> "LndInstance":
        """This representative's instance carried onto orbit member c, where
        sigma = orbit.swap(c); the instance itself when sigma is empty.
        sigma moves generator weights, so the degree is dropped."""
        if not sigma:
            return self
        delta = None if self.derivation is None else self.derivation.relabelled(sigma)
        descriptor = replace(self.descriptor, c=c)
        return replace(self, descriptor=descriptor, derivation=delta, degree=None)

    def degree_shift(self) -> Weight:
        """The degree of the nonzero derivation in its presentation's
        grading: the family's degree when known, else read off the images."""
        if self.degree is not None:
            return self.degree
        return derivation_degree(self.derivation, self.derivation.presentation.grading)


def enumerate_lnds(P: TrinomialPresentation, lambdas=None, expand=True):
    """Materialize one derivation per class, sampling parameter families.

    Families with a free parameter produce one instance per sample value
    (zero is skipped where the classification excludes it). Instances
    whose construction needs an unavailable root carry an error string
    instead of a derivation. Only orbit representatives are built and
    self-checked. With expand (the default) the list holds every orbit
    member's instances, relabelled from its representative's in the order
    of expand_orbits; without it, the representatives' instances only.
    Instances of a tuple carry their orbit either way.
    """
    lams = DEFAULT_LAMBDAS if lambdas is None else tuple(lambdas)
    built = []
    for entry in P.plan:
        builds = _EntryBuilds(P, entry)
        instances = [builds.instance(desc) for _, desc in entry.descriptors]
        if entry.family is not None:
            family = builds.construction(entry.family)
            instances.extend(
                builds.instance(replace(entry.family, param=lam))
                for lam in lams
                if family.param_fault(lam) is None
            )
        built.append((entry.orbit, instances))
    if not expand:
        return [inst for _, instances in built for inst in instances]
    return [
        inst.relabelled(c, sigma)
        for instances, c, sigma in expand_orbits(built)
        for inst in instances
    ]


class _EntryBuilds:
    """Builds for the descriptors of one plan entry, at its representative,
    sharing one _Construction per (kind, k, roles): the two t2c classes,
    the samples of a family and each descriptor's kernel reuse its pieces,
    and every construction reuses the entry's AdmissibleTuple. Made per
    entry and dropped with it."""

    def __init__(self, P: TrinomialPresentation, entry: PlannedClass):
        self.presentation = P
        self.orbit = entry.orbit
        self.info = entry.info
        self._constructions = {}

    def construction(self, desc: LndDescriptor) -> _Construction:
        """The shared construction of desc; its parameter is not checked."""
        key = (desc.kind, desc.k, desc.roles)
        construction = self._constructions.get(key)
        if construction is None:
            construction = _Construction(self.presentation, desc, self.info)
            self._constructions[key] = construction
        return construction

    def instance(self, desc: LndDescriptor) -> LndInstance:
        """desc built, or with the NeedsNormalization its build raised as error."""
        construction = self.construction(desc)
        try:
            delta = construction.build(desc.param)
        except NeedsNormalization as exc:
            return LndInstance(desc, None, f"NeedsNormalization: {exc}", self.orbit)
        return LndInstance(desc, delta, orbit=self.orbit, degree=construction.degree)


@dataclass
class LndClassReport:
    presentation: TrinomialPresentation
    dimension: int
    factorial: Optional[bool]
    factorial_note: Optional[str]
    rigidity: RigidityReport
    semirigidity: SemirigidityReport
    ml: MakarLimanovReport
    classes: list
    expanded_count: Optional[int] = None  # set unless classes lists every tuple

    def to_dict(self):
        grading = self.presentation.grading
        out = {
            "presentation": self.presentation.to_input_dict(),
            "dimension": self.dimension,
            "grading": {
                "basis": list(grading.basis_labels),
                "weights": {
                    gen_name(g): list(grading.weights[g])
                    for g in self.presentation.generators
                },
            },
            "factorial": self.factorial,
        }
        if self.factorial_note:
            out["factorial_note"] = self.factorial_note
        out["rigid"] = self.rigidity.rigid
        out["rigid_reason"] = self.rigidity.reason
        out["semirigid"] = self.semirigidity.semirigid
        if self.semirigidity.clause:
            out["semirigid_clause"] = self.semirigidity.clause
        out["ml_invariant"] = self.ml.to_dict()
        if self.expanded_count is not None:
            out["expanded_count"] = self.expanded_count
        out["classes"] = self.classes
        return out


def _concrete_formula(label, inst: LndInstance, extra, kernel, sigma):
    """A formulas entry for a descriptor that builds right away, inst
    already carried onto the orbit member whose swap is sigma.

    kernel is the entry's kernel list: the whole kernel of a free or
    type 1 descriptor; extra, the representative's kernel generator beyond
    it for a type 2 descriptor, extends it.
    """
    entry = {"label": label, "descriptor": inst.descriptor.to_dict()}
    if inst.derivation is None:
        entry["error"] = inst.error
        return entry
    entry["images"] = inst.derivation.image_strings()
    engine = inst.derivation.presentation.engine
    entry["kernel"] = kernel if extra is None else [*kernel, engine.format(engine.swapped(extra, sigma))]
    return entry


def _family_formula(builds: _EntryBuilds, family: LndDescriptor, c, sigma):
    """A formulas entry for a parameter family, family at the entry's
    representative: its kernel pattern in lambda, carried onto orbit member
    c whose swap is sigma, or the error when that needs a root missing in
    Q(i)."""
    entry = {
        "label": "b:lambda_family" if family.kind == "t2b" else "delta_lambda",
        "descriptor": {**replace(family, c=c).to_dict(), "param": "formal"},
    }
    try:
        entry["kernel_pattern"] = builds.construction(family).kernel_pattern(sigma)
    except NeedsNormalization as exc:
        entry["error"] = f"NeedsNormalization: {exc}"
    return entry


def _class_formatter(P: TrinomialPresentation, entry: PlannedClass):
    """Build one plan entry at its representative; return fmt(c, sigma),
    the report entry of orbit member c (None for a free variable) with
    sigma = orbit.swap(c), naming the orbit when one is passed. Its kernel
    list is each g whose sigma(g), sigma being its own inverse, the entry's
    construction does not move (_Construction.moved)."""
    builds = _EntryBuilds(P, entry)
    concrete = []
    for label, desc in entry.descriptors:
        inst = builds.instance(desc)
        extra = None
        if inst.derivation is not None:
            extra = builds.construction(desc).kernel_extra(desc.param)
        concrete.append((label, inst, extra))
    info = entry.info
    first = entry.descriptors[0][1]
    moved = builds.construction(first).moved
    names = [(g, gen_name(g)) for g in P.generators]

    def fmt(c, sigma, orbit=None):
        kernel = [name for g, name in names if sigma.get(g, g) not in moved]
        if info is None:
            out = {"tuple": None, "case": "free_variable", "k": first.k}
        else:
            out = {"tuple": list(c), "case": info.case}
            if info.case != "Type1":
                out["labelings"] = [list(lab) for lab in info.labelings]
            if orbit is not None:
                out["orbit"] = orbit.to_dict()
        formulas = [
            _concrete_formula(label, inst.relabelled(c, sigma), extra, kernel, sigma)
            for label, inst, extra in concrete
        ]
        if entry.family is not None:
            formulas.append(_family_formula(builds, entry.family, c, sigma))
        out.update(count=entry.count, formulas=formulas, kernel=kernel)
        return out

    return fmt


def class_report(P: TrinomialPresentation, expand=False) -> LndClassReport:
    """The classification: one entry per free variable, one per orbit of
    admissible tuples, or with expand one per tuple.

    Free variables and type 1 tuples each carry a single class
    (SingleFamily); type 2 tuples carry either ExactlyTwo classes or an
    InfiniteFamily depending on the divisibility conditions. Parameter
    families appear with "param": "formal" and a kernel pattern; the
    enumerate_lnds function materializes them. An orbit entry is its
    representative's entry plus "orbit" (TupleOrbit.to_dict), and the
    report counts the entries expand would list as expanded_count.
    """
    try:
        factorial = P.is_factorial()
        note = None
    except AssumptionViolated as exc:
        factorial = None
        note = str(exc)
    if P.kind == 1:
        ml = makar_limanov(P)
    else:
        ml = MakarLimanovReport("not_computed", "computed for type 1 presentations only")
    formatters = [(entry.orbit, _class_formatter(P, entry)) for entry in P.plan]
    expanded_count = None
    if expand:
        classes = [fmt(c, sigma) for fmt, c, sigma in expand_orbits(formatters)]
    else:
        classes = [
            fmt(None if orbit is None else orbit.representative, {}, orbit)
            for orbit, fmt in formatters
        ]
        expanded_count = sum(1 if orbit is None else orbit.size for orbit, _ in formatters)
    return LndClassReport(
        presentation=P,
        dimension=P.dimension(),
        factorial=factorial,
        factorial_note=note,
        rigidity=is_rigid(P),
        semirigidity=is_semirigid(P),
        ml=ml,
        classes=classes,
        expanded_count=expanded_count,
    )
