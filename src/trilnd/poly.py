"""Sparse multivariate polynomials over Q(i) on trinomial generator alphabets.

A Monomial is an immutable sparse exponent map, a Poly maps monomials
to nonzero GaussianRational coefficients.

The monomial order used everywhere is block order: any T beats any S,
higher block index beats lower, and inside one block the variable with
the smaller j is the more significant one. Free variables compare by
index, smaller k more significant. Under this order the highest-index
block monomial of each defining relation is the lead term. A generator
is the tuple it sorts by, T_ij = (1, i, ~j) and S_k = (0, ~k), so plain
tuple order on generators and on a Monomial's pairs is this order; ~j =
-j-1, not -j, as CPython hashes -1 and -2 alike. Only tvar, svar,
gen_name and parse_gen_name build or read a generator's fields.

Normal forms come from one rewrite engine, RewriteEngine, on the packed
dense form described below; normal_form is its entry for a Poly, and
stepwise_normal_form the independent reference. packed_terms is the one
packer of a Poly, dense_terms the one scaler to Gaussian integers,
RewriteEngine.dense_normal_forms the one normalizer to one power of the
rule scale. summed_terms merges every stream of Q(i) terms, Poly and
packed alike, and _add_scaled every Gaussian-integer one. The engine also
enumerates a degree box of normal-form keys (RewriteEngine.box), relabels
keys (swapped), writes keys in the text of poly_format (format), and turns
keys and dense polynomials back into Monomial and Poly (monomial, poly)
for the references. Every polynomial text, toric's too, is written by
_joined, joining terms, and _monomial_text, as Monomial.__str__ does.
"""

from __future__ import annotations

import re as _re
from collections.abc import Iterable, Mapping
from math import gcd, lcm
from operator import add
from typing import TYPE_CHECKING, Tuple, Union

from .gaussian import ONE, ZERO, GaussianRational, InputError, ScalarParseError, _parse_int, gq, gq_format, gq_parse

if TYPE_CHECKING:
    from .presentation import TrinomialPresentation

Gen = Tuple


class UnknownGenerator(InputError):
    """A generator name outside the allowed alphabet."""


class PolyParseError(InputError):
    """Raised when polynomial text cannot be parsed."""


class NotDivisible(ValueError):
    """exact_divide was asked for a quotient that does not exist."""


class DegreeOverflow(InputError):
    """A monomial of the dense form has total degree DEGREE_BOUND or more."""


def tvar(i: int, j: int) -> Gen:
    """T_ij as its sort key (1, i, ~j). Not -j: as hash(-1) == hash(-2), T_i1
    and T_i2 (and S1, S2) would hash alike in every dict and set."""
    return (1, i, ~j)


def svar(k: int) -> Gen:
    """S_k as its sort key (0, ~k); see tvar."""
    return (0, ~k)


def gen_name(g: Gen) -> str:
    if g[0]:
        return f"T{g[1]}_{~g[2]}"
    return f"S{~g[1]}"


_GEN_RE = _re.compile(r"^(?:T([0-9]+)_([0-9]+)|S([0-9]+))$")


def parse_gen_name(name: str) -> Gen:
    m = _GEN_RE.match(name)
    if not m:
        raise UnknownGenerator(f"bad generator name: {name!r}")
    if m.group(1) is not None:
        return tvar(_parse_int(m.group(1), UnknownGenerator), _parse_int(m.group(2), UnknownGenerator))
    return svar(_parse_int(m.group(3), UnknownGenerator))


def _items(data):
    """The (key, value) pairs of a mapping, or data itself, taken to be such
    pairs. Plain dicts and tuples are recognized before the Mapping ABC."""
    if isinstance(data, dict):
        return data.items()
    if isinstance(data, tuple) or not isinstance(data, Mapping):
        return data
    return data.items()


class Monomial:
    """An immutable sparse exponent vector, hashable and totally ordered."""

    __slots__ = ("_pairs", "_hash")

    def __init__(self, exps: Union[Mapping[Gen, int], Iterable[Tuple[Gen, int]]] = ()):
        merged: dict = {}
        for g, e in _items(exps):
            if e:
                merged[g] = merged.get(g, 0) + e
        for g, e in merged.items():
            if e < 0:
                raise ValueError(f"negative exponent for {gen_name(g)}")
        pairs = tuple(sorted(((g, e) for g, e in merged.items() if e), reverse=True))
        self._pairs = pairs
        self._hash = hash(pairs)

    @staticmethod
    def _of(pairs: tuple) -> "Monomial":
        """Wrap (generator, exponent) pairs that are already merged, nonzero
        and in decreasing generator order, without checking."""
        out = Monomial.__new__(Monomial)
        out._pairs = pairs
        out._hash = hash(pairs)
        return out

    @property
    def pairs(self) -> tuple:
        return self._pairs

    def degree(self) -> int:
        return sum(e for _, e in self._pairs)

    def exponent(self, g: Gen) -> int:
        for gen, e in self._pairs:
            if gen == g:
                return e
        return 0

    def variables(self) -> tuple:
        return tuple(g for g, _ in self._pairs)

    def is_one(self) -> bool:
        return not self._pairs

    def __mul__(self, other: "Monomial") -> "Monomial":
        return _merge(self, other, 1)

    def divides(self, other: "Monomial") -> bool:
        other_map = dict(other._pairs)
        return all(other_map.get(g, 0) >= e for g, e in self._pairs)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return _merge(self, other, -1)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._pairs == other._pairs

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Monomial"):
        return self._pairs < other._pairs

    def __le__(self, other: "Monomial"):
        return self._pairs <= other._pairs

    def __gt__(self, other: "Monomial"):
        return self._pairs > other._pairs

    def __ge__(self, other: "Monomial"):
        return self._pairs >= other._pairs

    def __str__(self):
        return _monomial_text((gen_name(g), e) for g, e in self._pairs) or "1"

    def __repr__(self):
        return f"Monomial({self})"


MONO_ONE = Monomial()


def _merge(a: Monomial, b: Monomial, sign: int) -> Monomial:
    """a * b for sign 1, a / b for sign -1: one merge of the two pair
    tuples, both in decreasing generator order. Raises NotDivisible when
    a quotient would have a negative exponent."""
    bp = b._pairs
    if not bp:
        return a
    ap = a._pairs
    na, nb = len(ap), len(bp)
    pairs = []
    i = j = 0
    while i < na and j < nb:
        ga, gb = ap[i][0], bp[j][0]
        if ga > gb:
            pairs.append(ap[i])
            i += 1
            continue
        if ga < gb:
            if sign < 0:
                break
            pairs.append(bp[j])
        else:
            e = ap[i][1] + sign * bp[j][1]
            if e < 0:
                break
            if e:
                pairs.append((ga, e))
            i += 1
        j += 1
    if j < nb:
        if sign < 0:
            raise NotDivisible(f"{a} not divisible by {b}")
        pairs.extend(bp[j:])
    elif i < na:
        pairs.extend(ap[i:])
    return Monomial._of(tuple(pairs))


def summed_terms(terms) -> dict:
    """The sum of (key, coefficient) pairs, a key being a Monomial or packed,
    as {key: nonzero coefficient} in first-seen order, zeros skipped and a
    cancelled key dropped: the only merger of GaussianRational terms."""
    acc: dict = {}
    for key, c in terms:
        if c:
            cur = acc.get(key)
            new = c if cur is None else cur + c
            if new:
                acc[key] = new
            else:
                del acc[key]
    return acc


class Poly:
    """A polynomial with exact Gaussian rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Monomial, GaussianRational], Iterable] = ()):
        self._terms = summed_terms(
            (m if isinstance(m, Monomial) else Monomial(m), c if isinstance(c, GaussianRational) else gq(c))
            for m, c in _items(terms)
        )

    @staticmethod
    def _of(terms: dict) -> "Poly":
        """Wrap a finished dict of nonzero coefficients, without copying."""
        out = Poly.__new__(Poly)
        out._terms = terms
        return out

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c) -> "Poly":
        return Poly({MONO_ONE: c if isinstance(c, GaussianRational) else gq(c)})

    @staticmethod
    def generator(g: Gen) -> "Poly":
        return Poly._of({Monomial(((g, 1),)): ONE})

    @staticmethod
    def monomial(m: Monomial, c=ONE) -> "Poly":
        return Poly({m: c})

    @property
    def terms(self) -> dict:
        return self._terms

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda t: t[0], reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def coefficient(self, m: Monomial) -> GaussianRational:
        return self._terms.get(m, ZERO)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(m.degree() for m in self._terms)

    def lead_monomial(self) -> Monomial:
        if not self._terms:
            raise ValueError("zero polynomial has no lead monomial")
        return max(self._terms)

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._of(summed_terms(t for p in (self, other) for t in p._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return Poly._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, GaussianRational)):
            c = other if isinstance(other, GaussianRational) else gq(other)
            if not c:
                return Poly.zero()
            return Poly._of({m: cc * c for m, cc in self._terms.items()})
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return Poly._of(summed_terms(_products(self, other)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def substitute(self, assignment: Mapping[Gen, "Poly"]) -> "Poly":
        """Replace each generator by a polynomial (missing ones stay)."""
        terms = []
        for m, c in self._terms.items():
            term = Poly.constant(c)
            for g, e in m.pairs:
                repl = assignment.get(g)
                if repl is None:
                    term = term * Poly.monomial(Monomial(((g, e),)))
                else:
                    term = term * repl**e
            terms += term._terms.items()
        return Poly._of(summed_terms(terms))

    def __eq__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        return poly_format(self)

    def __repr__(self):
        return f"Poly({poly_format(self)})"


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, GaussianRational)):
        return Poly.constant(value)
    return NotImplemented


def _products(p: Poly, q: Poly):
    """The terms of p * q, unmerged: each term of p times each of q."""
    q_terms = q.terms.items()
    for m1, c1 in p.terms.items():
        for m2, c2 in q_terms:
            yield m1 * m2, c1 * c2


def partial_derivative(p: Poly, g: Gen) -> Poly:
    """dp/dg. No terms merge: m -> m / g is injective on monomials with g."""
    unit = Monomial._of(((g, 1),))
    return Poly._of({m / unit: c * e for m, c in p.terms.items() if (e := m.exponent(g))})


# The dense form keys a monomial x^e in n generators by one int, its packed
# exponent vector: e[k] in the EXPONENT_BITS-wide field k, and the total
# degree in field n, the top one, so that multiplying two monomials is one
# integer addition and comparing keys compares total degrees first. Valid
# keys have total degree below DEGREE_BOUND; then every field is in range
# and no addition carries out of one, so the degree field of a key is
# checked wherever a key could leave that range. A dense polynomial is a
# dict from keys to (real, imaginary) int pairs, a Gaussian-integer
# multiple of the polynomial it stands for; the Leibniz step and a sum
# keep cancelled entries as (0, 0). The positions are a presentation's
# generator_index. Only this module reads the fields of a key; other modules
# ask a RewriteEngine for a key's degree, generators, Monomial, quotient, swap
# or text.
EXPONENT_BITS = 32
EXPONENT_MASK = (1 << EXPONENT_BITS) - 1
DEGREE_BOUND = 1 << EXPONENT_BITS


def check_degree(degree: int) -> None:
    """Raise DegreeOverflow unless a total degree fits the dense form."""
    if degree >= DEGREE_BOUND:
        raise DegreeOverflow(
            f"a monomial reaches total degree 2^{EXPONENT_BITS}, the bound of the dense form"
        )


def pack(exps: Iterable[Tuple[Gen, int]], index: Mapping[Gen, int]) -> int:
    """The dense key of the monomial with exponent e at generator g for each
    (g, e) in exps, over the positions of index (a range(n) makes the
    positions their own generators). Raises DegreeOverflow at a total
    degree of DEGREE_BOUND or more."""
    key = degree = 0
    for g, e in exps:
        key += e << (EXPONENT_BITS * index[g])
        degree += e
    check_degree(degree)
    return key + (degree << (EXPONENT_BITS * len(index)))


def unpack(key: int, n: int) -> tuple:
    """The exponent vector of length n of a dense key."""
    return tuple((key >> (EXPONENT_BITS * k)) & EXPONENT_MASK for k in range(n))


_NOT_HERE = "{} is not a generator of this presentation"


def _reject_foreign(p: Poly, known, message: str = _NOT_HERE) -> None:
    """Raise UnknownGenerator, message naming the first generator of p
    outside known in p's term order, if there is one. Callers check their
    input before normalizing it, where a foreign term may cancel."""
    for m in p.terms:
        for g, _ in m.pairs:
            if g not in known:
                raise UnknownGenerator(message.format(gen_name(g)))


def packed_terms(p: Poly, index: Mapping[Gen, int], message: str = _NOT_HERE) -> dict:
    """p as {key: coefficient} over index. Raises UnknownGenerator as
    _reject_foreign does, else DegreeOverflow at total degree DEGREE_BOUND."""
    try:
        return {pack(m.pairs, index): c for m, c in p.terms.items()}
    except (KeyError, DegreeOverflow):
        _reject_foreign(p, index, message)
        raise


def dense_terms(polys: Iterable[Mapping]):
    """(s, dense) for dicts from keys to nonzero GaussianRational (as from
    packed_terms): s the least positive integer clearing every denominator,
    and dense each s * p in Gaussian integers, in p's key order; the only
    code that takes an lcm of coefficient denominators."""
    polys = list(polys)
    s = lcm(*[c._abd[2] for p in polys for c in p.values()])
    dense = []
    for p in polys:
        terms = {}
        for key, c in p.items():
            a, b, d = c._abd
            k = s // d
            terms[key] = (a * k, b * k)
        dense.append(terms)
    return s, dense


def _add_scaled(acc: dict, m: int, a: int, b: int, terms) -> None:
    """Add (a + bi) * x^m * terms into a dense dict, terms being (key,
    (re, im)) pairs."""
    get = acc.get
    for t, (c, d) in terms:
        key = m + t
        re, im = a * c - b * d, a * d + b * c
        cur = get(key)
        if cur is not None:
            re, im = re + cur[0], im + cur[1]
        acc[key] = (re, im)


def dense_combination(p: dict, q: dict, a: int, b: int) -> dict:
    """p + (a + bi) * q for dense dicts free of zero coefficients, with the
    cancelled entries dropped."""
    acc = dict(p)
    _add_scaled(acc, 0, a, b, q.items())
    return {m: c for m, c in acc.items() if c[0] or c[1]}


def dense_leibniz(p: dict, parts) -> dict:
    """The Leibniz rule on a dense dict: the sum over the
    RewriteEngine.leibniz_part pairs (shift, shifted) of dp/dx_k * image_k,
    not reduced. The inner loop is _add_scaled's body, inlined as this is
    the hottest loop of the nilpotency walk."""
    acc: dict = {}
    get = acc.get
    for m, (a, b) in p.items():
        for shift, shifted in parts:
            e = (m >> shift) & EXPONENT_MASK
            if e:
                a_e, b_e = a * e, b * e
                for t, (c, d) in shifted:
                    key = m + t
                    re, im = a_e * c - b_e * d, a_e * d + b_e * c
                    cur = get(key)
                    if cur is not None:
                        re, im = re + cur[0], im + cur[1]
                    acc[key] = (re, im)
    return acc


def primitive_part(terms: dict) -> dict:
    """A dict of (re, im) int pairs divided by the gcd of all their parts."""
    g = 0
    for a, b in terms.values():
        g = gcd(g, a, b)
        if g == 1:
            return terms
    if g > 1:
        terms = {m: (a // g, b // g) for m, (a, b) in terms.items()}
    return terms


def exact_divide(p: Poly, divisor) -> Poly:
    """Divide by a monomial, or by a single-term polynomial, exactly.

    Raises NotDivisible with a witness term when any term of p is not
    divisible. This is deliberate: callers use it where divisibility is
    a structural guarantee and a failure means a bug upstream.
    """
    if isinstance(divisor, Poly):
        if len(divisor.terms) != 1:
            raise NotDivisible("divisor must be a single term")
        (dm, dc), = divisor.terms.items()
    elif isinstance(divisor, Monomial):
        dm, dc = divisor, ONE
    else:
        raise TypeError("divisor must be a Monomial or single-term Poly")
    if not dc:
        raise ZeroDivisionError("division by zero term")
    acc: dict = {}
    for m, c in p.terms.items():
        if not dm.divides(m):
            raise NotDivisible(f"term {m} of {p} is not divisible by {dm}")
        acc[m / dm] = c / dc
    return Poly._of(acc)


class RewriteEngine:
    """The rewrite rules and relations of a presentation in the dense form,
    built once per presentation (TrinomialPresentation.engine) from the
    exponent rows and constants, and the only build of them: the Poly
    rules and relations of the presentation are views of this engine
    (poly_rules, poly_relations).

    scale is the least positive integer that clears every denominator of
    the replacements; each rule reads scale * lead -> scale * replacement.
    relations are the relations, all scaled by the least positive integer
    that clears their denominators. The reduction of each term is
    memoized, shared by the oracle, normal_form and every derivation on
    the presentation: one entry per distinct key of a nonzero term ever
    reduced, plus one replacement product per distinct vector of
    application counts, freed with the presentation.
    """

    def __init__(self, index: Mapping[Gen, int], rules, relations):
        """rules lists (lead, replacement) and relations lists polynomials,
        a lead being the (generator, exponent) pairs of a monomial, most
        significant generator first, and a polynomial the (pairs, nonzero
        GaussianRational) of its terms, of pairwise distinct monomials."""
        self.index = index
        self._degree_shift = EXPONENT_BITS * len(index)

        def packed(poly):
            return {pack(pairs, index): c for pairs, c in poly}

        self.scale, replacements = dense_terms(packed(repl) for _, repl in rules)
        # per rule: (shift, exponent) of each lead generator, lead key, replacement
        self._rules = tuple(
            (
                tuple((EXPONENT_BITS * index[g], e) for g, e in lead),
                pack(lead, index),
                tuple(repl.items()),
            )
            for (lead, _), repl in zip(rules, replacements)
        )
        self._relation_scale, relations = dense_terms(map(packed, relations))
        self.relations = tuple(relations)
        self._reductions: dict = {}  # key -> _reduce(key)
        self._powers: dict = {}  # application counts -> product of replacement powers
        self._monomials: dict = {}  # key -> monomial(key)
        # (generator, shift) of each field, most significant generator first:
        # the order of a Monomial's pairs, in which lex order on the fields
        # of two keys is the Monomial order
        self._fields = tuple(sorted(((g, EXPONENT_BITS * k) for g, k in index.items()), reverse=True))
        self._names = tuple((gen_name(g), shift) for g, shift in self._fields)

    def poly_rules(self) -> dict:
        """The rules as Poly: lead Monomial -> replacement."""
        poly, scale = self.poly, self.scale
        return {self.monomial(lead): poly(dict(repl), scale) for _, lead, repl in self._rules}

    def poly_relations(self) -> tuple:
        """The relations as Poly, exact: each dense one over its scale."""
        return tuple(self.poly(rel, self._relation_scale) for rel in self.relations)

    def degree(self, key: int) -> int:
        """The total degree of a key."""
        return key >> self._degree_shift

    def monomial(self, key: int) -> Monomial:
        """The Monomial of a key, memoized."""
        m = self._monomials.get(key)
        if m is None:
            m = self._monomials[key] = Monomial._of(
                tuple((g, e) for g, shift in self._fields if (e := (key >> shift) & EXPONENT_MASK))
            )
        return m

    def poly(self, terms: dict, scale: int) -> Poly:
        """The Poly of which the dense polynomial terms, free of zero
        coefficients, is scale times."""
        monomial = self.monomial
        return Poly._of({monomial(m): GaussianRational._of(a, b, scale) for m, (a, b) in terms.items()})

    def box(self, max_degree: int, weights) -> list:
        """(key, weight) for every normal-form monomial of total degree at
        most max_degree, in increasing Monomial order.

        weights holds one weight vector per generator, in generator order;
        a key's weight, the sum of its generators' vectors with
        multiplicity, is added up as the enumeration goes. The enumeration
        runs through the fields most significant first, each exponent
        upwards, and cuts a branch where the last field of a rule's lead
        reaches the lead's exponent, since every larger exponent there is
        divisible by the lead too.
        """
        fields = self._fields
        position = {shift: p for p, (_, shift) in enumerate(fields)}
        cuts: list = [[] for _ in fields]
        for support, _, _ in self._rules:
            cuts[max(position[shift] for shift, _ in support)].append(support)
        unit = 1 << self._degree_shift
        steps = [
            (unit + (1 << shift), weights[self.index[g]], cuts[p])
            for p, (g, shift) in enumerate(fields)
        ]
        out: list = []
        last = len(steps) - 1

        def walk(p, remaining, key, weight):
            step, vector, leads = steps[p]
            while not (
                leads
                and any(
                    all(((key >> shift) & EXPONENT_MASK) >= e for shift, e in lead)
                    for lead in leads
                )
            ):
                if p == last:
                    out.append((key, weight))
                else:
                    walk(p + 1, remaining, key, weight)
                if not remaining:
                    break
                remaining -= 1
                key += step
                weight = tuple(map(add, weight, vector))

        walk(0, max_degree, 0, (0,) * len(weights[0]))
        return out

    def in_normal_form(self, keys: Iterable[int]) -> bool:
        """Whether no key is divisible by a rule's lead, each looked up in
        (or added to) the memo of term reductions."""
        get, reduce = self._reductions.get, self._reduce
        return not any((get(key) or reduce(key))[2] for key in keys)

    def content(self, terms: dict) -> tuple:
        """(pairs, quotient) for a nonzero dense dict: pairs lists (generator,
        exponent) of the greatest monomial dividing every key, most
        significant generator first, and quotient is terms divided by it."""
        keys = iter(terms)
        first = next(keys)
        if len(terms) == 1:
            return self.monomial(first).pairs, {0: terms[first]}
        found = [(g, s, e) for g, s in self._fields if (e := (first >> s) & EXPONENT_MASK)]
        for key in keys:
            if not found:
                break
            found = [(g, s, m) for g, s, e in found if (m := min(e, (key >> s) & EXPONENT_MASK))]
        if not found:
            return (), terms
        common = sum(e << s for _, s, e in found)
        common += sum(e for *_, e in found) << self._degree_shift
        return tuple((g, e) for g, _, e in found), {key - common: c for key, c in terms.items()}

    def quotient(self, key: int, divisor: int):
        """The key of x^key / x^divisor; None unless x^divisor divides x^key."""
        fields = ((key >> s) & EXPONENT_MASK >= (divisor >> s) & EXPONENT_MASK for _, s in self._fields)
        return key - divisor if all(fields) else None

    def swapped(self, terms: dict, sigma: Mapping[Gen, Gen]) -> dict:
        """terms, a dict keyed by keys, with the exponents of g and sigma[g]
        exchanged in every key, for sigma a product of transpositions of
        distinct generators, each listed both ways (g -> h and h -> g)."""
        swaps = [(EXPONENT_BITS * self.index[g], EXPONENT_BITS * self.index[h]) for g, h in sigma.items() if g < h]
        out = {}
        for key, c in terms.items():
            for s, t in swaps:
                e = ((key >> t) & EXPONENT_MASK) - ((key >> s) & EXPONENT_MASK)
                key += (e << s) - (e << t)
            out[key] = c
        return out

    def format(self, terms: dict) -> str:
        """poly_format of the polynomial {key: nonzero GaussianRational},
        written off the keys: the terms in decreasing order of their exponent
        vectors, most significant generator first, which is the Monomial
        order, and each key in the text of Monomial.__str__."""
        items = terms.items()
        if len(terms) > 1:
            fields = self._fields
            items = sorted(items, key=lambda t: [(t[0] >> s) & EXPONENT_MASK for _, s in fields], reverse=True)
        names = self._names
        return _joined(
            (c, _monomial_text((name, e) for name, s in names if (e := (key >> s) & EXPONENT_MASK)))
            for key, c in items
        )

    def divides_every_key(self, g: Gen, terms: dict) -> bool:
        """Whether the generator g divides every key of a dense dict."""
        shift = EXPONENT_BITS * self.index[g]
        return all((key >> shift) & EXPONENT_MASK for key in terms)

    def weight(self, key: int, sparse: Mapping[Gen, tuple], rank: int) -> tuple:
        """The weight of length rank of a key, sparse giving each
        generator's weight as (basis index, value) pairs (Grading.sparse)."""
        total = [0] * rank
        for g, shift in self._fields:
            e = (key >> shift) & EXPONENT_MASK
            if e:
                for k, c in sparse[g]:
                    total[k] += c * e
        return tuple(total)

    def leibniz_part(self, g: Gen, image) -> tuple:
        """(EXPONENT_BITS * k, image / x_k) for the derivation sending g, the
        generator at position k, to image, given as (key, (re, im)) pairs:
        adding a key m to these keys gives the terms of dx^m/dx_k * image / m[k].

        A term of image without x_k gets a field k of -1 in its shifted key,
        which borrows from the field above; dense_leibniz only adds it to keys
        m with m[k] >= 1, and the sum is exact."""
        shift = EXPONENT_BITS * self.index[g]
        unit = (1 << shift) + (1 << self._degree_shift)
        return shift, tuple((t - unit, c) for t, c in image)

    def dense_normal_form(self, terms: dict) -> Tuple[dict, int]:
        """(nf, top) for a dense polynomial: nf is scale**top times its normal
        form, with no zero coefficient, and top the most rule applications
        any term needs. One pass per term suffices because replacements
        contain no lead. When no rule applies, nf is the nonzero terms in
        their own order (terms itself, if none cancelled) and top is 0.

        Raises DegreeOverflow when a key of terms, or a term of the result,
        has total degree DEGREE_BOUND or more. A key past the bound is
        never in the memo, so each is checked on its memo miss, and a
        cancelled entry is checked where it is skipped.
        """
        get, reduce = self._reductions.get, self._reduce
        pending = []
        top = 0
        for m, c in terms.items():
            if c[0] or c[1]:
                hit = get(m) or reduce(m)
                if hit[2] > top:
                    top = hit[2]
                pending.append((hit, c))
            else:
                check_degree(m >> self._degree_shift)
        if not top:  # no rule applies: the nonzero terms are the normal form
            nonzero = len(pending) == len(terms)
            return (terms if nonzero else {m: c for m, c in terms.items() if c[0] or c[1]}), 0
        s = self.scale
        out: dict = {}
        for (m, factor, total), (a, b) in pending:
            f = s ** (top - total)
            _add_scaled(out, m, a * f, b * f, factor)
        return {m: c for m, c in out.items() if c[0] or c[1]}, top

    def dense_normal_forms(self, polys: Iterable[dict]) -> Tuple[list, int]:
        """(forms, top): scale**top times the normal form of each dense
        polynomial, so that every linear relation among them is exact; the
        only code that brings normal forms to one power of scale."""
        forms = [self.dense_normal_form(p) for p in polys]
        top = max((t for _, t in forms), default=0)
        scaled = [(nf, self.scale ** (top - t)) for nf, t in forms]
        forms = [nf if f == 1 else {m: (a * f, b * f) for m, (a, b) in nf.items()} for nf, f in scaled]
        return forms, top

    def _reduce(self, m: int) -> tuple:
        """(reduced key, replacement product, number of rule applications)
        for the term x^m, stored in the memo: scale**total * x^m reduces to
        x^reduced * product. Raises DegreeOverflow, and stores nothing,
        unless x^m and every term of x^reduced * product have total degree
        below DEGREE_BOUND."""
        shift = self._degree_shift
        degree = m >> shift
        check_degree(degree)
        qs = []
        for support, _, _ in self._rules:
            q = DEGREE_BOUND
            for w, l in support:
                e = ((m >> w) & EXPONENT_MASK) // l
                if e < q:
                    q = e
                    if not q:
                        break
            qs.append(q)
        qs = tuple(qs)
        reduced, total = m, sum(qs)
        if total:
            for (_, lead, repl), q in zip(self._rules, qs):
                if q:
                    reduced -= q * lead
                    degree += q * ((max(repl)[0] >> shift) - (lead >> shift))
            check_degree(degree)
        factor = self._powers.get(qs)
        if factor is None:
            terms = {0: (1, 0)}
            for (_, _, repl), q in zip(self._rules, qs):
                for _ in range(q):
                    nxt: dict = {}
                    for t, (a, b) in terms.items():
                        _add_scaled(nxt, t, a, b, repl)
                    terms = nxt
            factor = self._powers[qs] = tuple((t, c) for t, c in terms.items() if c[0] or c[1])
        hit = self._reductions[m] = (reduced, factor, total)
        return hit


def normal_form(p: Poly, presentation: TrinomialPresentation) -> Poly:
    """The normal form of p modulo the rewrite rules of a presentation.

    This is the Poly-level entry to the presentation's RewriteEngine, and
    shares its memo of term reductions. When no term of p is divisible by
    a rule's lead, p is already in normal form and is returned itself,
    before any dense output is built.

    Raises UnknownGenerator for a generator outside the presentation, and
    DegreeOverflow for a term, or a term of its reduction, of total degree
    DEGREE_BOUND or more.
    """
    engine = presentation.engine
    terms = packed_terms(p, engine.index)
    if engine.in_normal_form(terms):
        return p
    scale, (dense,) = dense_terms((terms,))
    nf, top = engine.dense_normal_form(dense)
    return engine.poly(nf, scale * engine.scale**top)


def stepwise_normal_form(p: Poly, rules: Mapping[Monomial, Poly]) -> Poly:
    """The normal form of p by single-step rewrites lead -> replacement to
    a fixed point: the slow, evidently correct reference, independent of
    the dense engine, that the tests compare normal_form with."""
    current = p
    while True:
        target = None
        for m in current.terms:
            for lead, repl in rules.items():
                if lead.divides(m):
                    target = (m, lead, repl)
                    break
            if target:
                break
        if target is None:
            return current
        m, lead, repl = target
        c = current.coefficient(m)
        current = current - Poly.monomial(m, c) + Poly.monomial(m / lead, c) * repl


def poly_format(p: Poly) -> str:
    """Canonical text form: terms in decreasing monomial order.

    Pure real or pure imaginary coefficients print bare (3*x, -2i*x is
    written -2i*x without parentheses only when the coefficient has a
    single part; mixed coefficients like 1+i are parenthesized).
    RewriteEngine.format writes a polynomial on packed keys in the same
    text.
    """
    return _joined((c, _monomial_text((gen_name(g), e) for g, e in m.pairs)) for m, c in p.sorted_terms())


def _monomial_text(powers) -> str:
    """The text of a monomial from its (generator name, exponent) pairs, most
    significant generator first; "" for the monomial 1."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers)


def _joined(terms) -> str:
    """The text of a polynomial from its (nonzero coefficient, _monomial_text)
    pairs in decreasing monomial order; "0" when there are none."""
    chunks = []
    for c, m in terms:
        cs = gq_format(c)
        needs_paren = ("+" in cs[1:]) or ("-" in cs[1:])
        if not m:
            body = f"({cs})" if needs_paren else cs
        elif cs == "1":
            body = m
        elif cs == "-1":
            body = f"-{m}"
        elif needs_paren:
            body = f"({cs})*{m}"
        else:
            body = f"{cs}*{m}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append(" - " + body[1:])
        else:
            chunks.append(" + " + body)
    return "".join(chunks) or "0"


def poly_parse(text: str, allowed: Iterable[Gen] = None) -> Poly:
    """Parse polynomial text, the grammar of poly_terms. Repeated terms
    merge in first-seen order, and terms that cancel are dropped.

    When ``allowed`` is given, generator names outside it raise
    UnknownGenerator.
    """
    allowed_set = set(allowed) if allowed is not None else None
    summed = summed_terms(
        (Monomial(pairs), GaussianRational._of(sign * a, sign * b, d))
        for sign, pairs, (a, b, d) in poly_terms(text, allowed_set)
    )
    return Poly._of(summed)


# the signs at which a term can end, and the parentheses that nest them;
# a group without inner parentheses is one mark, as its signs never end
# a term and it leaves the depth as it was
_TERM_MARKS = _re.compile(r"\([^()]*\)|[()+-]")
# what follows a generator's '^': an optionally signed run of ASCII digits
_EXPONENT_RE = _re.compile(r"\s*[+-]?[0-9]+\s*")


def poly_terms(text: str, allowed=None, factors: dict = None) -> list:
    """The terms of polynomial text: terms joined by + or -, factors by '*'.

    A factor is a parenthesized scalar, a bare scalar (gaussian.gq_parse),
    or a generator name (parse_gen_name) with an optional ^exponent, an
    optionally signed run of ASCII digits that is not negative.
    Whitespace is free between tokens, and a sign right after '*', '^' or
    '/' belongs to the factor. The whole text is split into terms before
    any term is read.

    Returns (sign, pairs, scalar) per term, in text order: sign is 1 or
    -1, pairs lists (generator, exponent) per generator factor, unmerged,
    and scalar is the triple (a, b, d) of the product of the scalar
    factors, in lowest terms. Raises PolyParseError for malformed text,
    and UnknownGenerator for a bad generator name or, when allowed is
    given, a generator outside it. factors, when given, memoizes the
    reading of each factor text, over every call with the same allowed.
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    sign, i, n = 1, 0, len(s)
    while i < n and s[i] in "+- \t":
        if s[i] == "-":
            sign = -sign
        i += 1
    chunks = []
    start = i
    depth = 0
    for mark in _TERM_MARKS.finditer(s, i):
        ch = mark.group()
        if len(ch) > 1:
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolyParseError("unbalanced parentheses")
        elif not depth:
            prev = s[start : mark.start()].rstrip()
            if prev and prev[-1] in "*^/":
                continue
            if not prev:
                raise PolyParseError("empty term")
            chunks.append((sign, prev))
            sign = 1 if ch == "+" else -1
            start = mark.end()
    if depth:
        raise PolyParseError("unbalanced parentheses")
    last = s[start:].strip()
    if not last:
        raise PolyParseError("dangling sign")
    chunks.append((sign, last))
    if factors is None:
        factors = {}  # factor text -> _factor(text, allowed)
    out = []
    for sign, chunk in chunks:
        a, b, d = 1, 0, 1
        pairs = []
        for f in chunk.split("*"):
            f = f.strip()
            factor = factors.get(f)
            if factor is None:
                if not f:
                    raise PolyParseError(f"empty factor in {chunk!r}")
                factor = factors[f] = _factor(f, allowed)
            if len(factor) == 2:
                pairs.append(factor)
            else:
                c, e, k = factor
                a, b, d = a * c - b * e, a * e + b * c, d * k
        if d != 1:
            g = gcd(a, b, d)
            a, b, d = a // g, b // g, d // g
        out.append((sign, pairs, (a, b, d)))
    return out


def _factor(f: str, allowed) -> tuple:
    """A nonempty stripped factor: a scalar as its triple (a, b, d), a
    generator as (generator, exponent)."""
    scalar = f
    if f[0] == "(":
        if not f.endswith(")"):
            raise PolyParseError(f"bad parenthesized scalar {f!r}")
        scalar = f[1:-1]
    elif f[0] not in "0123456789i+-":
        name, caret, exp_text = f.partition("^")
        name = name.strip()
        g = parse_gen_name(name)
        if allowed is not None and g not in allowed:
            raise UnknownGenerator(f"generator {name} not in this presentation")
        if not caret:
            return g, 1
        if not _EXPONENT_RE.fullmatch(exp_text):
            raise PolyParseError(f"bad exponent in {f!r}")
        e = _parse_int(exp_text, PolyParseError)
        if e < 0:
            raise PolyParseError("negative exponent")
        return g, e
    try:
        return gq_parse(scalar)._abd
    except ScalarParseError as exc:
        raise PolyParseError(str(exc)) from None
