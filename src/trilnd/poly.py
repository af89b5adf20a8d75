"""Sparse multivariate polynomials over Q(i) on trinomial generator alphabets.

Generators are plain tuples: ("T", i, j) is variable j of block i and
("S", k) is the k-th free variable. A Monomial is an immutable sparse
exponent map, a Poly maps monomials to nonzero GaussianRational
coefficients.

The monomial order used everywhere is block order: any T beats any S,
higher block index beats lower, and inside one block the variable with
the smaller j is the more significant one (plain lexicographic reading).
Free variables compare by index, smaller k more significant. Under this
order the highest-index block monomial of each defining relation is the
lead term.

Normal forms come from one rewrite engine, a presentation's
dense_normal_form on the packed dense form below; normal_form is its
entry for a Poly, and stepwise_normal_form the independent reference.
"""

from __future__ import annotations

import re as _re
from collections.abc import Iterable, Mapping
from math import gcd, lcm
from typing import TYPE_CHECKING, Tuple, Union

from .gaussian import ONE, ZERO, GaussianRational, ScalarParseError, gq, gq_format, gq_parse

if TYPE_CHECKING:
    from .presentation import TrinomialPresentation

Gen = Tuple


class UnknownGenerator(ValueError):
    """A generator name outside the allowed alphabet."""


class PolyParseError(ValueError):
    """Raised when polynomial text cannot be parsed."""


class NotDivisible(ValueError):
    """exact_divide was asked for a quotient that does not exist."""


class DegreeOverflow(ValueError):
    """A monomial of the dense form has total degree DEGREE_BOUND or more."""


def tvar(i: int, j: int) -> Gen:
    return ("T", i, j)


def svar(k: int) -> Gen:
    return ("S", k)


def gen_name(g: Gen) -> str:
    if g[0] == "T":
        return f"T{g[1]}_{g[2]}"
    return f"S{g[1]}"


_GEN_RE = _re.compile(r"^(?:T(\d+)_(\d+)|S(\d+))$")


def parse_gen_name(name: str) -> Gen:
    m = _GEN_RE.match(name)
    if not m:
        raise UnknownGenerator(f"bad generator name: {name!r}")
    if m.group(1) is not None:
        return tvar(int(m.group(1)), int(m.group(2)))
    return svar(int(m.group(3)))


def gen_significance(g: Gen):
    """Sort key, larger means more significant in the monomial order."""
    if g[0] == "T":
        return (1, g[1], -g[2])
    return (0, -g[1])


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

    __slots__ = ("_pairs", "_key", "_hash")

    def __init__(self, exps: Union[Mapping[Gen, int], Iterable[Tuple[Gen, int]]] = ()):
        items = _items(exps)
        merged: dict = {}
        for g, e in items:
            if e:
                merged[g] = merged.get(g, 0) + e
        for g, e in merged.items():
            if e < 0:
                raise ValueError(f"negative exponent for {gen_name(g)}")
        pairs = tuple(
            sorted(
                ((g, e) for g, e in merged.items() if e),
                key=lambda it: gen_significance(it[0]),
                reverse=True,
            )
        )
        self._pairs = pairs
        self._key = tuple((gen_significance(g), e) for g, e in pairs)
        self._hash = hash(pairs)

    @staticmethod
    def _of(pairs: tuple) -> "Monomial":
        """Wrap (generator, exponent) pairs that are already merged, nonzero
        and in decreasing significance, without checking."""
        out = Monomial.__new__(Monomial)
        out._pairs = pairs
        out._key = tuple((gen_significance(g), e) for g, e in pairs)
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
        if not other._pairs:
            return self
        d = dict(self._pairs)
        for g, e in other._pairs:
            d[g] = d.get(g, 0) + e
        return Monomial(d)

    def relabel(self, sigma: Mapping[Gen, Gen]) -> "Monomial":
        """Each generator g replaced by sigma.get(g, g); sigma must be one to one.

        Pairs of generators sigma leaves alone are shared with self."""
        pairs = [(sigma[pair[0]], pair[1]) if pair[0] in sigma else pair for pair in self._pairs]
        pairs.sort(key=lambda it: gen_significance(it[0]), reverse=True)
        return Monomial._of(tuple(pairs))

    def divides(self, other: "Monomial") -> bool:
        other_map = dict(other._pairs)
        return all(other_map.get(g, 0) >= e for g, e in self._pairs)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        d = dict(self._pairs)
        for g, e in other._pairs:
            d[g] = d.get(g, 0) - e
            if d[g] < 0:
                raise NotDivisible(f"{self} not divisible by {other}")
        return Monomial(d)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._pairs == other._pairs

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Monomial"):
        return self._key < other._key

    def __le__(self, other: "Monomial"):
        return self._key <= other._key

    def __gt__(self, other: "Monomial"):
        return self._key > other._key

    def __ge__(self, other: "Monomial"):
        return self._key >= other._key

    def __str__(self):
        if not self._pairs:
            return "1"
        out = []
        for g, e in self._pairs:
            out.append(gen_name(g) if e == 1 else f"{gen_name(g)}^{e}")
        return "*".join(out)

    def __repr__(self):
        return f"Monomial({self})"


MONO_ONE = Monomial()


def _add_term(acc: dict, m: Monomial, c: GaussianRational) -> None:
    """Add the nonzero c to the coefficient of m in acc, dropping m if it
    cancels. This is the only place that merges terms."""
    cur = acc.get(m)
    new = c if cur is None else cur + c
    if new:
        acc[m] = new
    else:
        del acc[m]


class Poly:
    """A polynomial with exact Gaussian rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Monomial, GaussianRational], Iterable] = ()):
        items = _items(terms)
        acc: dict = {}
        for m, c in items:
            if not isinstance(m, Monomial):
                m = Monomial(m)
            if not isinstance(c, GaussianRational):
                c = gq(c)
            if c:
                _add_term(acc, m, c)
        self._terms = acc

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
        d = dict(self._terms)
        for m, c in other._terms.items():
            _add_term(d, m, c)
        return Poly._of(d)

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
        acc: dict = {}
        _add_product(acc, self, other)
        return Poly._of(acc)

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
        acc: dict = {}
        for m, c in self._terms.items():
            term = Poly.constant(c)
            for g, e in m.pairs:
                repl = assignment.get(g)
                if repl is None:
                    term = term * Poly.monomial(Monomial(((g, e),)))
                else:
                    term = term * repl**e
            for tm, tc in term._terms.items():
                _add_term(acc, tm, tc)
        return Poly._of(acc)

    def relabel(self, sigma: Mapping[Gen, Gen]) -> "Poly":
        """Each generator g replaced by sigma.get(g, g); sigma must be one to one."""
        return Poly._of({m.relabel(sigma): c for m, c in self._terms.items()})

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


def _add_product(acc: dict, p: Poly, q: Poly) -> None:
    """Add p * q into the term dict acc."""
    q_terms = q.terms.items()
    for m1, c1 in p.terms.items():
        for m2, c2 in q_terms:
            _add_term(acc, m1 * m2, c1 * c2)


def partial_derivative(p: Poly, g: Gen) -> Poly:
    acc: dict = {}
    for m, c in p.terms.items():
        e = m.exponent(g)
        if e:
            dm = Monomial(tuple((gg, ee - 1 if gg == g else ee) for gg, ee in m.pairs))
            _add_term(acc, dm, c * e)
    return Poly._of(acc)


# The dense form keys a monomial x^e in n generators by one int, its packed
# exponent vector: e[k] in the EXPONENT_BITS-wide field k, and the total
# degree in field n, the top one, so that multiplying two monomials is one
# integer addition and comparing keys compares total degrees first. Valid
# keys have total degree below DEGREE_BOUND; then every field is in range
# and no addition carries out of one, so the degree field of a key is
# checked wherever a key could leave that range.
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
    (g, e) in exps, over the n = len(index) positions of index (a range(n)
    makes the positions their own generators). Raises DegreeOverflow when
    its total degree is DEGREE_BOUND or more, so that no exponent of a
    returned key overflows its field."""
    key = degree = 0
    for g, e in exps:
        key += e << (EXPONENT_BITS * index[g])
        degree += e
    check_degree(degree)
    return key + (degree << (EXPONENT_BITS * len(index)))


def unpack(key: int, n: int) -> tuple:
    """The exponent vector of length n of a dense key."""
    return tuple((key >> (EXPONENT_BITS * k)) & EXPONENT_MASK for k in range(n))


def integer_terms(polys: Iterable[Poly], index: Mapping[Gen, int]):
    """Scale polynomials by one positive integer into dense Gaussian-integer form.

    Returns (s, dense): s is the least positive integer that clears every
    denominator of every coefficient, and dense lists s * p for each p as
    a dict from dense keys, with generator g at position index[g], to
    (real, imaginary) int pairs. Every generator of polys must be in index.
    Raises DegreeOverflow for a monomial of total degree DEGREE_BOUND or more.
    """
    polys = list(polys)
    s = 1
    for p in polys:
        for c in p.terms.values():
            s = lcm(s, c._abd[2])
    dense = []
    for p in polys:
        terms = {}
        for m, c in p.terms.items():
            a, b, d = c._abd
            k = s // d
            terms[pack(m.pairs, index)] = (a * k, b * k)
        dense.append(terms)
    return s, dense


def _add_scaled(acc: dict, m: int, a: int, b: int, terms) -> None:
    """Add (a + bi) * x^m * terms into a dense dict, terms being (key,
    (re, im)) pairs in integer_terms form. Cancelled entries stay as (0, 0)."""
    get = acc.get
    for t, (c, d) in terms:
        key = m + t
        re, im = a * c - b * d, a * d + b * c
        cur = get(key)
        if cur is not None:
            re, im = re + cur[0], im + cur[1]
        acc[key] = (re, im)


def leibniz_part(k: int, image, n: int) -> tuple:
    """(EXPONENT_BITS * k, image / x_k) for the derivation sending generator k
    of n to image, given as (key, (re, im)) pairs: adding a key m to these
    keys gives the terms of dx^m/dx_k * image / m[k].

    A term of image without x_k gets a field k of -1 in its shifted key,
    which borrows from the field above; dense_leibniz only adds it to keys
    m with m[k] >= 1, and the sum is exact."""
    unit = (1 << (EXPONENT_BITS * k)) + (1 << (EXPONENT_BITS * n))
    return EXPONENT_BITS * k, tuple((t - unit, c) for t, c in image)


def dense_leibniz(p: dict, parts) -> dict:
    """The Leibniz rule on a dense dict: the sum over the leibniz_part pairs
    (shift, shifted) of dp/dx_k * image_k, not reduced. Cancelled entries stay
    as (0, 0)."""
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


def normal_form(p: Poly, presentation: TrinomialPresentation) -> Poly:
    """The normal form of p modulo the rewrite rules of a presentation.

    This is the Poly-level entry to the presentation's one rewrite
    engine, dense_normal_form, and shares its memo of term reductions.
    When no term of p is divisible by a rule's lead, p is already in
    normal form and is returned itself, before any dense output is built.

    Raises UnknownGenerator for a generator outside the presentation, and
    DegreeOverflow for a term, or a term of its reduction, of total degree
    DEGREE_BOUND or more.
    """
    index = presentation.generator_index
    try:
        keys = [pack(m.pairs, index) for m in p.terms]
    except KeyError as exc:
        raise UnknownGenerator(
            f"{gen_name(exc.args[0])} is not a generator of this presentation"
        ) from None
    memo = presentation._dense_reductions
    for key in keys:
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = presentation._dense_reduction(key)
        if hit[2]:
            break
    else:
        return p
    scale, (terms,) = integer_terms((p,), index)
    nf, top = presentation.dense_normal_form(terms)
    scale *= presentation.integer_rules[0] ** top
    gens = presentation.generators
    out = {}
    for m, (a, b) in nf.items():
        out[Monomial(zip(gens, unpack(m, len(gens))))] = GaussianRational._of(a, b, scale)
    return Poly._of(out)


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
    """
    if p.is_zero():
        return "0"
    chunks = []
    for m, c in p.sorted_terms():
        cs = gq_format(c)
        needs_paren = ("+" in cs[1:]) or ("-" in cs[1:])
        if m.is_one():
            body = f"({cs})" if needs_paren else cs
        elif c == ONE:
            body = str(m)
        elif c == -ONE:
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
    return "".join(chunks)


def poly_parse(text: str, allowed: Iterable[Gen] = None) -> Poly:
    """Parse polynomial text: terms joined by + or -, factors by '*'.

    A factor is a parenthesized scalar, a bare scalar, or a generator
    name with an optional ^exponent. Whitespace is free between tokens.
    When ``allowed`` is given, generator names outside it raise
    UnknownGenerator.
    """
    allowed_set = set(allowed) if allowed is not None else None
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    acc: dict = {}
    for sign, chunk in _split_terms(s):
        m, c = _parse_term(chunk, allowed_set)
        if c:
            _add_term(acc, m, c * sign)
    return Poly._of(acc)


def _split_terms(s: str):
    terms = []
    depth = 0
    sign = 1
    current = []
    i = 0
    # leading sign
    while i < len(s) and s[i] in "+- \t":
        if s[i] == "-":
            sign = -sign
        i += 1
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolyParseError("unbalanced parentheses")
            current.append(ch)
        elif ch in "+-" and depth == 0:
            prev = "".join(current).rstrip()
            if prev and prev[-1] in "*^/":
                current.append(ch)
            else:
                if not prev:
                    raise PolyParseError("empty term")
                terms.append((sign, prev))
                sign = 1 if ch == "+" else -1
                current = []
        else:
            current.append(ch)
        i += 1
    if depth:
        raise PolyParseError("unbalanced parentheses")
    last = "".join(current).strip()
    if not last:
        raise PolyParseError("dangling sign")
    terms.append((sign, last))
    return terms


def _parse_term(chunk: str, allowed_set):
    """The monomial and the coefficient of one term."""
    factors = [f.strip() for f in chunk.split("*")]
    coeff = ONE
    exps: dict = {}
    for f in factors:
        if not f:
            raise PolyParseError(f"empty factor in {chunk!r}")
        if f.startswith("("):
            if not f.endswith(")"):
                raise PolyParseError(f"bad parenthesized scalar {f!r}")
            coeff = coeff * gq_parse(f[1:-1])
            continue
        if f[0] in "0123456789i" or f[0] in "+-":
            try:
                coeff = coeff * gq_parse(f)
            except ScalarParseError as exc:
                raise PolyParseError(str(exc)) from None
            continue
        name, _, exp_text = f.partition("^")
        g = parse_gen_name(name.strip())
        if allowed_set is not None and g not in allowed_set:
            raise UnknownGenerator(f"generator {name.strip()} not in this presentation")
        if exp_text:
            try:
                e = int(exp_text)
            except ValueError:
                raise PolyParseError(f"bad exponent in {f!r}") from None
            if e < 0:
                raise PolyParseError("negative exponent")
        else:
            e = 1
        exps[g] = exps.get(g, 0) + e
    return Monomial(exps), coeff
