"""Trinomial presentations: validated input data plus derived structure.

A presentation is a family of variable blocks T_i = (T_{i1}, ..., T_{i n_i})
with positive exponent rows l_i, a number d of free variables S_k, and
constants. Two shapes exist:

* type 1: blocks are numbered 1..r and consecutive blocks are tied by
  relations T_i^{l_i} - T_{i+1}^{l_{i+1}} - (a_{i+1} - a_i) with pairwise
  distinct scalars a_i.
* type 2: blocks are numbered 0..r and each consecutive triple satisfies
  alpha*T_i^{l_i} + beta*T_{i+1}^{l_{i+1}} + gamma*T_{i+2}^{l_{i+2}} = 0
  where (alpha, beta, gamma) are the 2x2 minors of a 2 x (r+1) matrix of
  constants with pairwise linearly independent columns.

The defining relations form an oriented rewrite system: the block power
T_j^{l_j} for j >= 2 is the lead of exactly one rule whose replacement
only involves the lowest block(s). Leads live in disjoint variable sets,
so the system is confluent and normal forms are canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional, Sequence, Tuple

from .gaussian import (
    ONE,
    UNITS,
    GaussianRational,
    InputError,
    InternalError,
    ScalarParseError,
    gq,
    gq_factor,
    gq_format,
    gq_nth_root,
    gq_parse,
)
from .poly import (
    Gen,
    Monomial,
    Poly,
    RewriteEngine,
    gen_name,
    pack,
    svar,
    tvar,
)


class PresentationError(InputError):
    """Base class for invalid presentation data."""


class BadShape(PresentationError):
    """Structurally malformed input (lengths, ranges, types)."""


class NonPositiveExponent(PresentationError):
    """Some exponent l_{ij} is not a positive integer."""


class DuplicateConstants(PresentationError):
    """Type 1 constants must be pairwise distinct."""


class DependentColumns(PresentationError):
    """Type 2 constant columns must be pairwise linearly independent."""


class AssumptionViolated(PresentationError):
    """A query was made outside its stated hypotheses."""


def _is_int(value) -> bool:
    """True for ints but not bools, which JSON true/false would smuggle in."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_object(pairs, error=BadShape) -> dict:
    """object_pairs_hook of json.loads: the object's dict, or error naming a
    key listed twice, which json.loads alone reads as its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise error(f"field {key!r} is repeated")
        out[key] = value
    return out


def _det2(a: Tuple[GaussianRational, GaussianRational], b) -> GaussianRational:
    return a[0] * b[1] - a[1] * b[0]


@dataclass(frozen=True)
class TrinomialPresentation:
    """Validated presentation data. Instances are immutable."""

    kind: int
    blocks: Tuple[Tuple[int, ...], ...]
    constants: tuple
    d: int = 0
    anchors: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if not _is_int(self.kind) or self.kind not in (1, 2):
            raise BadShape(f"kind must be 1 or 2, got {self.kind!r}")
        if not isinstance(self.blocks, tuple) or not all(
            isinstance(b, tuple) for b in self.blocks
        ):
            raise BadShape("blocks must be a tuple of tuples")
        min_blocks = 2 if self.kind == 1 else 3
        if len(self.blocks) < min_blocks:
            raise BadShape(
                f"type {self.kind} needs at least {min_blocks} blocks, got {len(self.blocks)}"
            )
        for row in self.blocks:
            if not row:
                raise BadShape("empty exponent row")
            for e in row:
                if not _is_int(e) or e <= 0:
                    raise NonPositiveExponent(f"bad exponent {e!r}")
        if not _is_int(self.d) or self.d < 0:
            raise BadShape(f"free variable count must be a nonnegative int, got {self.d!r}")
        if len(self.constants) != len(self.blocks):
            raise BadShape(
                f"expected {len(self.blocks)} constants, got {len(self.constants)}"
            )
        if self.kind == 1:
            for c in self.constants:
                if not isinstance(c, GaussianRational):
                    raise BadShape("type 1 constants must be scalars")
            for idx, a in enumerate(self.constants):
                for b in self.constants[idx + 1 :]:
                    if a == b:
                        raise DuplicateConstants(f"repeated constant {gq_format(a)}")
        else:
            for col in self.constants:
                if (
                    not isinstance(col, tuple)
                    or len(col) != 2
                    or not all(isinstance(x, GaussianRational) for x in col)
                ):
                    raise BadShape("type 2 constants must be pairs of scalars")
                if not col[0] and not col[1]:
                    raise DependentColumns("zero column")
            for (p, q), minor in self._minors.items():
                if p < q and not minor:
                    a, b = self.constants[p], self.constants[q]
                    raise DependentColumns(
                        f"columns ({gq_format(a[0])},{gq_format(a[1])}) and "
                        f"({gq_format(b[0])},{gq_format(b[1])}) are proportional"
                    )
        if self.anchors is not None:
            if len(self.anchors) != len(self.blocks):
                raise BadShape("anchors must give one index per block")
            for row, b in zip(self.blocks, self.anchors):
                if not _is_int(b) or not 1 <= b <= len(row):
                    raise BadShape(f"anchor {b!r} out of range for a block of size {len(row)}")

    # -- basic shape ----------------------------------------------------

    @property
    def r0(self) -> int:
        return 1 if self.kind == 1 else 0

    @property
    def r(self) -> int:
        return len(self.blocks) - 1 + self.r0

    @property
    def block_numbers(self) -> range:
        return range(self.r0, self.r + 1)

    def exponents(self, i: int) -> Tuple[int, ...]:
        return self.blocks[i - self.r0]

    def block_size(self, i: int) -> int:
        return len(self.exponents(i))

    def constant(self, i: int):
        return self.constants[i - self.r0]

    def anchor(self, i: int) -> int:
        if self.anchors is None:
            return 1
        return self.anchors[i - self.r0]

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.blocks)

    def dimension(self) -> int:
        return self.n + self.d - self.r + 1

    @cached_property
    def generators(self) -> Tuple[Gen, ...]:
        out = []
        for i in self.block_numbers:
            for j in range(1, self.block_size(i) + 1):
                out.append(tvar(i, j))
        for k in range(1, self.d + 1):
            out.append(svar(k))
        return tuple(out)

    @cached_property
    def generator_set(self) -> frozenset:
        return frozenset(self.generators)

    @cached_property
    def generator_index(self) -> dict:
        """The position of each generator in self.generators."""
        return {g: k for k, g in enumerate(self.generators)}

    @cached_property
    def _minors(self) -> dict:
        """The minor _det2 of the columns of blocks p and q (type 2) for each
        ordered pair p != q, computed once per pair, when validation reads it."""
        minors = {}
        for p, a in enumerate(self.constants):
            for q in range(p + 1, len(self.constants)):
                minors[p, q] = minor = _det2(a, self.constants[q])
                minors[q, p] = -minor
        return minors

    @cached_property
    def _block_memo(self) -> dict:
        """Memo of the block-level pieces, filled on first use and read only
        here: the packed block terms ("term", i, c, m) of block_term and the
        minor ratios ("ratios", p, q, s) of minor_ratios. Nothing in it
        depends on a tuple or a derivation."""
        return {}

    def block_term(self, i: int, c: Optional[int] = None, m: int = 1) -> Tuple[int, int]:
        """T_i^{l_i / m} as (key, 1) for c None, else its partial by T_ic as
        (key, l_ic / m): the packed block pieces every class is built from,
        kept in the block memo. m must divide every exponent of block i."""
        key = ("term", i, c, m)
        hit = self._block_memo.get(key)
        if hit is None:
            exps = self.exponents(i)
            pairs = [(tvar(i, j), e // m - (j == c)) for j, e in enumerate(exps, start=1)]
            term = pack(pairs, self.generator_index), 1 if c is None else exps[c - 1] // m
            hit = self._block_memo[key] = term
        return hit

    def block_power(self, i: int) -> Poly:
        """The monomial T_i^{l_i}."""
        return self.block_power_divided(i, 1)

    def block_power_divided(self, i: int, divisor: int) -> Poly:
        """The monomial T_i^{l_i / divisor}, built afresh (not from block_term);
        divisor must divide every exponent."""
        exps = self.exponents(i)
        if any(e % divisor for e in exps):
            raise ValueError(f"{divisor} does not divide the exponents of block {i}")
        return Poly.monomial(
            Monomial(tuple((tvar(i, j + 1), e // divisor) for j, e in enumerate(exps)))
        )

    def block_gcd(self, i: int) -> int:
        g = 0
        for e in self.exponents(i):
            g = gcd(g, e)
        return g

    # -- relations and rewriting ----------------------------------------

    def triple_coefficients(self, p: int, q: int, s: int):
        """Minor coefficients (alpha, beta, gamma) of the relation on blocks p, q, s."""
        if self.kind != 2:
            raise AssumptionViolated("triple coefficients only exist for type 2")
        if len({p, q, s}) != 3 or not all(i in self.block_numbers for i in (p, q, s)):
            raise AssumptionViolated(f"{p}, {q}, {s} are not three distinct blocks of 0..{self.r}")
        return self._minors[q, s], self._minors[s, p], self._minors[p, q]

    def minor_ratios(self, p: int, q: int, s: int):
        """(-alpha/gamma, -beta/gamma) of triple_coefficients(p, q, s), kept in
        the block memo: T_s^{l_s} in terms of T_p^{l_p} and T_q^{l_q}."""
        key = ("ratios", p, q, s)
        hit = self._block_memo.get(key)
        if hit is None:
            alpha, beta, gamma = self.triple_coefficients(p, q, s)
            hit = self._block_memo[key] = -alpha / gamma, -beta / gamma
        return hit

    def triple_relation(self, p: int, q: int, s: int) -> Poly:
        alpha, beta, gamma = self.triple_coefficients(p, q, s)
        return (
            self.block_power(p) * alpha
            + self.block_power(q) * beta
            + self.block_power(s) * gamma
        )

    @cached_property
    def _relations(self) -> Tuple[Poly, ...]:
        return self.engine.poly_relations()

    def relations(self) -> Tuple[Poly, ...]:
        return self._relations

    @cached_property
    def rewrite_rules(self) -> dict:
        """Oriented rules lead -> replacement, the Poly view of the engine's."""
        return self.engine.poly_rules()

    @cached_property
    def engine(self) -> RewriteEngine:
        """The rewrite engine on the dense form (poly.RewriteEngine), which
        every normal form modulo the relations goes through, built from the
        exponent rows and the constants.

        For j >= 2 the rule rewrites T_j^{l_j} to a combination of
        T_{r0}^{l_{r0}} (and for type 2 also T_1^{l_1}) plus a constant,
        so replacements never contain a lead and one pass per term
        normalizes. The relations are, for type 1, T_i^{l_i} -
        T_{i+1}^{l_{i+1}} - (a_{i+1} - a_i), and for type 2 the
        triple_relation of each three consecutive blocks.
        """
        power = {
            i: tuple((tvar(i, j), e) for j, e in enumerate(exps, start=1))
            for i, exps in zip(self.block_numbers, self.blocks)
        }
        a = self.constant
        if self.kind == 1:
            rules = [(power[j], ((power[1], ONE), ((), a(1) - a(j)))) for j in range(2, self.r + 1)]
            relations = [
                ((power[i], ONE), (power[i + 1], -ONE), ((), a(i) - a(i + 1)))
                for i in range(1, self.r)
            ]
        else:
            rules = []
            for j in range(2, self.r + 1):
                ratio_0, ratio_1 = self.minor_ratios(0, 1, j)
                rules.append((power[j], ((power[0], ratio_0), (power[1], ratio_1))))
            relations = []
            for i in range(self.r - 1):
                coefficients = self.triple_coefficients(i, i + 1, i + 2)
                relations.append(tuple(zip((power[i], power[i + 1], power[i + 2]), coefficients)))
        return RewriteEngine(self.generator_index, rules, relations)

    @cached_property
    def grading(self):
        """The canonical fine grading (grading.weight_assignment), which
        every degree and weight of this presentation is read in."""
        from .grading import weight_assignment  # grading imports this module

        return weight_assignment(self)

    @cached_property
    def plan(self) -> tuple:
        """The class plan (classify.class_plan) that every classification
        reads: descriptors and tuple orbits per entry, never a construction."""
        from .classify import class_plan  # classify imports this module

        return tuple(class_plan(self))

    # -- divisor theory --------------------------------------------------

    def _check_factoriality_hypothesis(self):
        for i in self.block_numbers:
            exps = self.exponents(i)
            if len(exps) == 1 and exps[0] == 1:
                raise AssumptionViolated(
                    f"block {i} is a single variable with exponent 1 "
                    "(n_i * l_ij > 1 is required for the factoriality test)"
                )

    def is_factorial(self) -> bool:
        """Whether the algebra has unique factorization.

        Type 1: every block gcd must be 1. Type 2: the block gcds must be
        pairwise coprime. Requires n_i * l_{ij} > 1 throughout, otherwise
        AssumptionViolated is raised.
        """
        self._check_factoriality_hypothesis()
        gcds = [self.block_gcd(i) for i in self.block_numbers]
        if self.kind == 1:
            return all(g == 1 for g in gcds)
        for idx, g1 in enumerate(gcds):
            for g2 in gcds[idx + 1 :]:
                if gcd(g1, g2) != 1:
                    return False
        return True

    def invariant_field_generators(self):
        """Generators of the field of degree-zero fractions.

        Type 1 gives the invariant block powers T_i^{l_i / d_i} with
        denominator 1; type 2 gives the quotients
        T_i^{l_i / d_ij} / T_j^{l_j / d_ij} with d_ij = gcd(d_i, d_j)
        over all pairs i < j. Numerator and denominator always carry the
        same weight.
        """
        out = []
        if self.kind == 1:
            for i in self.block_numbers:
                di = self.block_gcd(i)
                out.append((self.block_power_divided(i, di), Poly.constant(1)))
        else:
            nums = list(self.block_numbers)
            for a in range(len(nums)):
                for b in range(a + 1, len(nums)):
                    i, j = nums[a], nums[b]
                    dij = gcd(self.block_gcd(i), self.block_gcd(j))
                    out.append(
                        (
                            self.block_power_divided(i, dij),
                            self.block_power_divided(j, dij),
                        )
                    )
        return out

    # -- serialization ---------------------------------------------------

    def to_input_dict(self) -> dict:
        data = {
            "type": self.kind,
            "blocks": [list(row) for row in self.blocks],
        }
        if self.kind == 1:
            data["constants"] = [gq_format(c) for c in self.constants]
        else:
            data["constants"] = [[gq_format(c[0]), gq_format(c[1])] for c in self.constants]
        data["free_vars"] = self.d
        if self.anchors is not None:
            data["anchors"] = list(self.anchors)
        return data

    @staticmethod
    def from_input_dict(data: dict) -> "TrinomialPresentation":
        if not isinstance(data, dict):
            raise BadShape("input must be a JSON object")
        unknown = set(data) - {"type", "blocks", "constants", "free_vars", "anchors"}
        if unknown:
            raise BadShape(f"unknown fields: {sorted(unknown)}")
        try:
            kind = data["type"]
            raw_blocks = data["blocks"]
        except KeyError as exc:
            raise BadShape(f"missing field {exc.args[0]!r}") from None
        if not _is_int(kind) or kind not in (1, 2):
            raise BadShape(f"type must be 1 or 2, got {kind!r}")
        if not isinstance(raw_blocks, list) or not all(
            isinstance(row, list) for row in raw_blocks
        ):
            raise BadShape("blocks must be a list of lists")
        blocks = tuple(tuple(row) for row in raw_blocks)
        d = data.get("free_vars", 0)
        anchors = data.get("anchors")
        if anchors is not None:
            if not isinstance(anchors, list):
                raise BadShape("anchors must be a list")
            anchors = tuple(anchors)
        raw_constants = data.get("constants")
        if raw_constants is None:
            maker = type1 if kind == 1 else type2
            return maker(blocks, d=d, anchors=anchors)
        if not isinstance(raw_constants, list):
            raise BadShape("constants must be a list")

        def scalar(value):
            if isinstance(value, str):
                return gq_parse(value)
            if _is_int(value):
                return gq(value)
            raise BadShape(f"constants must be integers or scalar strings, got {value!r}")

        try:
            if kind == 1:
                constants = tuple(scalar(c) for c in raw_constants)
            else:
                constants = tuple(
                    (scalar(col[0]), scalar(col[1]))
                    for col in raw_constants
                    if isinstance(col, list) and len(col) == 2
                )
                if len(constants) != len(raw_constants):
                    raise BadShape("type 2 constants must be pairs of scalars")
        except (ScalarParseError, TypeError) as exc:
            raise BadShape(f"bad constant: {exc}") from None
        return TrinomialPresentation(
            kind=kind, blocks=blocks, constants=constants, d=d, anchors=anchors
        )

    @staticmethod
    def from_json(text: str) -> "TrinomialPresentation":
        try:
            data = json.loads(text, object_pairs_hook=_json_object)
        except InputError:  # a repeated field
            raise
        except (ValueError, RecursionError) as exc:  # also too deep, or past the digit limit
            raise BadShape(f"invalid JSON: {exc}") from None
        return TrinomialPresentation.from_input_dict(data)

    def describe(self) -> str:
        rows = ",".join("(" + ",".join(str(e) for e in row) + ")" for row in self.blocks)
        return f"type{self.kind}[{rows}]d{self.d}"

    def __str__(self):
        return self.describe()


def type1(blocks, constants=None, d=0, anchors=None) -> TrinomialPresentation:
    """Convenience constructor; constants default to 0, 1, 2, ..."""
    blocks = tuple(tuple(row) for row in blocks)
    if constants is None:
        constants = tuple(gq(i) for i in range(len(blocks)))
    else:
        constants = tuple(c if isinstance(c, GaussianRational) else gq(c) for c in constants)
    return TrinomialPresentation(
        kind=1, blocks=blocks, constants=constants, d=d,
        anchors=tuple(anchors) if anchors is not None else None,
    )


STANDARD_COLUMNS = (
    (gq(1), gq(0)),
    (gq(0), gq(1)),
    (gq(-1), gq(-1)),
    (gq(1), gq(-1)),
    (gq(1), gq(-2)),
)


def type2(blocks, constants=None, d=0, anchors=None) -> TrinomialPresentation:
    """Convenience constructor; constants default to a standard pool whose
    leading triple gives the relation T_0^{l_0} + T_1^{l_1} + T_2^{l_2}."""
    blocks = tuple(tuple(row) for row in blocks)
    if constants is None:
        if len(blocks) > len(STANDARD_COLUMNS):
            raise BadShape("no default constants for this many blocks")
        constants = STANDARD_COLUMNS[: len(blocks)]
    else:
        constants = tuple(
            tuple(c if isinstance(c, GaussianRational) else gq(c) for c in col)
            for col in constants
        )
    return TrinomialPresentation(
        kind=2, blocks=blocks, constants=constants, d=d,
        anchors=tuple(anchors) if anchors is not None else None,
    )


def surface(alpha: int, beta: int, gamma: int, d: int = 0) -> TrinomialPresentation:
    """The standard surface presentation with relation x^alpha + y^beta + z^gamma."""
    return type2(((alpha,), (beta,), (gamma,)), d=d)


# -- all-ones rescaling ---------------------------------------------------


@dataclass(frozen=True)
class RescalingReport:
    status: str  # "rescaled" | "no_rescaling_exists" | "not_applicable"
    reason: str
    scalars: Optional[dict] = None  # gen -> GaussianRational
    result: Optional[TrinomialPresentation] = None

    def to_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.scalars is not None:
            out["scalars"] = {gen_name(g): gq_format(s) for g, s in self.scalars.items()}
        if self.result is not None:
            out["result"] = self.result.to_input_dict()
        return out


def _bezout_weights(values: Sequence[int]):
    """Integers u_j with sum(u_j * values_j) = gcd(values)."""
    us = [0] * len(values)
    g = 0
    for idx, v in enumerate(values):
        if g == 0:
            g = v
            us = [0] * len(values)
            us[idx] = 1
            continue
        g, a, b = _ext_gcd(g, v)
        us = [u * a for u in us]
        us[idx] += b
    return g, us


def _ext_gcd(a: int, b: int):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def all_ones_rescaling(P: TrinomialPresentation) -> RescalingReport:
    """Try to rescale variables so every relation has coefficients (1, 1, 1).

    Only meaningful for type 2. For r = 2 this is a root extraction
    problem in Q(i) and may fail; for r > 2 no presentation with
    pairwise independent columns has all-ones chain relations at all,
    so the obstruction is structural.
    """
    if P.kind != 2:
        return RescalingReport(
            status="not_applicable",
            reason="type 1 relations already have unit coefficients",
        )
    if P.r > 2:
        return RescalingReport(
            status="no_rescaling_exists",
            reason=(
                "with more than one relation, all-ones coefficients would force "
                "two constant columns to be proportional"
            ),
        )
    alpha, beta, gamma = P.triple_coefficients(0, 1, 2)
    gcds = [P.block_gcd(i) for i in P.block_numbers]
    target = _power_coset_intersection(
        [(coeff.inverse(), m) for coeff, m in zip((alpha, beta, gamma), gcds)]
    )
    if target is None:
        return RescalingReport(
            status="no_rescaling_exists",
            reason="the coefficient ratios are not extractable roots in Q(i)",
        )
    scalars = {}
    for i, coeff, m in zip(P.block_numbers, (alpha, beta, gamma), gcds):
        sigma = target / coeff
        w = gq_nth_root(sigma, m)
        if w is None:
            raise InternalError("coset solver returned an invalid witness")
        _, us = _bezout_weights(list(P.exponents(i)))
        for j, u in enumerate(us, start=1):
            scalars[tvar(i, j)] = w**u
    result = type2(P.blocks, d=P.d, anchors=P.anchors)
    return RescalingReport(
        status="rescaled",
        reason="variables rescaled block by block",
        scalars=scalars,
        result=result,
    )


def _power_coset_intersection(pairs):
    """Find x in Q(i)* with ratio * x an m-th power for every (ratio, m).

    Works on Gaussian prime valuations: the exponent of each prime in x
    must satisfy one congruence per pair, solved by CRT; the remaining
    unit ambiguity is a four-way check.
    """
    from sympy.ntheory.modular import crt

    pairs = [(ratio, m) for ratio, m in pairs if m != 1]
    factored = [(gq_factor(ratio)[1], m) for ratio, m in pairs]
    moduli = [m for _ratio, m in pairs]
    x0 = ONE
    for prime in {p for fac, _m in factored for p in fac}:
        sol = crt(moduli, [-fac.get(prime, 0) % m for fac, m in factored])
        if sol is None:
            return None
        x0 = x0 * gq(*prime) ** int(sol[0])
    for u in UNITS:
        if all(gq_nth_root(ratio * x0 * u, m) is not None for ratio, m in pairs):
            return x0 * u
    return None
