"""The text boundary: polynomial and derivation text read into the dense form.

poly.poly_terms is the one reader of the term grammar; poly_parse builds
a Poly from it and derivation_from_text packs each term as it is read.
The reference below is the reader they replaced, a character scanner and
a factor splitter feeding Derivation(P, images) and normal_form, kept
here with two marked departures: errors raised on a right-hand side name
their line, and a parenthesized scalar fails with the bare scalar's
kind. Two more, ASCII-only digits and an exponent after every '^', are
what the reference reports as Coerced instead of reading.
"""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trilnd.cli import main
from trilnd.corpus import corpus, rescaled_members
from trilnd.derivation import (
    Derivation,
    DerivationFormatError,
    derivation_from_text,
)
from trilnd.gaussian import ONE, ZERO, ScalarParseError, gq, gq_parse
from trilnd.grading import NonHomogeneous, derivation_degree
from trilnd.poly import (
    DegreeOverflow,
    Monomial,
    Poly,
    PolyParseError,
    UnknownGenerator,
    dense_terms,
    packed_terms,
    parse_gen_name,
    poly_parse,
    tvar,
)
from trilnd.presentation import BadShape, TrinomialPresentation, surface, type1, type2

SAMPLES = Path(__file__).resolve().parents[1] / "sample_inputs"


class Coerced(Exception):
    """The reference read a number that is not ASCII digits."""


# -- the reference reader ------------------------------------------------------

_REF_GEN = re.compile(r"^(?:T(\d+)_(\d+)|S(\d+))$")
_REF_RAT = r"\d+(?:/[1-9]\d*)?"
_REF_REAL = re.compile(rf"^[+-]?{_REF_RAT}$")
_REF_IMAG = re.compile(rf"^([+-]?)({_REF_RAT})?i$")
_REF_FULL = re.compile(rf"^([+-]?{_REF_RAT})([+-])({_REF_RAT})?i$")


def _ascii_only(text):
    if not text.isascii():
        raise Coerced(text)


def ref_gen(name):
    m = _REF_GEN.match(name)
    if not m:
        raise UnknownGenerator(f"bad generator name: {name!r}")
    _ascii_only(m.group(0))
    if m.group(1) is not None:
        return tvar(int(m.group(1)), int(m.group(2)))
    return (0, ~int(m.group(3)))


def ref_scalar(text):
    s = text.strip()
    if not s:
        raise ScalarParseError("empty scalar")
    if _REF_REAL.match(s):
        _ascii_only(s)
        return gq(Fraction(s))
    m = _REF_IMAG.match(s) or _REF_FULL.match(s)
    if not m:
        raise ScalarParseError(f"bad scalar literal: {text!r}")
    _ascii_only(s)
    if m.re is _REF_IMAG:
        real, (sign, imag) = 0, m.groups()
    else:
        real, sign, imag = m.groups()
    imag = Fraction(imag) if imag else 1
    return gq(Fraction(real), -imag if sign == "-" else imag)


def ref_split_terms(s):
    terms = []
    depth = 0
    sign = 1
    current = []
    i = 0
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


def ref_parse_term(chunk, allowed_set):
    factors = [f.strip() for f in chunk.split("*")]
    coeff = ONE
    exps = {}
    for f in factors:
        if not f:
            raise PolyParseError(f"empty factor in {chunk!r}")
        if f.startswith("("):
            if not f.endswith(")"):
                raise PolyParseError(f"bad parenthesized scalar {f!r}")
            try:
                coeff = coeff * ref_scalar(f[1:-1])
            except ScalarParseError as exc:  # departure: was raised as it is
                raise PolyParseError(str(exc)) from None
            continue
        if f[0] in "0123456789i" or f[0] in "+-":
            try:
                coeff = coeff * ref_scalar(f)
            except ScalarParseError as exc:
                raise PolyParseError(str(exc)) from None
            continue
        name, caret, exp_text = f.partition("^")
        g = ref_gen(name.strip())
        if allowed_set is not None and g not in allowed_set:
            raise UnknownGenerator(f"generator {name.strip()} not in this presentation")
        if exp_text:
            try:
                e = int(exp_text)
            except ValueError:
                raise PolyParseError(f"bad exponent in {f!r}") from None
            if "_" in exp_text:
                raise Coerced(exp_text)
            _ascii_only(exp_text.strip())
            if e < 0:
                raise PolyParseError("negative exponent")
        elif caret:  # departure: an empty exponent was read as 1
            raise Coerced(f)
        else:
            e = 1
        exps[g] = exps.get(g, 0) + e
    return Monomial(exps), coeff


def ref_poly_parse(text, allowed=None):
    allowed_set = set(allowed) if allowed is not None else None
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    acc = {}
    for sign, chunk in ref_split_terms(s):
        m, c = ref_parse_term(chunk, allowed_set)
        if c:  # merged here, not by the merger under test
            total = acc.get(m, ZERO) + c * sign
            if total:
                acc[m] = total
            else:
                del acc[m]
    return Poly._of(acc)


def ref_from_text(P, text):
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
            g = ref_gen(name.strip())
        except UnknownGenerator as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
        if g not in known:
            raise UnknownGenerator(
                f"line {lineno}: {name.strip()} is not a generator of this presentation"
            )
        if g in images:
            raise DerivationFormatError(f"line {lineno}: duplicate image for {name.strip()}")
        try:
            images[g] = ref_poly_parse(rhs.strip(), allowed=known)
        except PolyParseError as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
        except UnknownGenerator as exc:  # departure: had no line number
            raise UnknownGenerator(f"line {lineno}: {exc}") from None
    return Derivation(P, images)


# -- drawing texts -------------------------------------------------------------

PRESENTATIONS = (
    surface(2, 2, 2),  # T2_1^2 is a rule's lead
    type1(((2,), (1, 3)), d=1),
    type2(((1, 2), (2,), (3,))),
)
FOREIGN = ("T9_1", "S7", "T01_1", "T1_01")
SCALAR_TEXTS = (
    "3", "-2", "+5", "0", "2/3", "-4/6", "i", "-i", "2i", "3/4i",
    "1+i", "1-2i", "-1/2+3/4i", "7-i", "5/1",
)
EXPONENT_TEXTS = ("", "^2", "^ 3", "^0", "^+2", "^1", "^10", "^007")
SPACES = st.sampled_from(("", "", " ", "  ", "\t"))


@st.composite
def scalar_factor(draw):
    text = draw(st.sampled_from(SCALAR_TEXTS))
    if "+" in text[1:] or "-" in text[1:] or draw(st.booleans()):
        return f"({draw(SPACES)}{text}{draw(SPACES)})"
    return text.lstrip("+")


@st.composite
def term(draw, names):
    factors = [
        name + draw(st.sampled_from(EXPONENT_TEXTS))
        for name in draw(st.lists(st.sampled_from(names), max_size=3))
    ]
    factors += draw(st.lists(scalar_factor(), max_size=2))
    if not factors:
        factors = [draw(scalar_factor())]
    factors = draw(st.permutations(factors))
    return "*".join(f"{draw(SPACES)}{f}{draw(SPACES)}" for f in factors)


@st.composite
def right_side(draw, names):
    terms = draw(st.lists(term(names), min_size=1, max_size=5))
    # repeated terms, and terms that cancel the ones before them
    for _ in range(draw(st.integers(0, 2))):
        t = draw(st.sampled_from(terms))
        terms.append(t if draw(st.booleans()) else f"(-1)*{t}")
    text = ""
    for k, t in enumerate(terms):
        sign = draw(st.sampled_from(("+", "-"))) if k else draw(st.sampled_from(("", "-", "+", "- -")))
        text += f"{draw(SPACES)}{sign}{draw(SPACES)}{t}"
    return text


@st.composite
def derivation_text(draw, P):
    names = [gen_text(g) for g in P.generators]
    lines = []
    for name in draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True)):
        lines.append(f"{name} ={draw(right_side(names))}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "# note", "  "))))
    return "\n".join(lines)


def gen_text(g):
    return f"T{g[1]}_{~g[2]}" if g[0] else f"S{~g[1]}"


# characters that break the grammar, and digits it must not read
NOISE = "+-*^/() i0123456789_=#\nTSx.٣² "
BREAKS = (" +", "-", "*", "^", "^-1", "()", "(", ")", "/", "/-", "*-", "i*")


@st.composite
def malformed(draw, P):
    text = draw(derivation_text(P))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        head, tail = text[:at], text[at:]
        how = draw(st.integers(0, 3))
        if how == 0:
            tail = draw(st.text(NOISE, max_size=3)) + tail[draw(st.integers(0, 2)) :]
        elif how == 1:  # a digit that is not ASCII
            tail = re.sub(r"[0-9]", "٣", tail, count=1)
        elif how == 2:  # an exponent with an underscore
            tail = re.sub(r"\^ ?[0-9]+", lambda m: m.group() + "_0", tail, count=1)
        else:
            tail = draw(st.sampled_from(BREAKS)) + tail
        text = head + tail
    if draw(st.integers(0, 4)) == 0:
        name = draw(st.sampled_from(FOREIGN + ("T1_1",)))
        text += f"\n{gen_text(P.generators[-1])} = {name}"
    return text


def outcome(read, P, text):
    try:
        delta = read(P, text)
    except (Coerced, DerivationFormatError, UnknownGenerator, DegreeOverflow) as exc:
        return type(exc).__name__, str(exc)
    images = [(g, list(img.terms.items())) for g, img in delta.images.items()]
    try:
        degree = derivation_degree(delta, P.grading) if images else None
    except NonHomogeneous as exc:
        degree = str(exc)
    return "ok", images, degree


def check_against_reference(P, text):
    want = outcome(ref_from_text, P, text)
    got = outcome(derivation_from_text, P, text)
    if want[0] == "Coerced":
        assert got[0] in ("DerivationFormatError", "UnknownGenerator"), (text, got)
        return
    assert got == want, text
    if got[0] == "ok":
        # outcome read the Poly view; the degree off the packed images alone
        # must read the same, and build no Poly view
        delta = derivation_from_text(P, text)
        try:
            degree = derivation_degree(delta, P.grading) if got[1] else None
        except NonHomogeneous as exc:
            degree = str(exc)
        assert degree == got[2]
        assert delta._images is None


PARSE_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PARSE_SETTINGS
@given(st.data())
def test_well_formed_text_reads_as_the_reference(data):
    P = data.draw(st.sampled_from(PRESENTATIONS))
    check_against_reference(P, data.draw(derivation_text(P)))


@PARSE_SETTINGS
@given(st.data())
def test_malformed_text_fails_as_the_reference(data):
    P = data.draw(st.sampled_from(PRESENTATIONS))
    check_against_reference(P, data.draw(malformed(P)))


@PARSE_SETTINGS
@given(st.data())
def test_poly_parse_reads_as_the_reference(data):
    P = data.draw(st.sampled_from(PRESENTATIONS))
    names = [gen_text(g) for g in P.generators] + list(FOREIGN)
    text = data.draw(right_side(names))
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.text(NOISE, max_size=3)) + text[at:]
    allowed = P.generators if data.draw(st.booleans()) else None

    def read(parse):
        try:
            p = parse(text, allowed)
        except (Coerced, PolyParseError, UnknownGenerator) as exc:
            return type(exc).__name__, str(exc)
        return "ok", list(p.terms.items())

    want, got = read(ref_poly_parse), read(poly_parse)
    if want[0] == "Coerced":
        assert got[0] in ("PolyParseError", "UnknownGenerator")
    else:
        assert got == want


@pytest.mark.parametrize(
    "text",
    [
        "T0_1 = T2_1^2 - T2_1^2 + T0_1",  # cancels, then a term
        "T0_1 = T2_1^2 + T0_1 - T2_1^2 + T2_1^2",  # cancels and comes back last
        "T0_1 = T2_1^3*T1_1 + 2*T0_1^2\nT1_1 = T0_1",  # a lead, then mixed degrees
        f"T0_1 = T2_1^{2**32} - T2_1^{2**32} + 1",  # an overflow that cancels
        f"T0_1 = T2_1^{2**32}\nT1_1 = 1 +",  # syntax on a later line comes first
        f"T0_1 = T2_1^{2**31}*T1_1^{2**31}",
        "T0_1 = 0\nT0_1 = 1",
        "T0_1 = 0*T2_1^4",
        "T0_1 = T1_1\nT1_1 = -T0_1\nT2_1 = T2_1",
        "T0_1 = T1_1 * -2 + T1_1^-0 - T1_1*+3",  # signs that belong to a factor
        "T0_1 = 2/-3*T1_1",
        "T0_1 = -(1+i)*((2))",
        "T0_1 = T1_1^*2",  # an empty exponent, which the reference coerces
    ],
)
def test_edge_texts_read_as_the_reference(text):
    check_against_reference(surface(2, 2, 2), text)


# -- the bugfixes --------------------------------------------------------------


@pytest.mark.parametrize(
    "text, kind, message",
    [
        ("T1_1 = (1/0)", DerivationFormatError, "line 1: bad scalar literal: '1/0'"),
        ("T1_1 = 1/0", DerivationFormatError, "line 1: bad scalar literal: '1/0'"),
        ("\nT1_1 = ( )", DerivationFormatError, "line 2: empty scalar"),
        ("T1_1 = T1_2 T1_2", UnknownGenerator, "line 1: bad generator name: 'T1_2 T1_2'"),
        ("T1_1 = 1\nT2_1 = S1", UnknownGenerator, "line 2: generator S1 not in this presentation"),
        ("T1_1 = T1_1^٣", DerivationFormatError, "line 1: bad exponent in 'T1_1^٣'"),
    ],
)
def test_every_error_on_a_line_names_it(text, kind, message):
    P = type1(((1, 2), (3,)))
    with pytest.raises(kind) as exc:
        derivation_from_text(P, text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "read, text, kind",
    [
        (parse_gen_name, "T١_1", UnknownGenerator),
        (parse_gen_name, "S٣", UnknownGenerator),
        (poly_parse, "T1_1^٣", PolyParseError),
        (poly_parse, "T1_1^1_000", PolyParseError),
        (poly_parse, "3٣*T1_1", PolyParseError),
        (poly_parse, "(1/2٣)", PolyParseError),
        (gq_parse, "٣", ScalarParseError),
        (gq_parse, "1+٣i", ScalarParseError),
    ],
)
def test_numbers_are_ascii_digits(read, text, kind):
    with pytest.raises(kind):
        read(text)


def test_ascii_numbers_still_read():
    assert parse_gen_name("T12_3") == tvar(12, 3)
    assert poly_parse("T1_1^+2 * 3") == poly_parse("3*T1_1^2")
    assert poly_parse("T1_1^ 0010") == poly_parse("T1_1^10")
    assert gq_parse("-4/6+2i") == gq(-2, 6) / 3


def test_a_presentation_constant_is_ascii_digits(tmp_path, capsys):
    data = {"type": 1, "blocks": [[2], [3]], "constants": ["0", "٣"]}
    with pytest.raises(BadShape):
        TrinomialPresentation.from_input_dict(data)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--presentation", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["kind"] == "BadShape"


@pytest.mark.parametrize(
    "text", ["T0_1 = (1/0)*T2_1", "T0_1 = 2*T1_1\nT1_1 = T9_9", "T0_1 = T2_1^1_0"]
)
def test_verify_rejects_with_exit_one(tmp_path, capsys, text):
    path = tmp_path / "d.txt"
    path.write_text(text)
    code = main(["verify", "--presentation", str(SAMPLES / "sphere.json"), "--derivation", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["error"].startswith("line ")


@pytest.mark.parametrize(
    "text, factor", [("T1_1^", "T1_1^"), ("T1_1^*2", "T1_1^"), ("T1_1 ^ ", "T1_1 ^")]
)
def test_an_empty_exponent_is_refused(text, factor):
    with pytest.raises(PolyParseError) as exc:
        poly_parse(text)
    assert str(exc.value) == f"bad exponent in {factor!r}"


def test_a_signed_zero_exponent_still_reads():
    assert poly_parse("T1_1^-0 + T1_1^+0") == poly_parse("2")


def test_verify_refuses_an_empty_exponent(tmp_path, capsys):
    presentation = tmp_path / "p.json"
    presentation.write_text(json.dumps({"type": 1, "blocks": [[1], [1]]}))
    derivation = tmp_path / "d.txt"
    derivation.write_text("T1_1 = T2_1^\n")
    code = main(["verify", "--presentation", str(presentation), "--derivation", str(derivation)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report == {"error": "line 1: bad exponent in 'T2_1^'", "kind": "DerivationFormatError"}


# -- the engine's Poly views ---------------------------------------------------


def reference_rules(P):
    """The rules as the presentation built them in Poly arithmetic."""
    rules = {}
    for j in range(2, P.r + 1):
        lead = P.block_power(j).lead_monomial()
        if P.kind == 1:
            rules[lead] = P.block_power(1) - Poly.constant(P.constant(j) - P.constant(1))
        else:
            alpha, beta, gamma = P.triple_coefficients(0, 1, j)
            rules[lead] = P.block_power(0) * (-alpha / gamma) + P.block_power(1) * (-beta / gamma)
    return rules


def reference_relations(P):
    if P.kind == 1:
        return tuple(
            P.block_power(i)
            - P.block_power(i + 1)
            - Poly.constant(P.constant(i + 1) - P.constant(i))
            for i in range(1, P.r)
        )
    return tuple(P.triple_relation(i, i + 1, i + 2) for i in range(P.r - 1))


# constants with denominators, so that the relations have a scale
RATIONAL = (
    type1(((2,), (1, 3), (2,)), constants=(gq(0), gq(1) / 2, gq(1, -2) / 3)),
    type2(((2,), (3,), (2, 1)), constants=((1, 0), (0, 1), (gq(1) / 3, 2))),
)


def all_presentations():
    samples = sorted(SAMPLES.glob("*.json"))
    return (
        list(corpus())
        + list(rescaled_members())
        + [TrinomialPresentation.from_json(path.read_text()) for path in samples]
        + list(RATIONAL)
    )


def test_the_rules_and_relations_are_views_of_the_engine():
    assert all(
        any(c.real.denominator > 1 for rel in P.relations() for c in rel.terms.values())
        for P in RATIONAL
    )
    for P in all_presentations():
        rules, relations = reference_rules(P), reference_relations(P)
        assert [(m, list(p.terms.items())) for m, p in P.rewrite_rules.items()] == [
            (m, list(p.terms.items())) for m, p in rules.items()
        ]
        assert [list(p.terms.items()) for p in P.relations()] == [
            list(p.terms.items()) for p in relations
        ]
        engine = P.engine
        index = P.generator_index
        assert engine.scale == dense_terms(packed_terms(p, index) for p in rules.values())[0]
        assert list(engine.relations) == dense_terms(packed_terms(p, index) for p in relations)[1]
