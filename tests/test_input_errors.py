"""One input-error type: every refused input raises a trilnd.InputError.

The CLI exits 1 on an InputError (or on a file it cannot read or decode)
and 4 on anything else, so an exception that escapes a reader as a plain
ValueError or RecursionError reads as a bug. These tests pin the
exception taxonomy of the package, fuzz the readers of every input, and
run the refusals that used to escape through the CLI.
"""

import ast
import importlib
import inspect
import json
import pkgutil
import re
import sys
import types
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trilnd
import trilnd.cli
from trilnd.classify import LndDescriptor, build_lnd, kernel_generators
from trilnd.cli import _descriptor_from_json, main
from trilnd.corpus import corpus
from trilnd.derivation import NotInKernel, derivation_from_text
from trilnd.gaussian import InputError, InternalError, gq_parse
from trilnd.grading import NonHomogeneous, ZeroDerivation, ZeroPolynomial
from trilnd.poly import NotDivisible, poly_parse
from trilnd.presentation import TrinomialPresentation, type1, type2

CLI = Path(trilnd.cli.__file__)
SPHERE = "sample_inputs/sphere.json"

# Exceptions of library calls that no refused input raises, so neither
# an input error nor a failed self-check: a caller catches them
# (NonHomogeneous is verify's "not homogeneous" verdict) or rules them out
# first (a zero polynomial or derivation, an inexact division, a cofactor
# outside the kernel).
NEITHER = (NonHomogeneous, ZeroPolynomial, ZeroDerivation, NotDivisible, NotInKernel)

# the classes the CLI listed one by one before they shared a base
FORMER_INPUT_ERRORS = (
    "PresentationError", "ScalarParseError", "PolyParseError", "UnknownGenerator",
    "DerivationFormatError", "InadmissibleTuple", "InadmissibleDescriptor",
    "NoSuchFreeVariable", "NeedsNormalization", "WrongType", "RootOutOfRange",
    "BoxTooLarge", "InvalidArgument", "DegreeOverflow",
)

DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="no integer digit limit")
DEEP = "[" * 5000 + "]" * 5000


def package_modules():
    return [
        importlib.import_module(f"trilnd.{info.name}")
        for info in pkgutil.iter_modules(trilnd.__path__)
    ]


def stray_exceptions(modules):
    """The exception classes defined in modules that derive from neither
    InputError nor InternalError and are not in NEITHER."""
    return [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if inspect.isclass(value)
        and issubclass(value, BaseException)
        and value.__module__ == module.__name__
        and not issubclass(value, (InputError, InternalError))
        and value not in NEITHER
    ]


# -- the taxonomy -----------------------------------------------------------


def test_every_exception_class_is_an_input_error_or_a_bug():
    modules = package_modules()
    assert len(modules) >= 10
    assert stray_exceptions(modules) == []


def test_the_taxonomy_check_flags_a_new_stray_class():
    module = types.ModuleType("trilnd.stray")
    exec("class Stray(ValueError):\n    pass\n", vars(module))
    assert stray_exceptions([module]) == ["trilnd.stray.Stray"]


def test_input_error_is_defined_once_and_exported():
    assert trilnd.InputError is InputError and issubclass(InputError, ValueError)
    assert InputError.__module__ == "trilnd.gaussian"
    assert all(getattr(module, "InputError", InputError) is InputError for module in package_modules())


def test_every_former_input_error_derives_from_input_error():
    classes = {
        name: value for module in package_modules() for name, value in vars(module).items()
        if inspect.isclass(value) and issubclass(value, BaseException)
    }
    for name in FORMER_INPUT_ERRORS:
        assert issubclass(classes[name], InputError), name
    assert issubclass(classes["WrongType"], TypeError)
    assert issubclass(classes["BoxTooLarge"], RuntimeError)


def test_cli_names_one_input_error_type():
    assert trilnd.cli._INPUT_ERRORS == (InputError, UnicodeDecodeError, OSError)
    # and cli.py imports no exception class only to list it: each one it
    # imports is also raised or caught by name
    tree = ast.parse(CLI.read_text())
    (listed,) = [
        [elt.id for elt in node.value.elts] for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_INPUT_ERRORS"
    ]
    assert listed == ["InputError", "UnicodeDecodeError", "OSError"]
    uses = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                value = getattr(trilnd.cli, alias.asname or alias.name)
                if inspect.isclass(value) and issubclass(value, BaseException):
                    assert uses[alias.name] > listed.count(alias.name), alias.name


# -- the readers, fuzzed ----------------------------------------------------

FUZZ = settings(max_examples=150, deadline=timedelta(seconds=2))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.integers(-2**70, 2**70)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
SCALAR_TEXT = st.text("0123456789+-/i ()", max_size=12) | st.text(max_size=6)
EXPONENTS = st.integers(-1, 4) | JSON_VALUES
PRESENTATION_DATA = st.fixed_dictionaries(
    {
        "type": st.sampled_from([1, 2, 3, 0, True, "1"]),
        "blocks": st.lists(st.lists(EXPONENTS, max_size=3), max_size=5) | JSON_VALUES,
    },
    optional={
        "constants": st.lists(
            SCALAR_TEXT | st.integers(-3, 3) | st.lists(SCALAR_TEXT | st.integers(-3, 3), max_size=3),
            max_size=5,
        ) | JSON_VALUES,
        "free_vars": st.integers(-1, 3) | JSON_VALUES,
        "anchors": st.lists(st.integers(0, 3) | JSON_VALUES, max_size=5) | JSON_VALUES,
        "weights": JSON_VALUES,
    },
)
JSON_TEXT = st.text('{}[]",:0123456789-+.eE truefalsn\\', max_size=40)


def reads_or_refuses(reader, *args):
    """reader(*args), which may raise only an InputError."""
    try:
        return reader(*args)
    except InputError:
        return None


@FUZZ
@given(PRESENTATION_DATA | JSON_VALUES)
def test_presentation_json_is_read_or_refused(data):
    reads_or_refuses(TrinomialPresentation.from_json, json.dumps(data))


@FUZZ
@given(JSON_TEXT)
@example(DEEP)
@example('{"type": 1, "type": 1}')
@example('{"type": 1, "blocks": [[2], [3]]} x')
def test_presentation_text_is_read_or_refused(text):
    reads_or_refuses(TrinomialPresentation.from_json, text)


DESCRIPTOR_DATA = st.fixed_dictionaries(
    {"kind": st.sampled_from(["free", "type1", "t2a", "t2b", "t2c", "t2d", "t9"]) | JSON_VALUES},
    optional={
        "k": st.integers(-1, 3) | JSON_VALUES,
        "c": st.lists(st.integers(0, 3), max_size=4) | JSON_VALUES,
        "roles": st.lists(st.integers(0, 3), max_size=4) | JSON_VALUES,
        "param": SCALAR_TEXT | JSON_VALUES,
        "extra": JSON_VALUES,
    },
)


@FUZZ
@given(DESCRIPTOR_DATA | JSON_VALUES)
def test_descriptor_json_is_read_or_refused(data):
    reads_or_refuses(_descriptor_from_json, json.dumps(data))


@FUZZ
@given(JSON_TEXT)
@example(DEEP)
@example('{"kind": "t2c", "kind": "t2d"}')
def test_descriptor_text_is_read_or_refused(text):
    reads_or_refuses(_descriptor_from_json, text)


@FUZZ
@given(st.sampled_from(corpus()[::9]), DESCRIPTOR_DATA)
@example(corpus()[27], {"kind": []})
def test_a_descriptor_builds_or_is_refused(P, data):
    """What kernel --descriptor does with a descriptor that reads."""
    desc = reads_or_refuses(_descriptor_from_json, json.dumps(data))
    if desc is not None:
        reads_or_refuses(kernel_generators, P, desc)
        reads_or_refuses(build_lnd, P, desc)


@FUZZ
@given(SCALAR_TEXT)
@example("1/0")
@example("i/2")
@example("٣")
def test_scalar_text_is_read_or_refused(text):
    reads_or_refuses(gq_parse, text)


NAMES = ["T0_1", "T1_1", "T2_1", "T1_2", "S1", "S2", "T9_1", "T0_0", "X", "T01_1", ""]
TOKENS = st.sampled_from(
    NAMES + ["0", "1", "2", "3", "12", "1/2", "i", "-i", "2i", "(1+i)", "(", ")",
             "+", "-", "*", "^", "/", " ", "^2", "^-1", "^ 3", "**", "#", "="]
)
POLY_TEXT = st.lists(TOKENS, max_size=14).map("".join) | st.text("T0123_S+-*^/()i ", max_size=20)


def bounded(text):
    """No exponent of three or more digits: the normal form of a power of a
    rewrite lead costs time quadratic in the power."""
    return re.search(r"\^[\s+-]*[0-9]{3}", text) is None


@FUZZ
@given(POLY_TEXT)
@example("T0_1^" + "9" * 40)
def test_polynomial_text_is_read_or_refused(text):
    reads_or_refuses(poly_parse, text)
    reads_or_refuses(poly_parse, text, frozenset(type2(((2,), (2,), (2,))).generators))


DERIVATION_PRESENTATIONS = (type2(((2,), (2,), (2,))), type1(((2,), (1, 2)), d=1))
DERIVATION_TEXT = st.lists(
    st.tuples(st.sampled_from(NAMES) | POLY_TEXT, st.sampled_from([" = ", "=", " "]), POLY_TEXT)
    .map("".join),
    max_size=4,
).map("\n".join) | POLY_TEXT


@FUZZ
@given(st.sampled_from(DERIVATION_PRESENTATIONS), DERIVATION_TEXT.filter(bounded))
@example(DERIVATION_PRESENTATIONS[0], "T0_1 = T1_1^4294967296")
@example(DERIVATION_PRESENTATIONS[0], "T0_1 = T2_1\nT0_1 = T1_1")
def test_derivation_text_is_read_or_refused(P, text):
    reads_or_refuses(derivation_from_text, P, text)


def test_deep_json_is_an_input_error():
    with pytest.raises(trilnd.BadShape, match="^invalid JSON: "):
        TrinomialPresentation.from_json(DEEP)
    with pytest.raises(trilnd.InadmissibleDescriptor, match="^descriptor is not valid JSON: "):
        _descriptor_from_json(DEEP)


def test_a_repeated_field_is_refused_once():
    with pytest.raises(trilnd.BadShape) as info:
        TrinomialPresentation.from_json('{"type": 1, "type": 1}')
    assert str(info.value) == "field 'type' is repeated"
    with pytest.raises(trilnd.InadmissibleDescriptor) as info:
        _descriptor_from_json('{"kind": "t2c", "kind": "t2c"}')
    assert str(info.value) == "field 'kind' is repeated"


def long_integer():
    return "9" * (DIGIT_LIMIT + 1)


@needs_digit_limit
def test_integers_past_the_digit_limit_are_input_errors():
    n = long_integer()
    sphere = type2(((2,), (2,), (2,)))
    for text in (
        f'{{"type": 1, "blocks": [[2], [{n}]]}}',
        f'{{"type": 1, "blocks": [[2], [3]], "constants": [0, "{n}"]}}',
    ):
        with pytest.raises(trilnd.BadShape):
            TrinomialPresentation.from_json(text)
    with pytest.raises(trilnd.InadmissibleDescriptor):
        _descriptor_from_json(f'{{"kind": "t2c", "k": {n}}}')
    for text in (n, f"1/{n}", f"{n}i", f"1+1/{n}i"):
        with pytest.raises(trilnd.gaussian.ScalarParseError, match=f"^integer of {DIGIT_LIMIT + 1} digits"):
            gq_parse(text)
    with pytest.raises(trilnd.PolyParseError):
        poly_parse(f"{n}*T1_1")
    with pytest.raises(trilnd.PolyParseError):
        poly_parse(f"T1_1^{n}")
    for name in (f"T{n}_1", f"T1_{n}", f"S{n}"):
        with pytest.raises(trilnd.UnknownGenerator):
            poly_parse(name)
    for text in (f"T0_1 = {n}*T1_1", f"T0_1 = T1_1^{n}", f"T{n}_1 = 1"):
        with pytest.raises(trilnd.DerivationFormatError, match="^line 1: "):
            derivation_from_text(sphere, text)


# Library calls whose refusal names an int past the digit limit, whose
# repr raises ValueError; each message shows that value in bounded text.
LIBRARY_VALUES = {
    "exponent": lambda n: type1([[-n], [2]]),
    "free-vars": lambda n: type1([[2], [2]], d=-n),
    "anchor": lambda n: type1([[2], [3]], anchors=[n, 1]),
    "type": lambda n: TrinomialPresentation.from_input_dict({"type": n, "blocks": [[2], [3]]}),
    "constant": lambda n: TrinomialPresentation.from_input_dict(
        {"type": 1, "blocks": [[2], [3]], "constants": [[n], 1]}
    ),
    "tuple": lambda n: build_lnd(type1([[2], [3]]), LndDescriptor(kind="type1", c=(n, 1))),
    "free-k": lambda n: build_lnd(type1([[2], [3]], d=1), LndDescriptor(kind="free", k=n)),
    "roles": lambda n: build_lnd(
        type2([[2], [2], [3]]), LndDescriptor(kind="t2a", c=(1, 1, 1), roles=(0, 1, n))
    ),
    "kind": lambda n: build_lnd(type1([[2], [3]]), LndDescriptor(kind=n)),
}


@needs_digit_limit
@pytest.mark.parametrize("make", LIBRARY_VALUES.values(), ids=LIBRARY_VALUES.keys())
def test_a_library_value_past_the_digit_limit_is_an_input_error(make):
    n = 10**DIGIT_LIMIT  # DIGIT_LIMIT + 1 digits
    with pytest.raises(InputError, match="integer") as info:
        make(n)
    assert len(str(info.value)) < 120


def test_ordinary_values_are_shown_by_their_repr():
    with pytest.raises(InputError, match=r"^bad exponent -2$"):
        type1([[-2], [2]])
    with pytest.raises(InputError, match=r"^type must be 1 or 2, got '1'$"):
        TrinomialPresentation.from_input_dict({"type": "1", "blocks": [[2], [3]]})
    with pytest.raises(InputError, match=r"^roles must be three distinct blocks, got \(0, 1, 1\)$"):
        build_lnd(type2([[2], [2], [3]]), LndDescriptor(kind="t2a", c=(1, 1, 1), roles=(0, 1, 1)))


# -- the refusals through the CLI -------------------------------------------


def refused(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == 1
    return json.loads(captured.out)


def test_deep_json_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    rep = refused(capsys, "analyze", "--presentation", str(path))
    assert rep["kind"] == "BadShape" and rep["error"].startswith("invalid JSON: ")
    rep = refused(capsys, "kernel", "--presentation", SPHERE, "--descriptor", DEEP)
    assert rep["kind"] == "InadmissibleDescriptor"
    assert rep["error"].startswith("descriptor is not valid JSON: ")


def test_a_descriptor_kind_that_is_no_string_exits_one(capsys):
    rep = refused(
        capsys, "kernel", "--presentation", SPHERE, "--descriptor", '{"kind": []}'
    )
    assert rep == {"error": "unknown descriptor kind []", "kind": "InadmissibleDescriptor"}


@needs_digit_limit
@pytest.mark.parametrize(
    "argv, kind",
    [
        (("analyze", "--presentation", 'P{"type": 1, "blocks": [[2], [N]]}'), "BadShape"),
        (("analyze", "--presentation", 'P{"type": 1, "blocks": [[2], [3]], "constants": [0, N]}'), "BadShape"),
        (("analyze", "--presentation", 'P{"type": 1, "blocks": [[2], [3]], "constants": [0, "N"]}'), "BadShape"),
        (("kernel", "--presentation", SPHERE, "--descriptor", '{"kind": "t2c", "k": N}'),
         "InadmissibleDescriptor"),
        (("kernel", "--presentation", SPHERE, "--descriptor", '{"kind": "t2c", "param": "N"}'),
         "ScalarParseError"),
        (("verify", "--presentation", SPHERE, "--derivation", "DT0_1 = N*T1_1"),
         "DerivationFormatError"),
        (("verify", "--presentation", SPHERE, "--derivation", "DT0_1 = T1_1^N"),
         "DerivationFormatError"),
        (("verify", "--presentation", SPHERE, "--derivation", "DTN_1 = 1"),
         "DerivationFormatError"),
        (("lnds", "--presentation", SPHERE, "--lambdas", "N"), "ScalarParseError"),
        (("lnds", "--presentation", SPHERE, "--lambdas", "0,1/N"), "ScalarParseError"),
        (("oracle", "--presentation", SPHERE, "--weight", "N"), "InvalidArgument"),
    ],
    ids=["exponent", "constant", "constant-text", "descriptor-k", "descriptor-param", "derivation-scalar",
         "derivation-exponent", "derivation-generator", "lambdas", "lambdas-denominator", "weight"],
)
def test_an_integer_past_the_digit_limit_exits_one(tmp_path, capsys, argv, kind):
    n = long_integer()
    args = []
    for arg in argv:
        arg = arg.replace("N", n)
        if arg[0] in "PD":  # the text of a file
            path = tmp_path / f"{arg[0]}.txt"
            path.write_text(arg[1:])
            arg = str(path)
        args.append(arg)
    rep = refused(capsys, *args)
    assert rep["kind"] == kind
    assert rep["error"]
