"""Only trilnd/poly.py knows the packed dense form, and only
trilnd/presentation.py builds the grading.

The fields of a packed key, the rule scale and the memo of term
reductions live in poly.RewriteEngine, which a presentation reaches
through its one attribute `engine`; other modules ask the engine for a
key's degree, generators or Monomial. Likewise the grading is the cached
attribute `grading` of a presentation, and every other module reads it
there. The modules are read as source, without importing them.
"""

import ast
from functools import cached_property
from pathlib import Path

from trilnd.presentation import TrinomialPresentation

SRC = Path(__file__).resolve().parents[1] / "src" / "trilnd"
# the names that encode the packed format
PACKED_NAMES = {"EXPONENT_BITS", "EXPONENT_MASK", "_add_scaled", "check_degree"}
# the dense members TrinomialPresentation had before the engine held them
MOVED = {
    "integer_rules",
    "integer_relations",
    "dense_normal_form",
    "_dense_reduction",
    "_dense_reductions",
    "_rule_powers",
}
SHIFTS_AND_MASKS = (ast.LShift, ast.RShift, ast.BitAnd)


def modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def engine_private_names(poly_tree):
    """The private methods and attributes of RewriteEngine."""
    (engine,) = [
        node
        for node in poly_tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RewriteEngine"
    ]
    names = set()
    for node in ast.walk(engine):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self":
            names.add(node.attr)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def imports_from_poly(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "poly" and node.level == 1
    ]


def test_only_poly_reads_the_packed_format():
    trees = modules()
    private = engine_private_names(trees["poly.py"])
    assert {"_reductions", "_reduce"} <= private
    # the engine's dense_normal_form is public; the other moved names are gone
    forbidden = PACKED_NAMES | private | (MOVED - {"dense_normal_form"})
    faults = []
    for name, tree in trees.items():
        if name == "poly.py":
            continue
        poly_imports = imports_from_poly(tree)
        for node in poly_imports:
            faults += [(name, alias.name) for alias in node.names if alias.name in PACKED_NAMES]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in forbidden:
                faults.append((name, node.attr))
            # a module that holds dense keys neither shifts nor masks them
            if poly_imports and isinstance(node, (ast.BinOp, ast.AugAssign)):
                if isinstance(node.op, SHIFTS_AND_MASKS):
                    faults.append((name, f"line {node.lineno}: {type(node.op).__name__}"))
    assert faults == []


def test_the_presentation_reaches_the_engine_through_one_attribute():
    assert not [name for name in MOVED if hasattr(TrinomialPresentation, name)]
    assert isinstance(TrinomialPresentation.__dict__["engine"], cached_property)
    (normal_form,) = [
        node
        for node in modules()["poly.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "normal_form"
    ]
    reads = {
        node.attr
        for node in ast.walk(normal_form)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "presentation"
    }
    assert reads == {"engine"}


def test_only_the_presentation_builds_the_grading():
    callers = {
        name
        for name, tree in modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "weight_assignment" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"presentation.py"}
    assert isinstance(TrinomialPresentation.__dict__["grading"], cached_property)


def test_only_dense_terms_takes_an_lcm():
    """poly.dense_terms is the one scaler of coefficient denominators; the
    only other lcm is gaussian.py's, which puts one scalar over one
    denominator."""
    callers = set()
    for name, tree in modules().items():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                callers |= {
                    (name, func.name)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and "lcm" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                }
    assert {name for name, _ in callers} <= {"poly.py", "gaussian.py"}
    assert {func for name, func in callers if name == "poly.py"} == {"dense_terms"}


def test_only_summed_terms_drops_a_cancelled_term():
    """poly.summed_terms is the one merger of GaussianRational terms: every
    del of a subscript sits in it, but for gaussian.gq_factor's removal of
    a prime whose exponent reached 0, and the per-term helpers it replaced
    are gone."""
    dels, defined = [], set()
    for name, tree in modules().items():
        owners = {}
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(func.name)
                # ast.walk meets an outer function first, so an inner one overwrites it
                owners.update((node, func.name) for node in ast.walk(func))
        dels += [
            (name, owners.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Delete) and any(isinstance(t, ast.Subscript) for t in node.targets)
        ]
    assert sorted(dels) == [("gaussian.py", "gq_factor"), ("poly.py", "summed_terms")]
    assert not defined & {"_add_term", "_add_product"}
