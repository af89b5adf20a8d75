"""The two invariants of the package, read off its source.

trilnd computes exactly, so src/trilnd has no float or complex literal
and no call of float(). It runs on the stdlib and sympy alone: every
import is of a stdlib module, of the package itself (relative), or of
sympy, and sympy is imported only inside function bodies of gaussian.py
and presentation.py, so importing trilnd never loads it. The modules
are read as source, without importing them.

Every module also stays under 8,192 tokens, the size at which CPython's
parser doubles its token array (to 16,384 entries) while it compiles the
module: the benchmark workers compile trilnd from source, and their peak
RSS steps up by about 0.5 MB when any module crosses it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trilnd"
SYMPY_MODULES = {"gaussian.py", "presentation.py"}


def modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def imports(tree):
    """(top-level module or None for a relative import, inside a function
    body, line) for every import statement of tree."""
    out = []

    def walk(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                for alias in child.names:
                    out.append((alias.name.split(".")[0], in_function, child.lineno))
            elif isinstance(child, ast.ImportFrom):
                top = None if child.level else child.module.split(".")[0]
                out.append((top, in_function, child.lineno))
            nested = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            walk(child, nested)

    walk(tree, False)
    return out


def test_the_sources_are_read():
    assert {"derivation.py", "gaussian.py", "poly.py", "presentation.py"} <= set(modules())


def floats(tree):
    """(line, what) for every float or complex literal and float() call."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            out.append((node.lineno, "float() call"))
    return sorted(out)


def test_no_floating_point_in_the_package():
    found = [
        f"{name}:{line}: {what}" for name, tree in modules().items() for line, what in floats(tree)
    ]
    assert found == []


def test_imports_are_stdlib_the_package_or_sympy_in_a_function():
    found = []
    sympy_seen = set()
    for name, tree in modules().items():
        for top, in_function, line in imports(tree):
            if top is None or top in sys.stdlib_module_names:
                continue
            if top == "sympy" and name in SYMPY_MODULES and in_function:
                sympy_seen.add(name)
                continue
            found.append(f"{name}:{line}: {top}")
    assert found == []
    assert sympy_seen == SYMPY_MODULES


def test_the_walks_see_what_they_must_refuse():
    tree = ast.parse(
        "import os\n"
        "import sympy\n"
        "from . import poly\n"
        "from numpy.linalg import solve\n"
        "def f():\n"
        "    from sympy.ntheory import factorint\n"
        "x = 0.5 + float('1')\n"
    )
    assert imports(tree) == [
        ("os", False, 1),
        ("sympy", False, 2),
        (None, False, 3),
        ("numpy", False, 4),
        ("sympy", True, 6),
    ]
    assert floats(tree) == [(7, "float() call"), (7, "literal 0.5")]
    assert floats(ast.parse("y = 2j * 3")) == [(1, "literal 2j")]


# the step of CPython's token array, and the token types the count leaves out
TOKEN_STEP = 8192
UNCOUNTED = {tokenize.NL, tokenize.COMMENT, tokenize.ENDMARKER}


def token_count(source: str) -> int:
    tokens = tokenize.tokenize(io.BytesIO(source.encode()).readline)
    return sum(1 for token in tokens if token.type not in UNCOUNTED)


def test_every_module_stays_under_the_token_step():
    counts = {path.name: token_count(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {"classify.py", "poly.py"} <= set(counts)
    assert {name: n for name, n in counts.items() if n >= TOKEN_STEP} == {}


def test_the_token_count_leaves_out_layout_and_comments():
    # ENCODING, NAME, OP, NUMBER, NEWLINE: five; the comment and the blank
    # line's NL are not counted
    assert token_count("x = 1  # one\n\n") == 5
    assert token_count("") == 1
