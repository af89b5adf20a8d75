#!/usr/bin/env python3
"""List every function of src/trilnd that no entry point enters.

Run it from the repository root:

    python3 scripts/reach.py

In this one process, under sys.setprofile, it runs every entry point:
output_dump.py, oracle_cross_check.py (default bound), corpus_soundness.py
and surface_families.py with their stdout discarded; `trilnd oracle` on
every sample input; `trilnd demazure --materialize` on both rays; and one
pass of each perfbench workload (generate, run, check) in a temporary
directory. It then lists the functions of src/trilnd from the AST, nested
ones included, and prints each that no call entered as file:first-last.

Dunder methods and the names perfbench/tracing.py lists in SPANS and
COUNTED are exempt: the tracer rebinds those by name. Every other
unreached function must be named in scripts/reach_allowlist.txt, one
"name  reason" a line. The exit code is 1 when an unreached function is
neither exempt nor listed, or when a listed name is reached or no longer
exists; otherwise 0. An entry point that fails stops the run with a
traceback.
"""

import ast
import contextlib
import glob
import io
import os
import random
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "trilnd"
ALLOWLIST = ROOT / "scripts" / "reach_allowlist.txt"
TRACING = ROOT / "perfbench" / "tracing.py"
SCRIPTS = ("output_dump.py", "oracle_cross_check.py", "corpus_soundness.py", "surface_families.py")
# Timed items of one whole pass of each workload's input schedule; the
# worker generates one more, its warm-up.
PASS_ITEMS = {"oracle-sweep": 24, "deep-nilpotency": 126, "wide-classify": 12}

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def functions():
    """{(path, first line): (name, last line)} for every def in src/trilnd.

    A name is module.Qual.name. The first line is the one a code object
    reports as co_firstlineno: that of the first decorator, if any."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = (name, child.end_lineno)
                visit(child, path, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem)
    return found


def traced_names():
    """module.attr for every SPANS and COUNTED entry, read as literals."""
    names = set()
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("SPANS", "COUNTED"):
            for module, attr, _span in ast.literal_eval(node.value):
                names.add(f"{module.removeprefix('trilnd.')}.{attr}")
    return names


def allowlist():
    """{name: reason}, read from ALLOWLIST; # starts a comment line."""
    listed = {}
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            listed[name] = reason.strip()
    return listed


def run_script(name):
    saved = sys.argv
    sys.argv = [f"scripts/{name}"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise RuntimeError(f"scripts/{name} exited {exc.code}") from None
    finally:
        sys.argv = saved


def run_cli(*argv):
    from trilnd.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"trilnd {' '.join(argv)} exited {code}")


def run_workloads():
    from workloads import WORKLOADS

    for name, items in PASS_ITEMS.items():
        workload = WORKLOADS[name]()
        rng = random.Random(1)
        with tempfile.TemporaryDirectory() as work:
            for k in range(items + 1):
                item = workload.generate(rng, k, Path(work))
                reason = workload.check(item, workload.run(item))
                if reason is not None:
                    raise RuntimeError(f"{name} item {k}: {reason}")


def entered_code():
    """The code objects of every call the entry points make."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        for name in SCRIPTS:
            run_script(name)
        for path in sorted(glob.glob("sample_inputs/*.json")):
            run_cli("oracle", "--presentation", path)
        for ray in ("1", "2"):
            run_cli("demazure", "--rays", "0,1:3,-1", "--ray", ray, "--materialize", "2")
        run_workloads()
    finally:
        sys.setprofile(None)
    return entered


def main() -> int:
    os.chdir(ROOT)
    entered = entered_code()
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in entered}
    exempt = traced_names()
    listed = allowlist()
    unreached, unlisted, total = [], [], 0
    for (path, first), (name, last) in functions().items():
        if (os.path.realpath(path), first) in reached:
            continue
        unreached.append(name)
        total += last - first + 1
        print(f"{os.path.relpath(path, ROOT)}:{first}-{last}  {last - first + 1:3} lines  {name}")
        short = name.rsplit(".", 1)[-1]
        if not (short.startswith("__") and short.endswith("__")) and name not in exempt and name not in listed:
            unlisted.append(name)
    print(f"{len(unreached)} functions, {total} lines, unreached")
    stale = sorted(set(listed) - set(unreached))
    for name in unlisted:
        print(f"unreached and not in {ALLOWLIST.name}: {name}")
    for name in stale:
        print(f"in {ALLOWLIST.name} but reached or gone: {name}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
