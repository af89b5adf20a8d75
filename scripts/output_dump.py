#!/usr/bin/env python3
"""Print every user-visible result on a fixed input set, for diffing two trees.

Run it once against each source tree and compare the dumps byte for byte:

    PYTHONPATH=<tree>/src python scripts/output_dump.py > dump
    cmp dump.before dump.after

Run it from the repository root, so that sample_inputs/ is found. It
does not add src/ to the path itself: PYTHONPATH picks the tree under
test. The inputs are sample_inputs/*.json, every corpus() member,
unnormalized_member() and every rescaled_members() entry, whose t2c and
t2d roots are not 1, so that roots and fractional Gaussian coefficients
reach the printed images and kernel patterns. For each it writes:

* stdout and exit code of the CLI commands analyze, lnds and
  lnds --lambdas "0,1,i,2-3i", each with and without --expand, and
  normalize, and of verify --cap 16 on every derivation that
  enumerate_lnds materializes;
* kernel_generators for every descriptor that enumerate_lnds builds,
  and stdout and exit code of the CLI command kernel on that descriptor,
  with --member its first kernel generator when it has one;
* oracle_enumerate(degree_bound=3, cap=4).to_dict() for members with
  n + d <= 4.

After the last member come the inputs that no member reaches: verify of
BROKEN on sample_inputs/sphere_cylinder.json; the same block for
GAUSSIAN_PRIME_MEMBER, whose coefficient ratio has a norm with a prime
factor that is 1 mod 4; and analyze of REFUSED, an input error whose
message shows the bad value.

Temporary file names never reach the output.
"""

import contextlib
import glob
import io
import json
import os
import sys
import tempfile

from trilnd.classify import enumerate_lnds, kernel_generators
from trilnd.cli import main as cli_main
from trilnd.corpus import corpus, rescaled_members, unnormalized_member
from trilnd.derivation import derivation_to_text
from trilnd.gaussian import gq
from trilnd.oracle import oracle_enumerate
from trilnd.poly import poly_format
from trilnd.presentation import TrinomialPresentation, type2

COMMANDS = (
    ("analyze",),
    ("analyze", "--expand"),
    ("lnds",),
    ("lnds", "--expand"),
    ("lnds", "--lambdas", "0,1,i,2-3i"),
    ("lnds", "--expand", "--lambdas", "0,1,i,2-3i"),
    ("normalize",),
)

# a derivation that breaks the relation, whose residue verify prints, and
# one whose image is not homogeneous
BROKEN = ("T0_1 = 1\n", "S1 = 1 + T1_1\n")
# normalize splits the ratio's norm, 25 = 5^2, into Gaussian primes
GAUSSIAN_PRIME_MEMBER = type2(((2,), (2,), (3,)), constants=((1, 0), (0, 1), (gq(-3, -4), -1)))
REFUSED = '{"type": 3, "blocks": [[2], [3]]}'


def attempt(fn):
    """fn(), or the exception it raised as text: a crash is part of the output."""
    try:
        return fn()
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def run_cli(argv, stdin_text=""):
    """stdout and exit code of one in-process CLI run."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = attempt(lambda: cli_main(list(argv)))
    finally:
        sys.stdin = saved
    return out.getvalue(), code


def dump_member(label, path, P, write):
    write(f"=== {label}\n")
    for command in COMMANDS:
        text, code = run_cli([command[0], "--presentation", path, *command[1:]])
        write(f"--- {' '.join(command)}: exit {code}\n{text}")
    for inst in enumerate_lnds(P):
        desc = json.dumps(inst.descriptor.to_dict())
        if inst.derivation is None:
            write(f"--- {desc}: not built: {inst.error}\n")
            continue
        text, code = run_cli(
            ["verify", "--presentation", path, "--derivation", "-", "--cap", "16"],
            derivation_to_text(inst.derivation),
        )
        write(f"--- verify {desc}: exit {code}\n{text}")
        kernel = attempt(
            lambda: [poly_format(g) for g in kernel_generators(P, inst.descriptor)]
        )
        write(f"--- kernel_generators {desc}: {kernel}\n")
        member = ["--member", kernel[0]] if isinstance(kernel, list) and kernel else []
        text, code = run_cli(["kernel", "--presentation", path, "--descriptor", desc, *member])
        write(f"--- kernel {desc} {' '.join(member)}: exit {code}\n{text}")
    if P.n + P.d <= 4:
        report = attempt(lambda: oracle_enumerate(P, degree_bound=3, cap=4).to_dict())
        write(f"--- oracle_enumerate: {json.dumps(report)}\n")


def main() -> int:
    write = sys.stdout.write
    for path in sorted(glob.glob("sample_inputs/*.json")):
        with open(path, encoding="utf-8") as fh:
            P = TrinomialPresentation.from_json(fh.read())
        dump_member(path, path, P, write)
    members = [*corpus(), unnormalized_member(), *rescaled_members()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "presentation.json")
        for index, P in enumerate(members):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(P.to_input_dict(), fh)
            dump_member(f"member {index}: {P.describe()}", path, P, write)
        for text in BROKEN:
            out, code = run_cli(
                ["verify", "--presentation", "sample_inputs/sphere_cylinder.json", "--derivation", "-"], text
            )
            write(f"=== verify {text.strip()} on sample_inputs/sphere_cylinder.json: exit {code}\n{out}")
        P = GAUSSIAN_PRIME_MEMBER
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(P.to_input_dict(), fh)
        dump_member(f"Gaussian-prime member: {P.describe()}", path, P, write)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(REFUSED)
        out, code = run_cli(["analyze", "--presentation", path])
        write(f"=== analyze {REFUSED}: exit {code}\n{out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
