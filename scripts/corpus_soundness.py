#!/usr/bin/env python3
"""Sweep the built-in corpus and verify every emitted derivation.

For each presentation of corpus() and rescaled_members(): materialize
one derivation per class, check well-definedness, homogeneity,
nilpotency, and kernel membership of the recorded invariants. Each
derivation delta also gets a replica h * delta, with h = (1 + k1 + k2) *
k_last built from its kernel generators, which must read the same
nilpotency status and index as delta: h lies in the kernel, so
(h * delta)^n = h^n * delta^n on every generator. A failed
self-check of the enumeration (an InternalError) or an inhomogeneous
derivation counts as a failure of its member, as a broken check does.
Prints one line per member and a final tally.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from trilnd.classify import enumerate_lnds, kernel_generators
from trilnd.corpus import corpus, rescaled_members
from trilnd.derivation import is_well_defined, kernel_member, nilpotency_check, replica
from trilnd.gaussian import InternalError
from trilnd.grading import NonHomogeneous, derivation_degree


def check_member(P, cap: int):
    count = 0
    problems = []
    try:
        instances = enumerate_lnds(P)
    except InternalError as exc:
        return 0, [f"enumeration failed a self-check: {exc}"]
    for inst in instances:
        if inst.error is not None:
            problems.append(f"enumeration error: {inst.error}")
            continue
        delta = inst.derivation
        count += 1
        report = is_well_defined(delta)
        if not report.ok:
            problems.append(f"relation {report.relation_index} broken")
            continue
        if not delta.is_zero():
            try:
                derivation_degree(delta, P.grading)
            except NonHomogeneous as exc:
                problems.append(f"not homogeneous for {inst.descriptor.to_dict()}: {exc}")
                continue
        nil = nilpotency_check(delta, cap=cap)
        if not nil.verified:
            problems.append(f"nilpotency {nil.status} for {inst.descriptor.to_dict()}")
        kernel = kernel_generators(P, inst.descriptor)
        stray = [g for g in kernel if not kernel_member(delta, g)]
        problems.extend(f"kernel generator {g} not annihilated" for g in stray)
        if stray:
            continue
        h = (1 + sum(kernel[:2])) * (kernel[-1] if kernel else 1)
        twin = nilpotency_check(replica(delta, h), cap=cap)
        if (twin.status, twin.index) != (nil.status, nil.index):
            problems.append(
                f"replica by {h} reads {twin.status} {twin.index}, "
                f"not {nil.status} {nil.index}, for {inst.descriptor.to_dict()}"
            )
    return count, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cap", type=int, default=64,
                    help="nilpotency iteration cap (default 64)")
    args = ap.parse_args()

    total = 0
    failures = 0
    members = (*corpus(), *rescaled_members())
    started = time.monotonic()
    for P in members:
        count, problems = check_member(P, args.cap)
        total += count
        mark = "ok" if not problems else "FAIL"
        print(f"{P.describe():40s} {count:3d} lnds  {mark}")
        for msg in problems:
            failures += 1
            print(f"    {msg}")
    elapsed = time.monotonic() - started
    print(f"\n{total} derivations and {total} replicas over {len(members)} members "
          f"in {elapsed:.1f} s, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
