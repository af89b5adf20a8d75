#!/usr/bin/env python3
"""Cross-check the rigidity classifier against the linear-algebra search.

For every corpus member (each fits the default degree-4 search box, which
tests/test_corpus.py checks), solve for homogeneous
derivations degree by degree and test samples for nilpotency. A member
the classifier calls rigid must produce no locally nilpotent solution,
and vice versa. Every refuted sample's certificate is re-checked from
its exact images with refutation_holds, which shares no code with the
walk that found it, and a certificate that fails counts as a mismatch.
Disagreements are printed and counted. Each line also counts the
member's samples by nilpotency verdict (verified, refuted, inconclusive),
the refuted ones split by refutation (divisibility, degree_cycle), and
a summary line sums them. The rescaled members (corpus.rescaled_members,
whose t2c and t2d roots are not all 1) follow on lines of their own,
with their own sums, so that the corpus counts stay comparable.
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from trilnd.classify import is_rigid
from trilnd.corpus import corpus, rescaled_members
from trilnd.derivation import refutation_holds
from trilnd.oracle import BoxTooLarge, oracle_enumerate

VERDICTS = ("verified", "refuted", "divisibility", "degree_cycle", "inconclusive")


def format_counts(counts):
    return " ".join(f"{verdict}={counts[verdict]:<4d}" for verdict in VERDICTS).rstrip()


def sweep(members, args, totals, mismatches):
    """Check each member, print its line, and add to totals and
    mismatches; returns (skipped, unchecked)."""
    skipped = unchecked = 0
    for P in members:
        rigid = is_rigid(P).rigid
        try:
            report = oracle_enumerate(
                P,
                degree_bound=args.bound,
                cap=args.cap,
                max_unknowns=args.max_unknowns,
            )
        except BoxTooLarge as exc:
            print(f"{P.describe():40s} skipped ({exc})")
            skipped += 1
            continue
        found = report.nilpotent_found
        counts = dict.fromkeys(VERDICTS, 0)
        failed = []
        for entry in report.entries:
            for name, delta, nil in entry.samples:
                counts[nil.status] += 1
                if nil.status == "refuted":
                    counts[nil.refutation] += 1
                    if not refutation_holds(delta, nil):
                        failed.append(name)
        for verdict, n in counts.items():
            totals[verdict] += n
        agree = rigid != found and not failed
        mark = "agree" if agree else "MISMATCH"
        print(f"{P.describe():40s} rigid={rigid!s:5s} oracle_found={found!s:5s} "
              f"{format_counts(counts)}  {mark}")
        if failed:
            unchecked += len(failed)
            print(f"  refutations that do not re-check: {', '.join(failed)}")
        if not agree:
            mismatches.append(P.describe())
    return skipped, unchecked


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=int, default=4,
                    help="image degree bound for the search (default 4)")
    ap.add_argument("--cap", type=int, default=16,
                    help="nilpotency cap inside the search (default 16)")
    ap.add_argument("--max-unknowns", type=int, default=600)
    args = ap.parse_args()

    mismatches = []
    totals = dict.fromkeys(VERDICTS, 0)
    started = time.monotonic()
    skipped, unchecked = sweep(corpus(), args, totals, mismatches)
    elapsed = time.monotonic() - started
    print(f"\n{len(corpus()) - skipped} members checked in {elapsed:.1f} s, "
          f"{skipped} skipped, {len(mismatches)} mismatches")
    print(f"samples: {format_counts(totals)}; "
          f"{totals['refuted']} refutations re-checked, {unchecked} failed")

    print("\nrescaled members:")
    corpus_mismatches = len(mismatches)
    rescaled = dict.fromkeys(VERDICTS, 0)
    started = time.monotonic()
    skipped, unchecked = sweep(rescaled_members(), args, rescaled, mismatches)
    elapsed = time.monotonic() - started
    print(f"{len(rescaled_members()) - skipped} rescaled members checked in {elapsed:.1f} s, "
          f"{skipped} skipped, {len(mismatches) - corpus_mismatches} mismatches")
    print(f"rescaled samples: {format_counts(rescaled)}; "
          f"{rescaled['refuted']} refutations re-checked, {unchecked} failed")
    for name in mismatches:
        print(f"  {name}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
