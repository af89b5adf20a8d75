"""One workload process: set-up, an untimed warm-up item, then items.

Started by run.py from the root of a trilnd checkout, one process per
pass. Every pass generates the same --items inputs from the seed (plus
one for the warm-up) and, unless it only sets up, runs all of them as a
closed loop with one client. Modes:

  setup   set up and exit (run.py repeats set-up to take its median)
  plain   run the items, tracing off
  traced  run the items with spans at every layer boundary
  count   run the items, counting scalar and monomial calls

The result goes to --out as JSON; stdout is left to the program.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path


def _text_bytes(out) -> int:
    if isinstance(out, str):
        return len(out.encode("utf-8"))
    if isinstance(out, tuple):
        return sum(_text_bytes(part) for part in out)
    return 0


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        for role in sorted(item.files):
            h.update(Path(item.files[role]).read_bytes())
        h.update(json.dumps(item.expect, sort_keys=True).encode())
    return h.hexdigest()


def _run_checked(workload, item):
    """Run one item; return (seconds, output or None, failure reason or None)."""
    clock = time.perf_counter
    t0 = clock()
    try:
        out = workload.run(item)
    except Exception as exc:  # an unexpected exception is a failed item
        return clock() - t0, None, f"{type(exc).__name__}: {exc}"
    return clock() - t0, out, None


def _check(workload, item, out):
    try:
        return workload.check(item, out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced", "count"))
    ap.add_argument("--items", type=int, required=True, help="timed items to generate and run")
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(Path.cwd() / "src"))
    import trilnd  # noqa: F401  (every module must be loaded before rebinding)
    import trilnd.cli  # noqa: F401

    from tracing import Counter, Tracer

    probe = None
    if args.mode == "traced":
        probe = Tracer()
        probe.install()
        probe.active = True  # the set-up is traced too
    elif args.mode == "count":
        probe = Counter()
        probe.install()

    # Imported after rebinding so that its by-name imports are the wrappers.
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    deck = [workload.generate(rng, k, work) for k in range(args.items + 1)]
    warmup, deck = deck[0], deck[1:]
    _, out, reason = _run_checked(workload, warmup)
    result = {"t_ready": time.monotonic()}
    if args.mode == "traced":
        probe.active = False
        result["setup_trace"] = probe.summary()
        probe.reset()
    # The warm-up's check is not part of set-up; a failure is reported.
    result["warmup_failure"] = reason or _check(workload, warmup, out)
    if args.mode == "setup":
        Path(args.out).write_text(json.dumps(result))
        return 0

    latencies, failures, out_bytes = [], [], 0
    for k, item in enumerate(deck):
        gc.collect()
        if probe is not None:
            probe.active = True
        seconds, out, reason = _run_checked(workload, item)
        if probe is not None:
            probe.active = False
        latencies.append(seconds)
        if reason is None:
            out_bytes += _text_bytes(out)
            reason = _check(workload, item, out)
        if reason is not None:
            failures.append([k, reason])
    result.update(
        latencies=latencies,
        failures=failures,
        output_bytes=out_bytes,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        digest=_digest(deck),
    )
    if args.mode == "traced":
        result["trace"] = probe.summary()
        result["trace"]["counts"] = dict(probe.counts)
    elif args.mode == "count":
        result["counts"] = probe.counts
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
