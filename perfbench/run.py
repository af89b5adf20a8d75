#!/usr/bin/env python3
"""The trilnd benchmark: one workload per call, run from a checkout root.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 30 --trace 0

Every pass runs in its own fresh single-threaded process (worker.py) as
a closed loop with one client over a fixed number of items. --trace 0
reports the end-to-end metrics of an untraced pass plus the median of
several set-ups; --trace 1 reports per-layer metrics from a traced pass,
the same items untraced (for the tracing overhead) and two count-only
passes under different PYTHONHASHSEED values. The last line of stdout is
the JSON result; the lines before it print every metric with its unit.
See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Per workload: the items of a timed pass and of a traced pass, each a
# whole number of passes over the workload's shape schedule (see
# workloads.py), and the tail percentile reported: the highest of p75,
# p90, p95 and p99 that leaves at least ten timed items beyond it.
#   oracle-sweep     2 x the 24 shapes; traced: 1 x
#   deep-nilpotency  4 x the 126-item pass (42 toric roots, 84 replicas);
#                    traced: 2 x
#   wide-classify    6 x the 12 shapes; traced: 2 x
WORKLOADS = {
    "oracle-sweep": {"items": 48, "traced_items": 24, "tail": 75},
    "deep-nilpotency": {"items": 504, "traced_items": 252, "tail": 95},
    "wide-classify": {"items": 72, "traced_items": 24, "tail": 75},
}
SETUPS = 5  # set-ups per --trace 0 run; setup_s is their median
HASH_SEEDS = ("1", "2")  # PYTHONHASHSEED of the two count passes
MIN_COVERAGE = 0.9
RUN_TIMEOUT_S = 170  # all passes of one run together


class WorkerFailed(RuntimeError):
    pass


def percentile(sorted_values, p):
    """Harrell-Davis estimate: a weighted mean of all order statistics,
    the k-th weighted by the Beta((n+1)q, (n+1)(1-q)) mass on
    [(k-1)/n, k/n]. It moves less than the one or two items nearest
    the percentile when a burst of machine noise slows a few items."""
    n, q = len(sorted_values), p / 100
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        if t <= 0 or t >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    # Simpson's rule on each interval; normalised so the weights sum to 1.
    weights = [
        density(k / n) + 4 * density((k + 0.5) / n) + density((k + 1) / n) for k in range(n)
    ]
    return sum(w * x for w, x in zip(weights, sorted_values)) / sum(weights)


def run_worker(args, work: Path, mode: str, items: int, hash_seed=None):
    """Start one worker, wait for it, and return (result, spawn time)."""
    out = work / f"{mode}-{hash_seed or 'x'}-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path.cwd() / "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--items", str(items),
        "--work", str(work / "inputs"), "--out", str(out),
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, args.deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text()), spawned


def warmup_problems(results):
    reasons = {r["warmup_failure"] for r in results if r["warmup_failure"]}
    return [f"warm-up item failed: {reason}" for reason in sorted(reasons)]


def end_to_end(args, work: Path):
    items = WORKLOADS[args.workload]["items"]
    setups, results = [], []
    for mode in ["setup"] * (SETUPS - 1) + ["plain"]:
        result, spawned = run_worker(args, work, mode, items)
        setups.append(result["t_ready"] - spawned)
        results.append(result)
    lat = sorted(result["latencies"])
    n, failed = len(lat), len(result["failures"])
    tail_p = WORKLOADS[args.workload]["tail"]
    tail = percentile(lat, tail_p)
    notes = [
        f"items: {n} attempted, {failed} failed, failed_ratio = {failed / n:.6g}",
        f"item_tail_ms is p{tail_p} of {n} items, {sum(x > tail for x in lat)} beyond it",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    notes += [f"failure at item {k}: {reason}" for k, reason in result["failures"][:10]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (n / sum(lat), "1/s"),
        "item_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (result["rss_kb"] / 1024, "MB"),
    }
    return metrics, n, failed, notes, warmup_problems(results)


def per_layer(args, work: Path):
    n = WORKLOADS[args.workload]["traced_items"]
    traced, _ = run_worker(args, work, "traced", n)
    plain, _ = run_worker(args, work, "plain", n)
    counted = [run_worker(args, work, "count", n, hash_seed=h)[0] for h in HASH_SEEDS]
    problems = warmup_problems([traced, plain, *counted])
    if any(r["digest"] != traced["digest"] for r in [plain, *counted]):
        problems.append("the passes did not see identical inputs")

    tr = traced["trace"]
    calls, self_s, counts = tr["calls"], tr["self_s"], tr["counts"]
    traced_wall = sum(traced["latencies"])
    coverage = tr["top_s"] / traced_wall

    def layer(name, table):
        return sum(v for k, v in table.items() if k.split(".")[0] == name)

    samples = counts.get("oracle.samples", 0)
    metrics = {
        "derivation.apply.calls": (calls.get("derivation.apply", 0), "count"),
        "derivation.apply.self_s": (self_s.get("derivation.apply", 0.0), "s"),
        "poly.normal_form.calls": (calls.get("poly.normal_form", 0), "count"),
        "poly.normal_form.self_s": (self_s.get("poly.normal_form", 0.0), "s"),
        "poly.normal_form.terms_in": (counts.get("poly.normal_form.terms_in", 0), "count"),
        "poly.normal_form.terms_out": (counts.get("poly.normal_form.terms_out", 0), "count"),
    }
    notes = []
    for key in counted[0]["counts"]:
        values = [r["counts"][key] for r in counted]
        exact = len(set(values)) == 1
        metrics[key] = (values[0], "count")
        metrics[key + ".exact"] = (int(exact), "bool")
        notes.append(
            f"{key}: {' / '.join(map(str, values))} under PYTHONHASHSEED "
            f"{' / '.join(HASH_SEEDS)}, {'exact' if exact else 'NOT exact'}"
        )
    metrics.update({
        "derivation.nilpotency.calls": (calls.get("derivation.nilpotency", 0), "count"),
        "derivation.nilpotency.self_s": (self_s.get("derivation.nilpotency", 0.0), "s"),
        "derivation.nilpotency.inconclusive": (counts.get("derivation.nilpotency.inconclusive", 0), "count"),
        "oracle.samples": (samples, "count"),
        "oracle.decided_ratio": (counts.get("oracle.decided", 0) / samples if samples else 0.0, "ratio"),
        "oracle.solution_space.calls": (calls.get("oracle.solution_space", 0), "count"),
        "oracle.solution_space.self_s": (self_s.get("oracle.solution_space", 0.0), "s"),
        "oracle.unknowns.sum": (counts.get("oracle.unknowns.sum", 0), "count"),
        "oracle.unknowns.max": (counts.get("oracle.unknowns.max", 0), "count"),
        "classify.calls": (layer("classify", calls), "count"),
        "classify.self_s": (layer("classify", self_s), "s"),
        "classify.tuples": (counts.get("classify.tuples", 0), "count"),
        "classify.lnds_built": (counts.get("classify.lnds_built", 0), "count"),
        "derivation.well_defined.calls": (calls.get("derivation.well_defined", 0), "count"),
        "derivation.well_defined.self_s": (self_s.get("derivation.well_defined", 0.0), "s"),
        "cli.calls": (calls.get("cli.main", 0), "count"),
        "cli.self_s": (layer("cli", self_s), "s"),
        "cli.output_bytes": (traced["output_bytes"], "bytes"),
        "poly.format.self_s": (self_s.get("poly.format", 0.0), "s"),
        "derivation.parse.self_s": (self_s.get("derivation.parse", 0.0), "s"),
        "presentation.self_s": (layer("presentation", self_s), "s"),
        "grading.weight_assignment.calls": (calls.get("grading.weight_assignment", 0), "count"),
        "grading.weight_assignment.self_s": (self_s.get("grading.weight_assignment", 0.0), "s"),
        "toric.self_s": (layer("toric", self_s), "s"),
    })
    setup_self = traced["setup_trace"]["self_s"]
    for name in ("presentation", "grading", "derivation", "classify", "toric", "poly"):
        metrics[f"setup.{name}.self_s"] = (layer(name, setup_self), "s")
    metrics.update({
        "trace.items": (n, "count"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead": (traced_wall / sum(plain["latencies"]), "ratio"),
    })
    notes.insert(0, f"traced pass: {n} items, {tr['spans']} spans, {len(traced['failures'])} failed")
    if coverage < MIN_COVERAGE:
        problems.append(f"trace.coverage {coverage:.3f} is below {MIN_COVERAGE}")
    failed = len(traced["failures"])
    return metrics, n, failed, notes, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--seconds", type=float, default=30,
        help="nominal run length; the item counts are fixed, sized for 30",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    args.deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (Path.cwd() / "src" / "trilnd" / "__init__.py").is_file():
        print("perfbench: run from the root of a trilnd checkout (no src/trilnd here)", file=sys.stderr)
        return 2
    work = Path.cwd() / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, notes, problems = measure(args, work)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in notes + problems:
        print(f"  {line}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
