#!/usr/bin/env python3
"""Build the Dejavu runtime benchmark from source and run it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> [--reps <k>] [--trace <0|1>]

Run from the root of the repository. The first form runs one workload and
prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics from the traced run with --trace 1). The second form runs every
workload --reps times, interleaved (rep 1 of each workload, then rep 2, ...,
with the order rotated each rep) so a slow window on a shared host hits
all of them, and prints each metric's median and quartiles per workload.

Build output goes to standard error. Any failure exits non-zero without a
result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "bench.exe")
WORKLOADS = ["fig2_uncached", "fig2_zipf_emc", "stateful_churn", "fig2_sharded_d2"]
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bin/bench.exe"],
            cwd=ROOT,
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def run_one(workload, seed, seconds, trace, capture):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} timed out", file=sys.stderr)
        return None, None
    return r.returncode, r.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_all(args):
    rows = {w: [] for w in WORKLOADS}
    correct, attempted, failed = True, 0, 0
    for rep in range(args.reps):
        order = WORKLOADS[rep % len(WORKLOADS):] + WORKLOADS[:rep % len(WORKLOADS)]
        for w in order:
            code, out = run_one(w, args.seed + rep, args.seconds, args.trace, capture=True)
            if code != 0 or not out:
                print(f"run.py: {w} rep {rep} failed", file=sys.stderr)
                return 1
            lines = out.strip().splitlines()
            if rep == 0:
                print(lines[0])  # host line
            res = json.loads(lines[-1])
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            rows[w].append(res["metrics"])
    summary = {}
    print(f"# {args.reps} interleaved reps per workload, seeds {args.seed}..{args.seed + args.reps - 1}")
    for w in WORKLOADS:
        for name in rows[w][0]:
            values = [m[name]["value"] for m in rows[w]]
            unit = rows[w][0][name]["unit"]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{w:16} {name:36} {med:16.4f} {unit:12} q1={q1:.4f} q3={q3:.4f} iqr/median={spread:.3f}")
            summary[f"{w}.{name}"] = {"value": med, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reps", type=int, default=3)
    args = p.parse_args()
    if args.seconds < 1 or args.reps < 1:
        p.error("--seconds and --reps must be at least 1")
    if not build():
        return 1
    if args.workload == "all":
        return run_all(args)
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace, capture=False)
    return 1 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
