#!/usr/bin/env python3
"""Append one perfbench point to the BENCH_perf.json trajectory.

    python3 bench/trajectory.py [--reps 3] [--seconds 3] [--checkout DIR]
                                [--label TEXT]

Runs `python3 perfbench/run.py --workload all --seed 1 --reps k --trace 0`
in --checkout (default: this repository), which builds and runs every
workload k times, interleaved, and appends one entry to this repository's
BENCH_perf.json: the checkout's commit, whether its tracked files differ
from it, the git tree ids of the `lib/` and `perfbench/` code that ran,
the host line of the first run, the command, the oracle verdict, and for
each workload metric its median, first and third quartiles and IQR. The
tree ids tie a point measured on uncommitted edits to the commit that
later holds them: `git rev-parse <commit>:lib` gives the same id. Every
point runs untraced from seed 1, so points compare with each other.
--checkout lets a clean copy of another commit (say, a parent made with
`git clone`) be measured into this repository's trajectory. Exits
non-zero, writing nothing, when the benchmark fails or its oracle check
does.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_perf.json")


def git(checkout, *args):
    r = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def parse(stdout):
    """Host line, metrics and verdict from `run.py --workload all` output."""
    lines = stdout.strip().splitlines()
    host = next((l[2:] for l in lines if l.startswith("# workload=")), None)
    verdict = json.loads(lines[-1])
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) != 7 or not parts[4].startswith("q1="):
            continue
        workload, name, median, unit = parts[0], parts[1], float(parts[2]), parts[3]
        q1 = float(parts[4][len("q1="):])
        q3 = float(parts[5][len("q3="):])
        metrics[f"{workload}.{name}"] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "iqr": q3 - q1,
            "unit": unit,
        }
    return host, verdict, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seconds", type=int, default=3)
    p.add_argument("--checkout", default=ROOT)
    p.add_argument("--label", default="")
    args = p.parse_args()
    checkout = os.path.abspath(args.checkout)
    cmd = [
        "python3", "perfbench/run.py", "--workload", "all",
        "--seed", "1", "--seconds", str(args.seconds),
        "--reps", str(args.reps), "--trace", "0",
    ]
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0 or not r.stdout.strip():
        print("trajectory.py: perfbench run failed", file=sys.stderr)
        return 1
    host, verdict, metrics = parse(r.stdout)
    if not verdict["correct"] or verdict["failed"] or not metrics:
        print(f"trajectory.py: oracle check failed: {r.stdout.strip().splitlines()[-1]}", file=sys.stderr)
        return 1
    # `git stash create` snapshots the tracked files of a dirty checkout
    # as a commit object without touching the tree, index or stash list.
    snap = git(checkout, "stash", "create") or "HEAD"
    entry = {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "trees": {d: git(checkout, "rev-parse", f"{snap}:{d}") for d in ("lib", "perfbench")},
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": host,
        "command": " ".join(cmd),
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }
    trajectory = []
    if os.path.exists(OUT):
        with open(OUT) as f:
            trajectory = json.load(f)
    trajectory.append(entry)
    with open(OUT, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(f"appended {len(metrics)} metrics for {entry['commit']} to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
