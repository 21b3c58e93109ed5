#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, one seed per run, and
prints every end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload W ...]

The spread is (Q3 - Q1) / median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them. A metric is flagged when
its spread exceeds its bound in BENCHMARK.json (`setup_s` is exempt, as
it is only compared median to median), and marked `~` when it exceeds a
third of the bound. Exits non-zero if a metric is flagged or a run is
incorrect. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()

    bad = False
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            walls.append(time.monotonic() - t0)
            if r.returncode != 0:
                print(f"{w} seed {seed}: run.py exited with code {r.returncode}")
                bad = True
                continue
            result = json.loads(r.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: incorrect ({result['failed']} of "
                      f"{result['attempted']} operations failed)")
                bad = True
            for name, v in result["metrics"].items():
                values[name].append(v["value"])
        print(f"{w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each, "
              f"{max(walls):.1f} s wall at most")
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    flag = "FLAG"
                    bad = True
                elif spread > m["bound"] / 3:
                    flag = "~"
            print(f"  {m['name']:<18} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:7.4f} bound {m['bound']:<5} {m['unit']:<6} {flag}")
            print("    runs: " + " ".join(f"{x:.6g}" for x in xs))
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
