#!/usr/bin/env python3
"""Builds and runs the repository benchmark (the r2c-perfbench package).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The package is built from source with
cargo (offline, release profile) into $CARGO_TARGET_DIR, or
perfbench/target when that is unset. The benchmark's own output is
passed through; the last line is the result JSON, to which this script
adds `host_rss_peak_mb` (the run's peak resident set, from wait4) when
--trace is 0. The metric names are checked against BENCHMARK.json, and
any failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark itself measures --seconds plus a few seconds of set-up;
# a run past this is hung.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Builds the benchmark and returns the path of its executable."""
    target = os.environ.get("CARGO_TARGET_DIR")
    if target:
        target = os.path.join(os.getcwd(), target)
    else:
        target = os.path.join(HERE, "target")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's chatter goes to stderr so the result stays the last line
    # of standard output.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"cargo build failed with code {r.returncode}")
    exe = os.path.join(target, "release", "r2c-perfbench")
    if not os.path.isfile(exe):
        fail(f"built executable not found at {exe}")
    return exe


def run(exe, args):
    """Runs the benchmark; returns its exit code, stdout lines and the
    peak RSS of its process in MB (wait4 on its pid)."""
    p = subprocess.Popen(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
    finally:
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return p.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    exe = build()

    code, lines, rss_mb = run(exe, args)
    if code != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"benchmark exited with code {code}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")

    try:
        result = json.loads(lines[-1])
    except ValueError as e:
        fail(f"last line is not a result: {e}")
    if args.trace == 0:
        result["metrics"]["host_rss_peak_mb"] = {"value": rss_mb, "unit": "MB"}
        expected = spec["end_to_end"]
    else:
        expected = spec["per_layer"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
