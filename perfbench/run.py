#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload ring-32k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/main.exe from source
with dune (inside the checkout's _build, shared cache off), runs it on
one workload, and passes its output through; the last line is the
result object.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics.  Exits non-zero, with
no result line of its own, when the build fails, and with the
program's status when a check fails.  The metric names of the result
line are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet",
           "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (dune exit {done.returncode})")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = expected_names(args.trace)
    build()
    done = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    out = done.stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit(done.returncode)
    last = out.strip().splitlines()[-1] if out.strip() else "{}"
    got = list(json.loads(last).get("metrics", {}))
    if got != names:
        sys.exit(f"perfbench: metrics {got} differ from BENCHMARK.json {names}")


if __name__ == "__main__":
    main()
