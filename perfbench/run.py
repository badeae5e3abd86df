#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload list-st16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, end to end
    python3 perfbench/run.py --selftest       # the benchmark's own tests

Run from the root of a source checkout.  The benchmark is built from
source with dune into _build/, then one process runs each workload; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["list-st16", "hash-smr", "hash-1m"]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail("no source tree to build here (dune-project and lib/ are missing)")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("dune is not installed")
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune + ["build", "--root", ROOT, "--display", "quiet",
                  "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                              stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(args):
    """Run the benchmark executable; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)))
    return done.returncode, done.stdout.splitlines()


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=12648430)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    if a.selftest:
        code, lines = run(["--selftest", "--seed", str(a.seed)])
        print("\n".join(lines))
        return code
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in workloads:
        code, lines = run(["--workload", w, "--seed", str(a.seed),
                           "--seconds", str(a.seconds), "--trace", str(a.trace)])
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail("workload %s printed no result (exit code %d)" % (w, code))
        if len(workloads) == 1:
            print("\n".join(lines))
            return code
        print("\n".join(lines[:-1]))
        worst = max(worst, code)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][w + "/" + name] = m
    print(json.dumps(total))
    return worst


if __name__ == "__main__":
    sys.exit(main())
