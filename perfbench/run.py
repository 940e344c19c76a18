#!/usr/bin/env python3
"""The conversion-flow benchmark; perfbench/README.md describes it.

Run from the repository root:

    python3 perfbench/run.py --workload flow-mid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

A run builds perfbench/bench.exe with dune and runs it with
THREEPHASE_JOBS=1; the last line of its standard output is the JSON
result.  --self-test checks that a seed repeats its draw and its exact
metrics, and that the held-out seed draws something else.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# metrics that repeat to the last digit for a seed
EXACT = ["alloc_mw", "heap_mw", "ok_frac", "p2_inserted", "power_mw"]
# the seed to tune on, and the held-out seed that confirms a claim
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run this from the repository root; "
                 "dune-project or lib/ is missing here")
    # no shared dune cache, so the build stays inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                          stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(done.returncode)


def bench(args, capture=False):
    env = dict(os.environ, THREEPHASE_JOBS="1")
    return subprocess.run([EXE] + args, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)


def last_json(args):
    done = bench(args, capture=True)
    if done.returncode != 0:
        sys.exit(f"perfbench: bench.exe {' '.join(args)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def workloads():
    return bench(["--list"], capture=True).stdout.split()


def self_test(workloads):
    failures = []
    for w in workloads:
        def draw(seed):
            return last_json(["--workload", w, "--seed", str(seed), "--manifest"])
        first, again, held_out = draw(DEFAULT_SEED), draw(DEFAULT_SEED), draw(HELD_OUT_SEED)
        if first != again:
            failures.append(f"{w}: seed {DEFAULT_SEED} gave two different draws")
        if first["digest"] == held_out["digest"]:
            failures.append(f"{w}: held-out seed {HELD_OUT_SEED} gave the same draw")
        runs = [last_json(["--workload", w, "--seed", str(DEFAULT_SEED),
                           "--seconds", "1", "--trace", "0"]) for _ in range(2)]
        for name in EXACT:
            a, b = (r["metrics"][name]["value"] for r in runs)
            if a != b:
                failures.append(f"{w}: {name} read {a} then {b} on seed {DEFAULT_SEED}")
        print(f"{w}: checked", flush=True)
    for f in failures:
        print("FAIL", f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        return self_test(a.workload or workloads())
    if not a.workload or len(a.workload) != 1:
        p.error("give one --workload")
    return bench(["--workload", a.workload[0], "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", str(a.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
