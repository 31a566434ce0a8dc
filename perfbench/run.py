#!/usr/bin/env python3
"""Builds the server and the benchmark harness, then runs one workload.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 10 --trace 0

Run from the repository root. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`). Build output goes to standard error; the
harness's report, ending in one JSON line, goes to standard output.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("hot_reads", "churn", "cold_opens")


def build(args, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    build(["-p", "datalog-cli"], env)
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)

    harness = os.path.join(target, "release", "perfbench")
    cmd = [
        harness,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server", os.path.join(target, "release", "datalog"),
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ]
    # With two CPUs to spare, the harness runs on one and the server on
    # the other, so the load generator never competes with the server
    # for a CPU and run-to-run placement luck drops out of the numbers.
    cpus = sorted(os.sched_getaffinity(0))
    pin = None
    if len(cpus) >= 2 and shutil.which("taskset"):
        cmd += ["--server-cpu", str(cpus[1])]
        pin = lambda: os.sched_setaffinity(0, {cpus[0]})
    # A process group of its own, so a run cut at the time limit takes
    # the server it started down with it.
    harness = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=pin, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        sys.exit(harness.wait(timeout=170))
    except subprocess.TimeoutExpired:
        os.killpg(harness.pid, signal.SIGKILL)
        harness.wait()
        sys.exit("perfbench: the run exceeded its time limit")


if __name__ == "__main__":
    main()
