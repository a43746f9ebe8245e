#!/usr/bin/env python3
"""Builds and runs the asyncml engine benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload asgd-sparse --seed 1 --seconds 40 --trace 0

builds the library, the wire-endpoint worker and the benchmark binary into
.bench_build/ (Release), runs one measurement and prints the binary's report;
the last stdout line is the JSON result. --trace 1 prints the per-layer
metrics instead and writes a Chrome trace under .bench_build/work/.

    python3 perfbench/run.py --workload asgd-sparse --spread 5 --seconds 40

runs seeds seed..seed+N-1 and prints, per metric, the median and the
quartile spread (Q3 - Q1) / median, marking those that repeat within a tenth.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no asyncml sources under " + ROOT + " (run from the repository root)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench", "asyncml_worker"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(step))


def run_once(workload, seed, seconds, trace):
    """Runs the binary once; returns (report lines, result line, parsed result)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", os.path.join(BUILD, "work")]
    # A run measures for `seconds`, then finishes its last episode, a traced
    # run's probe episode and the report.
    timeout = 2 * seconds + 60
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("run timed out after %g s" % timeout)
    lines = done.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("benchmark exited with status %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("benchmark printed no JSON result")
    if set(result) != RESULT_KEYS:
        fail("unexpected result keys: %s" % sorted(result))
    return lines[:-1], lines[-1], result


def spread(workload, first_seed, runs, seconds, trace):
    values = {}
    units = {}
    all_correct = True
    for seed in range(first_seed, first_seed + runs):
        lines, _, result = run_once(workload, seed, seconds, trace)
        steal = [line.strip() for line in lines if line.strip().startswith("steal share")]
        all_correct = all_correct and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %d: correct=%s failed=%d/%d; %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            steal[0] if steal else ""))
    print("%-32s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / abs(med) if med else float("inf")
        print("%-32s %14.6g %14.6g %14.6g %7.1f%% %s %s" % (
            name, med, q1, q3, 100.0 * share, units[name],
            "" if share <= 0.1 else "(not within a tenth)"))
    print("all runs correct: %s" % all_correct)
    return 0 if all_correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="run N seeds and print each metric's spread")
    args = parser.parse_args()

    build()
    if args.spread > 0:
        return spread(args.workload, args.seed, args.spread, args.seconds, args.trace)
    lines, result_line, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write("\n".join(lines + [result_line]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
