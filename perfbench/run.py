#!/usr/bin/env python3
"""Builds the preserial benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sec6b_hot --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed heldout

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and its output
to stderr. The benchmark binary prints its metrics and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. --workload all runs every workload in turn and ends with one
JSON object whose metric names are prefixed by the workload.

--seed heldout selects a seed kept out of every tuning run, for checking a
performance claim on inputs not used while the change was written.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sec6b_hot", "tours_replicated", "svc_wide")
HELD_OUT_SEED = 7777777
# A run ends well inside the 180 s a run may take; the binary is killed
# after this many seconds.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("preserial sources not found next to %s" % HERE)
    out = build_dir()
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_workload(binary, workload, args):
    """Runs one workload; returns (exit code, parsed JSON result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, workload + ".csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", default="1",
                        help="workload seed, or 'heldout'")
    parser.add_argument("--seconds", type=float, default=10,
                        help="sets the measured transaction count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed == "heldout":
        args.seed = HELD_OUT_SEED
    elif not args.seed.isdigit():
        fail("--seed must be a non-negative integer or 'heldout'")

    binary = build()
    if args.workload != "all":
        code, result = run_workload(binary, args.workload, args)
        if result is None:
            sys.exit(code or 1)
        print(json.dumps(result))
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, result = run_workload(binary, workload, args)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        print(json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    sys.exit(worst or (0 if combined["correct"] else 1))


if __name__ == "__main__":
    main()
