#!/usr/bin/env python3
"""Build and run the SAMURAI end-to-end benchmark.

    python3 perfbench/run.py --workload methodology --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the benchmark into .bench_build/perfbench (later runs only
check the build is current); build output goes to stderr. The benchmark's
own output is passed through: a details line, then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Campaign checkpoints live in .perfbench_run/ while a run lasts; traced runs
leave their Chrome trace-event file there (trace-<workload>.json).
Exits 2 on a bad command line, 1 when the build or the benchmark fails.
"""

import argparse
import os
import pathlib
import re
import subprocess
import sys

WORKLOADS = ("methodology", "campaign_rtn", "campaign_batch", "array_rw")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="SAMURAI end-to-end benchmark", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed_value)
    parser.add_argument("--seconds", required=True, type=seconds_value)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def whole_number(text):
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    return int(text)


def seed_value(text):
    value = whole_number(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def seconds_value(text):
    value = whole_number(text)
    if not 1 <= value <= 600:
        raise argparse.ArgumentTypeError("seconds must be in 1..600")
    return value


def build(root):
    """Configure once, then bring the benchmark binary up to date."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {root / 'src'}")
    build_dir = root / ".bench_build" / "perfbench"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "--parallel", jobs])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main(argv):
    args = parse_args(argv)
    root = pathlib.Path(__file__).resolve().parent.parent
    try:
        binary = build(root)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    work_dir = root / ".perfbench_run"
    work_dir.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(work_dir)]
    if args.trace == "1":
        command += ["--trace-out", str(work_dir / f"trace-{args.workload}.json")]
    try:
        # subprocess.run kills the benchmark on timeout and waits for it.
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
