#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
libmixradix plus the perfbench program (Release) under .bench_build/ (or
$CARGO_TARGET_DIR when set); later calls rebuild only what changed. Build
output goes to a log file, so the workload's result JSON stays the last line
of standard output. The exit code is the program's; a failed build exits 1
without printing a result.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(command, timeout, **kwargs):
    """Run `command` in its own process group; on timeout kill the whole
    group (make and compiler children included) and wait for it."""
    with subprocess.Popen(command, cwd=ROOT, start_new_session=True,
                          **kwargs) as child:
        try:
            return child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            raise


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    # One build at a time per build tree.
    with open(log_path, "a") as log:
        fcntl.flock(log, fcntl.LOCK_EX)
        for step in steps:
            try:
                code = run(step, BUILD_TIMEOUT_S, stdout=log,
                           stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as err:
                sys.exit(f"perfbench: build step {step[:2]} failed: {err}")
            if code != 0:
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                sys.exit(f"perfbench: build failed (see {log_path})")
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["tune", "sweep", "enumerate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--width", type=int, default=2,
                        help="pool width (default 2)")
    args = parser.parse_args()

    binary = build(build_dir())
    digests = os.path.join(HERE, "digests", args.workload + ".tsv")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--width", str(args.width), "--digests", digests]
    try:
        sys.exit(run(command, RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: workload run exceeded its time limit")


if __name__ == "__main__":
    main()
