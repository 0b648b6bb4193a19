#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload {table2,serve-mix,fdo-xval} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Builds perfbench/ (the driver plus the
program's module libraries from src/) into .bench_build/perfbench, runs
the driver in a scratch directory under .bench_build, removes that
directory again, and prints the driver's JSON result as the last line
of standard output. Build output and driver diagnostics go to standard
error. Exits non-zero, printing no result, when the build or the run
fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("table2", "serve-mix", "fdo-xval")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources (src/CMakeLists.txt) in " + ROOT)
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_step(configure)
    run_step(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])


def run_step(command):
    try:
        subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as error:
        fail("build step failed: %s" % error)


def run_driver(args, work_dir):
    command = [os.path.join(BUILD_DIR, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        # Also reached on SIGTERM/SIGINT (see main): never leave the
        # driver running.
        if process.poll() is None:
            process.kill()
            process.wait()
    lines = stdout.strip().splitlines()
    if not lines:
        fail("driver exited %d without a result" % process.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no JSON result: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + lines[-1])
    return process.returncode, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    # Relative to ROOT, so the daemon's socket path stays short.
    work_dir = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work_dir))
    try:
        code, line = run_driver(args, work_dir)
    finally:
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    print(line, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
