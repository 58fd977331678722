#!/usr/bin/env python3
"""Builds the evbench driver from source and runs one benchmark workload.

    python3 evbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 evbench/run.py --self-test

Run from the repository root. The first call configures and builds the
repository's libraries and the driver under .bench_build/evbench (a few
minutes); later calls only re-check the build. The driver's output is
passed through: its last line is the result JSON. Build output goes to
.bench_build/evbench/build.log and, on failure, to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "evbench")
BUILD = os.path.join(ROOT, ".bench_build", "evbench")
BINARY = os.path.join(BUILD, "evbench")
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    code = 0
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT).returncode
            except OSError as error:
                log.write(f"cannot run {step[0]}: {error}\n")
                code = 1
            if code != 0:
                failed = step
                break
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-8000:])
        sys.stderr.write("evbench: build failed\n")
        # A failed configure leaves a cache that would skip it next time.
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if failed[1] == "-S" and os.path.exists(cache):
            os.remove(cache)
    return code == 0


def main(argv):
    if not build():
        return 1
    try:
        return subprocess.run([BINARY] + argv, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("evbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
