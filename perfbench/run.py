#!/usr/bin/env python3
"""LagAlyzer benchmark entry point.

Usage, from the repo root:
    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Builds the `lagbench` program (perfbench/CMakeLists.txt, which compiles
the repo's src/ libraries) into the build directory named by
CARGO_TARGET_DIR, default `.bench_build`, then runs one workload.
Build output goes to stderr; stdout carries lagbench's metric lines
and, last, one JSON result object. The arguments go to lagbench
unchanged; it rejects unknown, repeated or missing flags with exit 2.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.abspath(os.path.join(ROOT, path))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return os.path.join(path, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no LagAlyzer sources (src/) next to "
                         "perfbench/; run from a full checkout\n")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", out, "--target", "lagbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("run.py: build failed\n")
            sys.exit(1)
    return os.path.join(out, "lagbench")


def main():
    binary = build()
    sys.stdout.flush()
    sys.exit(subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
