#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build tree goes to $CARGO_TARGET_DIR, or .bench_build when unset; the
first run configures and compiles it, later runs only re-check it. Build
output goes to stderr, so the last line on stdout is the result line of
perfbench/src/main.cc. Exits non-zero when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "topobench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
