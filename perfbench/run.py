#!/usr/bin/env python3
"""Builds the benchmark program and runs one workload of the benchmark.

Run from the root of a lispoison checkout:

    python3 perfbench/run.py --workload lognormal --seed 1 --seconds 45 --trace 0

The program is built with CMake from perfbench/CMakeLists.txt (which
compiles the repository's own library target) into .bench_build/perfbench.
Build output goes to standard error; the last line of standard output is
the run's JSON result. With --trace 1 the recorded spans are written to
.bench_build/spans/<workload>-seed<seed>.json. The exit code is the
program's: non-zero when the build fails, the arguments are wrong, a
self-test of the checks fails, or any operation or output check failed
other than the span probe's known fault (see README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no lispoison source tree around %s" % HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def flag(args, name):
    for i, a in enumerate(args[:-1]):
        if a == name:
            return args[i + 1]
    return None


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)
    if flag(args, "--trace") == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out", os.path.join(
            spans, "%s-seed%s.json" % (flag(args, "--workload"),
                                       flag(args, "--seed")))]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
