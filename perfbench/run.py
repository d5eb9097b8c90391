#!/usr/bin/env python3
"""Builds and runs the publish -> serve benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census_cold_binary --seed 1 \
        --seconds 36 --trace 0
    python3 perfbench/run.py --self-test     # the harness helpers' checks

The first run configures and builds perfbench/ (which pulls in the
library and privelet_cli) as a Release build under .bench_build/; later
runs rebuild only what changed. The last line of stdout is the result
JSON; build output and diagnostics go to stderr.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
# The measured configuration: BENCHMARK.json's run_seconds.
DEFAULT_SECONDS = 36


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected src/)")
    if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                   CMAKE_BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", CMAKE_BUILD, "-j", jobs, "--target"] +
              targets)


def git_sha():
    head = os.path.join(ROOT, ".git")
    if not os.path.exists(head):
        return "unknown"
    result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build(["perfbench_helpers_test"])
        sys.exit(subprocess.run(
            [os.path.join(CMAKE_BUILD, "perfbench_helpers_test")]).returncode)
    if not args.workload:
        fail("--workload is required")

    build(["perfbench_harness", "privelet_cli"])
    cmd = [
        os.path.join(CMAKE_BUILD, "perfbench_harness"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(CMAKE_BUILD, "privelet", "tools",
                              "privelet_cli"),
        "--work", os.path.join(BUILD, "work", args.workload),
        "--git-sha", git_sha(),
    ]
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "work"))
    # The harness's own watchdog bounds the run and reaps its children.
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
