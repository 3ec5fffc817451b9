#!/usr/bin/env python3
"""isprof benchmark entry point.

Usage, from the root of an isprof checkout:

    python3 perfbench/run.py --workload live-kdtree --seed 1 --seconds 50 --trace 0

Configures and builds perfbench/ (which compiles the profiler from ../src)
into $CARGO_TARGET_DIR or .bench_build, then runs one benchmark of the
workload. The last line of stdout is the JSON result:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the run
reports the per-layer metrics instead of the end-to-end ones and writes
its spans as Chrome trace JSON beside the build.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("live-kdtree", "live-dbserver")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 100

# Environment switches that would change what a timed run measures: the
# stats registry with its per-callback timers, and forced parallel tool
# delivery. The benchmark measures the defaults.
SCRUBBED_ENV = ("ISP_STATS", "ISPROF_PARALLEL_TOOLS")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-G", generator,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "isprof_bench",
         "--", "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "isprof_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    # Stream files of this run; removed even when the run is killed.
    work_dir = os.path.join(build_dir, "work-%s-%d-%d"
                            % (args.workload, args.seed, os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-file",
                    os.path.join(build_dir, "trace-%s-%d.json"
                                 % (args.workload, args.seed))]
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        fail("benchmark run failed: %s" % err)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
