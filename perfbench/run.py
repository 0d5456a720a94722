#!/usr/bin/env python3
"""Build and run the polydab benchmark (perfbench/README.md).

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the polydab libraries and the benchmark program from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs one
measurement. Build output goes to stderr; the program's last stdout line is
the JSON result. Exits non-zero without a result when the sources are
missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("portfolio_dual", "live_churn")


def build(build_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, **quiet)
    subprocess.run(["cmake", "--build", build_dir,
                    "--target", "polydab_perfbench", "-j", "4"],
                   check=True, **quiet)
    return os.path.join(build_dir, "polydab_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: polydab sources not found under " + ROOT,
              file=sys.stderr)
        return 2
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix="run-%s-" % args.workload,
                               dir=build_root)
    try:
        return subprocess.run([binary, "--workload", args.workload,
                               "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace),
                               "--workdir", workdir]).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
