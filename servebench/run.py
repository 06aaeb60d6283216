#!/usr/bin/env python3
"""Build dyncg_serve and the servebench harness from source, then run it.

Run from the root of a checkout:

    python3 servebench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --self-test

The build goes to .bench_build/ (configured once, rebuilt incrementally);
its output goes to stderr so the harness's JSON result stays the last line
of stdout.  See servebench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SOURCES = ["CMakeLists.txt", "src/CMakeLists.txt", "tools/dyncg_serve.cpp"]


def fail(msg):
    print("servebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in SOURCES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("dyncg sources not found next to servebench/ (missing: %s); "
             "run from the root of a full checkout" % ", ".join(missing))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr)
        if r.returncode != 0:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target",
                        "servebench", "servebench_test"], stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["cold_mix", "hot_repeat",
                                           "fleet_churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    build()
    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "servebench_test"),
                               os.path.join(ROOT, "BENCHMARK.json")]).returncode
    work = os.path.join(BUILD, "run")
    os.makedirs(work, exist_ok=True)
    # DYNCG_THREADS, DYNCG_FAULTS, DYNCG_TRACE, ... would change what the
    # daemon and the oracle compute; the benchmark runs without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DYNCG_")}
    return subprocess.run([
        os.path.join(BUILD, "servebench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", work], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
