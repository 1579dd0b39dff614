#!/usr/bin/env python3
"""Build bench_ledger from source, then run it once.

    python3 bench_ledger/run.py --workload table1-hot --seed 42 --seconds 20 --trace 0

Run from the repository root. The build goes to .bench_build/bench_ledger
(an optimized CMake build of this directory, which compiles the
repository's src/ through the root CMakeLists.txt); scratch files of the
run go to .bench_build/work. Build output is sent to stderr, so stdout
carries only the benchmark's JSON lines, the last of which is the result.
A failed build exits nonzero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "bench_ledger")
BINARY = os.path.join(BUILD, "bench_ledger")

# Generous for the first build in a fresh checkout; a warm rebuild is a
# no-op check.
BUILD_TIMEOUT_S = 850
# The benchmark bounds itself by --seconds; this only stops a hung run.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    try:
        build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"bench_ledger: build failed: {err}", file=sys.stderr)
        return 1
    command = [BINARY, *sys.argv[1:],
               "--work-dir", os.path.join(BUILD_ROOT, "work"),
               "--oracles", os.path.join(HERE, "oracles.json")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"bench_ledger: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
