#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the HLI compiler.

Run from the repository root:

    python3 perfbench/run.py --workload table2|compile|exec4|service \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the repository's libraries
from src/, the perfbench program and bench_table2) into .bench_build/; later
runs rebuild only what changed.  Build output goes to stderr.  The last line
of standard output is the result object; lines before it starting with "#"
are notes (tail percentile and sample count, fail ratio, traced-run
accounting).  Any build or run error exits non-zero without a result.
"""

import argparse
import ctypes
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
WORKLOADS = ("table2", "compile", "exec4", "service")
# The seed later claims are tuned on, and one they are re-checked on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
RUN_TIMEOUT_S = 170
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Disables address-space randomization in the child before exec.

    With randomization on, the same compile workload varies by a third in
    throughput from one process to the next (cache and hash-table layout);
    one fixed layout per binary keeps runs comparable.
    """
    libc = ctypes.CDLL(None)
    libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)


def build():
    """Configures once, then builds the benchmark binaries."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                    "perfbench", "bench_table2"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    WORK.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(WORK)] + extra
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
