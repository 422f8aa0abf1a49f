#!/usr/bin/env python3
"""Builds the benchmark driver from source, then runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload bitcnt|stream|observed --seed N \
        --seconds S --trace 0|1

The simulator library and the driver are compiled in Release mode into
.bench_build/perfbench (an incremental no-op once built).  Build output goes
to stderr, so the last line of stdout is the driver's JSON result.  With
--trace 1 the traced pass's spans are written as Chrome-trace JSON to
.bench_build/perfbench/traces/<workload>-seed<N>.json.  The exit code is the
driver's: 0 when every run was correct, non-zero otherwise (a failed build
exits 1 without printing a result).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_JOBS = "2"


def build() -> Path:
    """Configures (once) and builds the driver; returns its path."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["bitcnt", "stream", "observed"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
