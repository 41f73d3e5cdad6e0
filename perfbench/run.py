#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload modes|faults|serve --seed N \
        --seconds S --trace 0|1

The first call configures and builds the simulator library and the
harness under .bench_build/ (or $CARGO_TARGET_DIR, when set); later
calls rebuild incrementally.  Build output goes to stderr, so the last
line of stdout is the harness's JSON result.  The process then becomes
the harness itself (exec), so no child outlives this script.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("modes", "faults", "serve")


def build(build_root: Path) -> Path:
    """Configure (once) and build the harness; return its path."""
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir / ".lock", "w") as lock:
        # Two runs started together must not build into one tree at once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (build_dir / "CMakeCache.txt").is_file():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                check=True, stdout=sys.stderr)
        subprocess.run(
            ["cmake", "--build", str(build_dir), "--target", "perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: simulator sources not found next to perfbench/",
              file=sys.stderr)
        return 2

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    scratch = build_root / "scratch" / f"{args.workload}-{os.getpid()}"
    out_dir = build_root / "out"
    sys.stdout.flush()
    os.execv(str(binary), [
        str(binary), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", str(scratch), "--out", str(out_dir)])
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
