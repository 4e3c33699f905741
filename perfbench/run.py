#!/usr/bin/env python3
"""Builds wb_perfbench from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

The program is configured as a Release build under $CARGO_TARGET_DIR
(default .bench_build) in perfbench/, so the first run of a checkout
compiles the libraries; later runs only re-check the build. Build output
goes to stderr; stdout carries only the benchmark's own lines, the last
of which is the JSON result. Exits non-zero, without a result, when the
library sources or goldens are missing or the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("study", "fuzz", "apps")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    cmd = ["cmake", "--build", str(build_dir), "--target", "wb_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)
    return build_dir / "wb_perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("src/CMakeLists.txt", "goldens/study.json", "goldens/replay.json"):
        if not (ROOT / needed).exists():
            fail(f"{needed} not found: run from a full checkout of the repository")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir)

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--root={ROOT}", f"--out-dir={build_dir / 'out'}"]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
