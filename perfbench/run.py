#!/usr/bin/env python3
"""Build and run the host-time benchmark for one workload.

    python3 perfbench/run.py --workload comm-epoch32 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the runner) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
let the build tool check that it is up to date. Build output goes to stderr.
The runner's stdout is passed through, so its last line is the JSON result.
Exits non-zero without a result when the simulator sources are missing or the
build or run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build() -> Path:
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: runner exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"error: runner exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
