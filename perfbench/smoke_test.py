#!/usr/bin/env python3
"""Smoke test of the host-time benchmark.

    python3 perfbench/smoke_test.py

Builds the runner, then runs every workload at reduced size (--size smoke)
on its default and its held-out seed, untraced and traced. Each run must
print, as its last stdout line, a result whose metrics are exactly the ones
BENCHMARK.json lists for that mode, each with its unit; the oracle gate, the
exact-counter check and (traced) the kernel replay's seqref check must all
pass. Exits 0 when every check holds.
"""
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark's own build step)

SECONDS = "0.5"


def check_run(binary, spec, workload, seed, trace):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--seconds={SECONDS}",
           f"--trace={trace}", "--size=smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    tag = f"{workload} seed={seed} trace={trace}"
    errors = []
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    if "FAILED" in proc.stderr:
        errors.append(f"{tag}: {proc.stderr}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        errors.append(f"{tag}: missing {missing} extra {extra} wrong units {wrong}")
    return errors


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    listing = subprocess.run([str(binary), "--list"], capture_output=True, text=True, check=True)
    seeds = {line.split()[0]: line.split()[1:3] for line in listing.stdout.splitlines()}
    errors = []
    if sorted(seeds) != sorted(w["name"] for w in spec["workloads"]):
        errors.append(f"workloads {sorted(seeds)} do not match BENCHMARK.json")
    for workload, (default_seed, heldout_seed) in seeds.items():
        for seed in (default_seed, heldout_seed):
            for trace in (0, 1):
                errors += check_run(binary, spec, workload, seed, trace)
                print(f"checked {workload} seed={seed} trace={trace}", file=sys.stderr)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("smoke test " + ("failed" if errors else "passed"), file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
