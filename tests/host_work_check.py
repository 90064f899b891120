#!/usr/bin/env python3
"""ctest: the engine's host work on three phold_cluster runs, pinned exactly.

Host work (`phold_cluster --verbose`'s "host work" line: dispatches, polls
resumed, polls slept, wakes, passes credited, and the engine queue's peak
entry count, stale polls included) is as deterministic as the
simulated results, so it is pinned exactly, like the schedule in
IdlePollEquivalenceTest. The runs:
  * mattern-64: the 64-node Mattern run, whose idle threads sleep across
    instants; it must also dispatch at most MAX_DISPATCHES_64 entries;
  * imbalance-ctl: perfbench's imbalance-ctl workload as a CLI replay
    (lb, flow and checkpoints: the loop hooks' wakes);
  * mattern-crash: a faulted run, which keeps every pass (nothing sleeps).

A change that moves host work on purpose (an engine or loop change)
refreshes the pins: on a mismatch the check prints each moved run's actual
row in PINNED syntax, ready to paste.

Usage: host_work_check.py /path/to/phold_cluster
"""

import re
import subprocess
import sys

RUNS = {
    "mattern-64": "--nodes=64 --threads=7 --gvt=mattern",
    "imbalance-ctl": "--model=imbalanced-phold --epg=500 --regional=0.2 --remote=0.1 "
                     "--hot-fraction=0.25 --hot-factor=3 --nodes=4 --threads=4 --lps=16 "
                     "--gvt=mattern --end=30 --lb=roughness --flow=bounded,mem=256 "
                     "--ckpt-every=8",
    "mattern-crash": "--nodes=4 --threads=4 --gvt=mattern --ckpt-every=3 "
                     "--fault=crash:node=1,t=5,down=2",
}

# (dispatches, polls resumed, polls slept, wakes, passes credited, queue peak)
PINNED = {
    "mattern-64": (1128502, 16574, 23825, 23755, 11071043, 486),
    "imbalance-ctl": (102866, 5291, 5815, 5751, 1145833, 20),
    "mattern-crash": (362340, 0, 0, 0, 0, 25),
}

MAX_DISPATCHES_64 = 4_000_000

LINE = re.compile(r"host work\s*: (\d+) dispatches, (\d+) polls resumed, (\d+) slept, "
                  r"(\d+) wakes, (\d+) passes credited, (\d+) queue peak")


def host_work(binary, flags):
    out = subprocess.run([binary, "--verbose", *flags.split()], check=True,
                         capture_output=True, text=True).stdout
    match = LINE.search(out)
    if match is None:
        sys.exit(f"no host work line in the output of {flags}:\n{out}")
    return tuple(int(g) for g in match.groups())


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: host_work_check.py PHOLD_CLUSTER")
    failed = False
    for name, flags in RUNS.items():
        got = host_work(sys.argv[1], flags)
        if got != PINNED.get(name):
            failed = True
            print(f"{name}: host work moved; if on purpose, replace its row with\n"
                  f'    "{name}": {got},')
        if name == "mattern-64" and got[0] > MAX_DISPATCHES_64:
            failed = True
            print(f"{name}: {got[0]} dispatches, above the {MAX_DISPATCHES_64} budget")
    if failed:
        sys.exit(1)
    print(f"host work of {len(RUNS)} runs as pinned")


if __name__ == "__main__":
    main()
