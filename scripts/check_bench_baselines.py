#!/usr/bin/env python3
"""Guard the committed BENCH_*.json baselines.

Default mode: fail when a bench binary advertises a JSON baseline that is
not committed. Every bench source calls run_figure_main(argc, argv,
"<figure>", ...), which writes BENCH_<figure>.json on each run
(bench/figure_common.hpp, bench/bench_json.hpp). Those
reports are the perf-trajectory baselines, so each advertised figure must
have its baseline checked in at the repository root. This mode scans
bench/*.cpp for advertised figure names and errors on any missing (or
unparseable) BENCH_<figure>.json.

--against DIR: exact diff of freshly generated reports against the
committed baselines. Every BENCH_<figure>.json in DIR is matched to the
committed file of the same name, and its points to the baseline's points
by benchmark name. The simulator is deterministic, so every field must be
equal, except the host timings (real_time, cpu_time) and google-benchmark
bookkeeping. A changed value, or a field present on only one side, fails.
A point present on only one side fails, except the baseline-only points
in STRESS_ONLY_POINTS (abl11's 128/256-node points, generated only with
CAGVT_ABL11_STRESS=1).

Usage:
    python3 scripts/check_bench_baselines.py [repo_root]
    python3 scripts/check_bench_baselines.py [repo_root] --against DIR

Exit codes: 0 ok, 1 otherwise.
"""

import argparse
import json
import os
import re
import sys

FIGURE_MAIN = re.compile(r'run_figure_main\(\s*argc,\s*argv,\s*"([^"]+)"')

# Host timings and google-benchmark bookkeeping: not simulation output.
IGNORED_FIELDS = {
    "real_time", "cpu_time", "time_unit", "name", "run_name", "run_type",
    "family_index", "per_family_instance_index", "repetitions",
    "repetition_index", "threads", "iterations",
}

# Points a default run leaves out: the baseline holds them, a fresh report
# only when generated with CAGVT_ABL11_STRESS=1.
STRESS_ONLY_POINTS = {
    "BENCH_abl11.json": {
        f"BM_{series}/nodes:{nodes}/iterations:1"
        for series in ("Barrier", "Mattern", "CaGvt", "Epoch")
        for nodes in (128, 256)
    },
}


def advertised_figures(bench_dir):
    figures = {}
    for fname in sorted(os.listdir(bench_dir)):
        if not fname.endswith(".cpp"):
            continue
        with open(os.path.join(bench_dir, fname)) as f:
            src = f.read()
        for figure in FIGURE_MAIN.findall(src):
            figures[figure] = fname
    return figures


def check_present(root):
    figures = advertised_figures(os.path.join(root, "bench"))
    if not figures:
        print("check_bench_baselines: no bench sources advertise JSON output",
              file=sys.stderr)
        return 1

    failures = []
    for figure, source in sorted(figures.items()):
        baseline = os.path.join(root, f"BENCH_{figure}.json")
        if not os.path.exists(baseline):
            failures.append(
                f"bench/{source} advertises '{figure}' but BENCH_{figure}.json "
                f"is not committed (run build/bench/* with CAGVT_BENCH_JSON_DIR=.)")
            continue
        try:
            with open(baseline) as f:
                report = json.load(f)
            if not report.get("benchmarks"):
                failures.append(f"BENCH_{figure}.json has no 'benchmarks' entries")
        except (OSError, json.JSONDecodeError) as e:
            failures.append(f"BENCH_{figure}.json is not valid JSON: {e}")

    if failures:
        for line in failures:
            print(f"check_bench_baselines: {line}", file=sys.stderr)
        return 1
    print(f"check_bench_baselines: {len(figures)} baselines present and valid")
    return 0


def points_by_name(path):
    with open(path) as f:
        return {b["name"]: b for b in json.load(f)["benchmarks"]}


def diff_report(baseline_path, fresh_path):
    """Failure lines for one fresh report against its baseline."""
    fname = os.path.basename(fresh_path)
    if not os.path.exists(baseline_path):
        return [f"{fname}: no committed baseline"]
    try:
        baseline = points_by_name(baseline_path)
        fresh = points_by_name(fresh_path)
    except (OSError, json.JSONDecodeError, KeyError) as e:
        return [f"{fname}: unreadable report: {e}"]
    failures = []
    for name, point in fresh.items():
        if name not in baseline:
            failures.append(f"{fname} {name}: not in the baseline")
            continue
        base = baseline[name]
        for field in sorted((set(point) | set(base)) - IGNORED_FIELDS):
            if field not in base:
                failures.append(f"{fname} {name}: field '{field}' not in the baseline")
            elif field not in point:
                failures.append(f"{fname} {name}: field '{field}' missing from the run")
            elif point[field] != base[field]:
                failures.append(f"{fname} {name}: {field} = {point[field]!r}, "
                                f"baseline {base[field]!r}")
    for name in sorted(set(baseline) - set(fresh) - STRESS_ONLY_POINTS.get(fname, set())):
        failures.append(f"{fname} {name}: missing from the run")
    return failures


def check_against(root, fresh_dir):
    reports = sorted(f for f in os.listdir(fresh_dir)
                     if f.startswith("BENCH_") and f.endswith(".json"))
    if not reports:
        print(f"check_bench_baselines: no BENCH_*.json in {fresh_dir}", file=sys.stderr)
        return 1
    failures = []
    for fname in reports:
        failures += diff_report(os.path.join(root, fname), os.path.join(fresh_dir, fname))
    if failures:
        for line in failures:
            print(f"check_bench_baselines: {line}", file=sys.stderr)
        return 1
    print(f"check_bench_baselines: {len(reports)} reports match their baselines")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--against", metavar="DIR",
                        help="diff freshly generated BENCH_*.json in DIR "
                             "against the committed baselines")
    args = parser.parse_args()
    if args.against:
        return check_against(args.root, args.against)
    return check_present(args.root)


if __name__ == "__main__":
    sys.exit(main())
