#!/usr/bin/env python3
"""Turn BENCH_*.json reports into CSV series, one row per figure point.

Every bench binary writes its google-benchmark JSON report to
BENCH_<figure>.json (bench/bench_json.hpp); pass one or more of them:

    CAGVT_BENCH_JSON_DIR=. build/bench/abl04_imbalance
    python3 scripts/bench_to_csv.py BENCH_*.json > figures.csv

Columns: figure, series, x (nodes / interval / threshold / hot_factor /
scenario), rate_events_s, efficiency_pct, rollbacks, gvt_rounds,
sync_rounds, sim_wall_s, plus any extra counters present in the inputs
(lvt_roughness, migrations, ...).
"""

import argparse
import json
import os
import re

JSON_NAME = re.compile(r"^(BM_\w+)((?:/(?!iterations:)\w+:\d+)*)")
ARG = re.compile(r"/(?!iterations:)\w+:(\d+)")

FIELDS = [
    "rate_events_s",
    "efficiency_pct",
    "rollbacks",
    "gvt_rounds",
    "sync_rounds",
    "sim_wall_s",
]

# Extra counters exported only by some binaries (abl08's migration
# metrics, abl09's conservative update statistics); emitted as trailing
# columns when any input provides them.
EXTRA_FIELDS = [
    "lvt_roughness",
    "migrations",
    "migration_rounds",
    "forwards",
    "owner_table_version",
    "fault_activations",
    "cons_utilization",
    "cons_null_ratio",
    "cons_horizon_width",
    "null_msgs",
    "req_msgs",
]


def figure_from_path(path: str) -> str:
    stem = os.path.basename(path)
    stem = stem.removesuffix(".json").removeprefix("BENCH_")
    return stem


def rows_from_json(path: str):
    figure = figure_from_path(path)
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        match = JSON_NAME.match(bench.get("name", ""))
        if not match:
            continue
        series = match.group(1).removeprefix("BM_")
        # Multi-argument sweeps (abl09's model/epg/remote/lps grid) join
        # their argument values with '/'; single-argument figures keep the
        # bare value, so existing consumers see an unchanged column.
        x = "/".join(ARG.findall(match.group(2)))
        counters = {
            key: value
            for key, value in bench.items()
            if isinstance(value, (int, float)) and not key.startswith("per_family")
        }
        yield figure, series, x, counters


def main(paths: list[str]) -> None:
    rows = []
    for path in paths:
        rows.extend(rows_from_json(path))

    extras = [f for f in EXTRA_FIELDS if any(f in c for _, _, _, c in rows)]
    fields = FIELDS + extras
    print("figure,series,x," + ",".join(fields))
    for figure, series, x, counters in rows:
        values = []
        for field in fields:
            value = counters.get(field, "")
            values.append(repr(value).strip("'") if value != "" else "")
        print(f"{figure},{series},{x}," + ",".join(values))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", metavar="BENCH_figure.json")
    main(parser.parse_args().reports)
