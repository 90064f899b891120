#!/usr/bin/env bash
# Refactor oracle: 25 deterministic phold_cluster runs whose trace CSV,
# metrics CSV and stdout a behaviour-preserving change must leave
# byte-identical.
#
#   scripts/refactor_oracle.sh BUILD_DIR OUT_DIR
#   scripts/refactor_oracle.sh --compare OLD_DIR NEW_DIR
#
# The first form runs BUILD_DIR/examples/phold_cluster once per
# configuration and writes <name>.trace.csv, <name>.metrics.csv and
# <name>.out into OUT_DIR. The runs execute inside OUT_DIR with relative
# output paths, because stdout echoes those paths; that way stdout compares
# too. Run it for two builds (or twice for one build), then compare the two
# output directories with the second form: it cmps all 75 files, names each
# run whose files differ or are missing, and exits 1 if any run does.
#
# Together the runs cover a restore, migrations, flow throttling, and the
# throttle and sync tiers of every GVT kind; the two *-all runs compose
# every controller in one run, and mattern-ctl composes lb, flow and
# checkpoints without a fault schedule. Every run without a fault schedule
# (all but the *-crash and *-all runs) skips idle passes (DESIGN §14 "Idle
# polls"): the *-flow runs, mattern-ctl and mattern-window through the
# hooks' loop_pending answers, while ca-cmb keeps every worker pass and
# skips only MPI-agent passes; two plain runs cover the combined and
# everywhere placements. Exits non-zero on a usage error or when a run fails
# to start; a run's own exit status (2 = incomplete) is recorded in its .out
# file and does not stop the sweep.
set -euo pipefail

runs=()
for g in barrier mattern ca-gvt epoch; do
  runs+=("$g-plain|--gvt=$g")
  runs+=("$g-crash|--gvt=$g --ckpt-every=3 --fault=crash:node=1,t=5,down=2")
  runs+=("$g-lb|--gvt=$g --model=imbalanced-phold --lb=roughness")
  runs+=("$g-flow|--gvt=$g --model=mixed-phold --flow=bounded,mem=64")
done
runs+=("mattern-window|--gvt=mattern --sync=window --min-delay=0.5")
runs+=("ca-cmb|--gvt=ca-gvt --sync=cmb --min-delay=0.5")
runs+=("epoch-combined|--gvt=epoch --mpi=combined --ckpt-every=3 --lb=roughness --model=imbalanced-phold")
runs+=("ca-everywhere|--gvt=ca-gvt --mpi=everywhere --model=imbalanced-phold --lb=roughness")
runs+=("mattern-combined-plain|--gvt=mattern --mpi=combined")
runs+=("ca-everywhere-plain|--gvt=ca-gvt --mpi=everywhere")
runs+=("mattern-ctl|--gvt=mattern --model=imbalanced-phold --lb=roughness --flow=bounded,mem=64 --ckpt-every=3")
all="--model=imbalanced-phold --lb=roughness --flow=bounded,mem=64 --ckpt-every=3 --fault=crash:node=1,t=5,down=2"
runs+=("mattern-all|--gvt=mattern $all")
runs+=("barrier-combined-all|--gvt=barrier --mpi=combined $all")

want=2
[ "${1:-}" = --compare ] && want=3
if [ $# -ne "$want" ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR | $0 --compare OLD_DIR NEW_DIR" >&2
  exit 64
fi

if [ "$1" = --compare ]; then
  differ=0
  for r in "${runs[@]}"; do
    name=${r%%|*}
    for ext in trace.csv metrics.csv out; do
      if ! cmp -s "$2/$name.$ext" "$3/$name.$ext"; then
        echo "differs: $name"
        differ=$((differ + 1))
        break
      fi
    done
  done
  echo "$differ of ${#runs[@]} runs differ"
  exit $((differ > 0))
fi

if ! build=$(cd "$1" 2>/dev/null && pwd) || [ ! -x "$build/examples/phold_cluster" ]; then
  echo "error: $1/examples/phold_cluster not found or not executable" >&2
  exit 66
fi
bin=$build/examples/phold_cluster
mkdir -p "$2"
cd "$2"

for r in "${runs[@]}"; do
  name=${r%%|*}
  args=${r#*|}
  status=0
  "$bin" --nodes=4 --threads=4 $args \
      --trace-csv="$name.trace.csv" --metrics-out="$name.metrics.csv" > "$name.out" || status=$?
  echo "exit status: $status" >> "$name.out"
  echo "$name"
done
