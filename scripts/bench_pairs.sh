#!/usr/bin/env bash
# Interleaved benchmark pairs: a base revision against the working tree.
#
#   scripts/bench_pairs.sh <base-rev> <workload> [pairs=10] [seconds=35] [first-seed=1]
#
# Archives <base-rev> into a fresh temporary tree (`git archive`; this
# checkout is left untouched), then runs `perfbench/run.py --trace 0` for
# <workload> once in each tree per pair. Pair i runs seed first-seed + i on
# both sides, and the side that goes first alternates from pair to pair,
# so drift of the host's speed lands on both. Prints every run's
# end-to-end metrics and its raw `wall:` line (op and reference-kernel
# p50 seconds), then per side the median and quartiles of each metric and
# of the raw seconds, and the number of pairs in which the working tree's
# value is the better one (the direction BENCHMARK.json gives; lower for
# seconds). Each tree builds the benchmark into its own `.bench_build`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: $0 <base-rev> <workload> [pairs=10] [seconds=35] [first-seed=1]" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
seconds=${4:-35}
seed0=${5:-1}
change_tree=$(pwd)

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
base_tree="$scratch/base"
mkdir "$base_tree"
git archive "$base_rev" | tar -x -C "$base_tree"
log="$scratch/runs.tsv"

# run_side <side> <tree> <seed>: one untraced run, appended to the log.
run_side() {
    local side=$1 tree=$2 seed=$3
    local out="$scratch/out" err="$scratch/err"
    if ! (cd "$tree" && python3 perfbench/run.py --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) >"$out" 2>"$err"; then
        cat "$err" >&2
        echo "bench_pairs: the $side run at seed $seed failed" >&2
        exit 1
    fi
    local wall
    wall=$(grep '^wall:' "$out" | tail -n 1 || true)
    printf '%s\t%s\t%s\t%s\n' "$side" "$seed" "$(tail -n 1 "$out")" "$wall" >>"$log"
    python3 - "$side" "$seed" "$(tail -n 1 "$out")" "$wall" <<'EOF'
import json, sys
side, seed, result, wall = sys.argv[1:]
metrics = json.loads(result)["metrics"]
values = " ".join(f"{name}={m['value']:.6g}" for name, m in sorted(metrics.items()))
print(f"{side:6} seed {seed}: {values}; {wall}", flush=True)
EOF
}

for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then order="base change"; else order="change base"; fi
    for side in $order; do
        if [ "$side" = base ]; then tree=$base_tree; else tree=$change_tree; fi
        run_side "$side" "$tree" "$seed"
    done
done

python3 - "$log" BENCHMARK.json <<'EOF'
import json, statistics, sys

log, spec_path = sys.argv[1:]
with open(spec_path, encoding="utf-8") as f:
    better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
better.update({"wall.op_p50_s": "lower", "wall.ref_p50_s": "lower"})
runs = {"base": {}, "change": {}}
for line in open(log, encoding="utf-8"):
    side, seed, result, wall = line.rstrip("\n").split("\t")
    values = {k: m["value"] for k, m in json.loads(result)["metrics"].items()}
    # "wall: op p50 <s> s; reference kernel p50 <s> s over <n> intervals"
    words = wall.split()
    if len(words) > 7:
        values["wall.op_p50_s"] = float(words[3])
        values["wall.ref_p50_s"] = float(words[8])
    runs[side][seed] = values

def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3

seeds = sorted(runs["base"], key=int)
print(f"{len(seeds)} pairs; median [q1, q3] per side")
for name in sorted(runs["base"][seeds[0]]):
    base = [runs["base"][s][name] for s in seeds]
    change = [runs["change"][s][name] for s in seeds]
    lower = better.get(name) == "lower"
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    (bm, bq1, bq3), (cm, cq1, cq3) = spread(base), spread(change)
    print(
        f"{name}: base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  change {cm:.6g} [{cq1:.6g}, {cq3:.6g}]"
        f"  change better in {wins}/{len(seeds)}"
    )
EOF
