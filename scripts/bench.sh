#!/usr/bin/env bash
# Appends one perf-trajectory record per benchmark workload to BENCH_perf.json.
#
# Usage: scripts/bench.sh [CHECKOUT]
#
# Runs the repository benchmark (the `command` in BENCHMARK.json: perfbench,
# untraced) 3 times per workload at seed 1, each run BENCHMARK.json's
# `run_seconds` long, in CHECKOUT (default: this repository), and appends
# one JSON line per workload to BENCH_perf.json at the root of *this*
# repository:
#
#   {"rev":…,"date":…,"workload":…,"seed":…,"runs":…,"seconds":…,
#    "host_factor":…,"digest":…,"failed":…,
#    "metrics":{"kips":{"median":…,"min":…,"iqr":…},…}}
#
# `rev` is CHECKOUT's commit; the script refuses a checkout with
# uncommitted changes to tracked files (other than BENCH_perf.json), so
# every row names a commit that can be checked out again. `host_factor` is
# the median of perfbench's reference-over-host clock ratio, and `digest`
# the simulated-statistics digest (the script fails if the runs disagree on
# it or any operation fails). The IQR interpolates quartiles linearly
# between the sorted runs. Pointing CHECKOUT at a clone of an older commit
# records that commit's row with the same harness, so rows compare across
# history.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
source "$root/scripts/bench-common.sh"
checkout=$(cd "${1:-$root}" && pwd)
runs=3
seed=1
out=$root/BENCH_perf.json
rev=$(git -C "$checkout" rev-parse --short HEAD)
if [[ -n $(git -C "$checkout" status --porcelain --untracked-files=no -- . ':(exclude)BENCH_perf.json') ]]; then
    echo "bench.sh: $checkout has uncommitted changes; commit them so the rows name a commit" >&2
    exit 1
fi
read_benchmark "$checkout"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for w in $workloads; do
    for r in $(seq 1 "$runs"); do
        echo "== $w run $r/$runs ($rev, seed $seed, ${seconds}s)" >&2
        (cd "$checkout" && "${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0) \
            > "$tmp/$w.$r"
    done
    digests=$(grep -ho 'digest=0x[0-9a-f]*' "$tmp/$w".* | sort -u)
    if [[ $(wc -l <<< "$digests") != 1 ]]; then
        echo "bench.sh: $w runs disagree on the digest: $digests" >&2
        exit 1
    fi
    failed=$(grep -ho '"failed":[0-9]*' "$tmp/$w".* | awk -F: '{s += $2} END {print s}')
    if [[ "$failed" != 0 ]]; then
        echo "bench.sh: $w: $failed failed operations" >&2
        exit 1
    fi
    host_factor=$(awk '$1 == "host_factor" {print $2}' "$tmp/$w".* | quartiles | awk '{printf "%.6g", $3}')
    names=$(grep -h '^{' "$tmp/$w.1" | grep -o '"[a-z_]*":{"value"' | cut -d'"' -f2)
    metrics=""
    for m in $names; do
        read -r med min iqr < <(metric_values "$m" "$tmp/$w".* | quartiles \
            | awk '{printf "%.6g %.6g %.6g\n", $3, $1, $4 - $2}')
        metrics+="${metrics:+,}\"$m\":{\"median\":$med,\"min\":$min,\"iqr\":$iqr}"
    done
    line="{\"rev\":\"$rev\",\"date\":\"$(date -u +%FT%TZ)\",\"workload\":\"$w\",\"seed\":$seed,\"runs\":$runs"
    line+=",\"seconds\":$seconds,\"host_factor\":$host_factor,\"digest\":\"${digests#digest=}\",\"failed\":0"
    line+=",\"metrics\":{$metrics}}"
    echo "$line" >> "$out"
    echo "$line"
done
