#!/usr/bin/env bash
# Compares two checkouts on one benchmark workload in alternating pairs.
#
# Usage: scripts/ab.sh PARENT CHANGE WORKLOAD [PAIRS] [SEED]
#
# Runs the repository benchmark (the `command` in PARENT's BENCHMARK.json,
# untraced, `run_seconds` long) PAIRS times (default 10) in each checkout
# at SEED (default 1). Odd pairs run PARENT first, even pairs CHANGE first.
# One short untimed run per side first builds it. Then it prints, for each
# end-to-end metric, each side's median and quartiles, the change in the
# median, how many pairs the change wins (strictly better in the metric's
# `better` direction, ties counting for neither), and a verdict against
# the metric's BENCHMARK.json `bound` (a fraction of the parent's median):
#   worse       the change's median is worse than the parent's by more
#               than the bound;
#   unresolved  the parent's own IQR exceeds the bound, and not every
#               change run beats every parent run;
#   ok          otherwise.
# The verdict compares the runs of this invocation only, never older
# records, and does not change the exit status. Last come whether every
# run printed the same digest and each side's failed operations; the
# script exits 1 when the digests differ or an operation failed. Neither
# checkout need be committed. Run nothing else meanwhile: on a small host
# a concurrent job moves the metrics by tens of percent.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
source "$root/scripts/bench-common.sh"
if (( $# < 3 )); then
    echo "usage: scripts/ab.sh PARENT CHANGE WORKLOAD [PAIRS] [SEED]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed=${5:-1}
read_benchmark "$parent"
if ! grep -qx "$workload" <<< "$workloads"; then
    echo "ab.sh: unknown workload '$workload' (BENCHMARK.json has:" $workloads")" >&2
    exit 2
fi

# `rev` of checkout $1, marked when it has uncommitted changes.
rev() {
    local r
    r=$(git -C "$1" rev-parse --short HEAD)
    [[ -z $(git -C "$1" status --porcelain --untracked-files=no) ]] || r+="+dirty"
    echo "$r"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# Runs side $1 for $3 seconds into output file $2.
run() {
    local dir=${!1}
    (cd "$dir" && "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$3" --trace 0) > "$tmp/$2"
}
for side in parent change; do
    echo "== $side: build and warm-up" >&2
    run "$side" "$side.warm" 1
done
for i in $(seq 1 "$pairs"); do
    if (( i % 2 )); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "== pair $i/$pairs: $side" >&2
        run "$side" "$side.$i" "$seconds"
    done
done

echo "ab: $workload, seed $seed, $pairs pairs of ${seconds}-s runs; parent $(rev "$parent"), change $(rev "$change")"
printf '%-20s %-36s %-36s %8s %6s  %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" change wins \
    verdict
while read -r m better bound; do
    [[ -n $(metric_values "$m" "$tmp/parent.1") ]] || continue
    read -r pmin pq1 pmed pq3 pmax < <(metric_values "$m" "$tmp"/parent.[0-9]* | quartiles)
    read -r cmin cq1 cmed cq3 cmax < <(metric_values "$m" "$tmp"/change.[0-9]* | quartiles)
    wins=$(for i in $(seq 1 "$pairs"); do
        echo "$(metric_values "$m" "$tmp/parent.$i") $(metric_values "$m" "$tmp/change.$i")"
    done | awk -v b="$better" '(b == "higher" && $2 > $1) || (b == "lower" && $2 < $1) {w++} END {print w + 0}')
    awk -v m="$m" -v p="$pmed" -v pa="$pq1" -v pb="$pq3" -v c="$cmed" -v ca="$cq1" -v cb="$cq3" \
        -v w="$wins" -v n="$pairs" -v better="$better" -v bound="$bound" \
        -v pmin="$pmin" -v pmax="$pmax" -v cmin="$cmin" -v cmax="$cmax" 'BEGIN {
            # Signed loss of the change against the parent median, as a
            # fraction of it: positive is worse in the `better` direction.
            loss = p == 0 ? 0 : (better == "higher" ? p - c : c - p) / p
            spread = p == 0 ? 0 : (pb - pa) / p
            all_win = better == "higher" ? cmin > pmax : cmax < pmin
            verdict = loss > bound ? "worse" : spread > bound && !all_win ? "unresolved" : "ok"
            printf "%-20s %-36s %-36s %+7.1f%% %3d/%d  %s\n", m, sprintf("%.6g [%.6g, %.6g]", p, pa, pb),
                sprintf("%.6g [%.6g, %.6g]", c, ca, cb), p == 0 ? 0 : 100 * (c - p) / p, w, n, verdict }'
done <<< "$end_to_end"

status=0
digests=$(grep -ho 'digest=0x[0-9a-f]*' "$tmp"/*.[0-9]* | sort -u)
if [[ $(wc -l <<< "$digests") == 1 ]]; then
    echo "digest: equal (${digests#digest=})"
else
    echo "digest: DIFFERENT:" $digests
    status=1
fi
for side in parent change; do
    read -r failed attempted < <(cat "$tmp/$side".[0-9]* | grep -o '"attempted":[0-9]*,"failed":[0-9]*' \
        | awk -F'[:,]' '{a += $2; f += $4} END {print f + 0, a + 0}')
    echo "failed: $side $failed of $attempted operations"
    (( failed == 0 )) || status=1
done
exit "$status"
