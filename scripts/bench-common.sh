# Helpers shared by scripts/bench.sh and scripts/ab.sh; source this file.

# Reads the BENCHMARK.json in directory $1 and sets:
#   cmd         the benchmark command, an array;
#   seconds     run_seconds;
#   workloads   the workload names, one a line;
#   end_to_end  one "name better bound" line per end-to-end metric.
# BENCHMARK.json keeps one array element or key per line, which the awk
# patterns rely on.
read_benchmark() {
    local json=$1/BENCHMARK.json
    mapfile -t cmd < <(awk '/"command"/ {on = 1; next} on && /\]/ {exit} on {gsub(/[",[:space:]]/, ""); print}' "$json")
    seconds=$(awk -F: '/"run_seconds"/ {gsub(/[,[:space:]]/, "", $2); print $2}' "$json")
    workloads=$(awk '/"workloads"/ {on = 1} on && /"name"/ {gsub(/.*"name": *"|".*/, ""); print} on && /^  \]/ {exit}' \
        "$json")
    end_to_end=$(awk '/"end_to_end"/ {on = 1} on && /"name"/ {gsub(/.*"name": *"|".*/, ""); n = $0}
        on && /"better"/ {gsub(/.*"better": *"|".*/, ""); b = $0}
        on && /"bound"/ {gsub(/.*"bound": *|[,[:space:]]/, ""); print n, b, $0} on && /^  \]/ {exit}' "$json")
}

# `min q1 median q3 max` of the numbers on stdin, unrounded; the quartiles
# interpolate linearly between the sorted values.
quartiles() {
    sort -g | awk '{v[NR] = $1}
        function q(p,   h, l) { h = 1 + p * (NR - 1); l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
        END { v[NR + 1] = v[NR]; printf "%.17g %.17g %.17g %.17g %.17g\n", v[1], q(0.25), q(0.5), q(0.75), v[NR] }'
}

# The values of end-to-end metric $1 in the perfbench outputs named by the
# remaining arguments, one a line.
metric_values() {
    local m=$1
    shift
    grep -h '^{' "$@" | grep -o "\"$m\":{\"value\":[^,}]*" | cut -d: -f3
}
