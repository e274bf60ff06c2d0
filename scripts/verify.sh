#!/usr/bin/env bash
# Tier-1 verification plus smoke fault-injection, crash-resume, and
# IO-chaos gates, fully offline.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release rebuild of the campaign runner when it is
#             already built (CI convenience)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

echo "== tier-1: cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "== tier-1: cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "== benchmark gate: perfbench builds and its short runs pass"
# perfbench is a separate package (its own workspace), so the workspace
# build and tests above never compile it; it drives the public API the
# repository benchmark depends on (predictor_by_name, observe, Machine::run,
# Hierarchy::access, cfd_profile::profile, Engine::run_all).
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== lint gate: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== format gate: cargo fmt --check"
cargo fmt --check

echo "== doc gate: cargo doc must build without warnings"
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --workspace --no-deps

cache=$(mktemp -d)
lint_par=$(mktemp); lint_ser=$(mktemp); stats=$(mktemp)
out=$(mktemp); out2=$(mktemp)
obs=$(mktemp -d)
crash=$(mktemp -d); resumed=$(mktemp)
sep=$(mktemp)
serve=$(mktemp -d)
trap 'rm -rf "$cache" "$lint_par" "$lint_ser" "$stats" "$out" "$out2" "$obs" "$crash" "$resumed" "$sep" "$serve"' EXIT

echo "== observe determinism: two telemetry runs must be byte-identical"
cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    observe soplex_ref_like --csv "$obs/a.csv" --trace-out "$obs/a.json" > "$obs/a.txt"
cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    observe soplex_ref_like --csv "$obs/b.csv" --trace-out "$obs/b.json" > "$obs/b.txt"
cmp "$obs/a.csv" "$obs/b.csv"
cmp "$obs/a.json" "$obs/b.json"
grep -q '"traceEvents"' "$obs/a.json"

echo "== static queue-discipline verification (experiments lint, --jobs 2)"
CFD_CACHE_DIR="$cache" cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    lint --jobs 2 --json "$lint_par" > /dev/null 2> "$stats"
grep '^\[cfd-exec\]' "$stats"

echo "== lint cross-check: serial, uncached sweep must match byte-for-byte"
cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    lint --jobs 1 --no-cache --json "$lint_ser" > /dev/null 2>&1
cmp "$lint_par" "$lint_ser"

echo "== lint warm-cache re-run must execute nothing"
CFD_CACHE_DIR="$cache" cargo run -q --release --offline -p cfd-bench --bin experiments -- \
    lint --jobs 2 --json "$lint_ser" > /dev/null 2> "$stats"
grep '^\[cfd-exec\]' "$stats"
grep -q 'executed=0 failed=0' "$stats"
cmp "$lint_par" "$lint_ser"

echo "== separability gates: auto-CFD selection, speculation lint, dynamic claims"
# Exits non-zero when any accepted rewrite lints dirty (e.g. an unproven
# load reaching a speculative rewrite), diverges functionally, or has a
# static disjointness claim contradicted dynamically — and the table must
# stay byte-identical to the checked-in fixture.
target/release/experiments separability --json "$sep" > /dev/null
cmp "$sep" crates/bench/tests/fixtures/separability.json

echo "== crash-safety gate: SIGKILL a mid-run campaign, then --resume must heal it"
# Exec the binary directly (killing a `cargo run` wrapper would orphan the
# child); the journal + cache must let --resume reproduce the uninterrupted
# parallel sweep byte-for-byte.
CFD_CACHE_DIR="$crash" target/release/experiments lint --jobs 4 --json "$resumed" > /dev/null 2>&1 &
victim=$!
# Kill as soon as the first result is durable: mid-campaign on any host.
for _ in $(seq 1 500); do
    compgen -G "$crash/*.json" > /dev/null && break
    sleep 0.01
done
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
CFD_CACHE_DIR="$crash" target/release/experiments lint --jobs 4 --resume --json "$resumed" > /dev/null 2> "$stats"
grep '^\[cfd-exec\]' "$stats"
cmp "$resumed" "$lint_par"

echo "== chaos gate: every injected IO fault must be masked or detected"
# `experiments chaos` exits non-zero on any silent divergence or hang; the
# greps double-check the tally the JSON table reports.
target/release/experiments chaos --json "$out" > /dev/null
grep -q '"silent_divergence": 0' "$out"
grep -q '"hang": 0' "$out"

echo "== dse gate: flagship sweep must match the checked-in Pareto fixture"
# The full 216-point grid, re-simulated and compared byte-for-byte: any
# drift in the simulator, the energy model, the fixed-precision funnel,
# or the frontier algorithm shows up here.
target/release/experiments dse --preset default --jobs 4 --no-cache --quiet --out "$out"
cmp "$out" crates/bench/tests/fixtures/dse_default.txt

echo "== daemon gate: concurrent clients, serial equality, SIGKILL resume"
# Serial, cache-less, in-process reference run first.
target/release/experiments dse --preset tiny --jobs 1 --no-cache --quiet --out "$serve/serial.txt"
target/release/cfd-serve daemon --socket "$serve/sock" --store "$serve/store" --jobs 2 --quiet &
daemon=$!
for _ in $(seq 1 500); do [[ -S "$serve/sock" ]] && break; sleep 0.01; done
# Two concurrent clients must fold onto one sweep and both must receive
# bytes identical to the serial reference.
target/release/cfd-serve submit --socket "$serve/sock" --preset tiny --out "$serve/c1.txt" 2> /dev/null &
client=$!
target/release/cfd-serve submit --socket "$serve/sock" --preset tiny --out "$serve/c2.txt" 2> /dev/null
wait "$client"
cmp "$serve/c1.txt" "$serve/c2.txt"
cmp "$serve/c1.txt" "$serve/serial.txt"
# SIGKILL the daemon (no clean handover — the stale socket stays behind),
# restart it on the same store: the resubmitted sweep must replay entirely
# from the artifact store, byte-identically, with zero re-executed jobs.
kill -9 "$daemon" 2> /dev/null || true
wait "$daemon" 2> /dev/null || true
target/release/cfd-serve daemon --socket "$serve/sock" --store "$serve/store" --jobs 2 --quiet &
daemon=$!
for _ in $(seq 1 500); do target/release/cfd-serve stats --socket "$serve/sock" > /dev/null 2>&1 && break; sleep 0.01; done
target/release/cfd-serve submit --socket "$serve/sock" --preset tiny --out "$serve/c3.txt" 2> "$serve/outcome.txt"
grep -q 'executed=0' "$serve/outcome.txt"
cmp "$serve/c3.txt" "$serve/serial.txt"
target/release/cfd-serve shutdown --socket "$serve/sock"
wait "$daemon"

echo "== observability gate: daemon metrics/health round-trip + JSONL event log"
# A daemon with a JSONL sink at debug; human stderr is not under test.
target/release/cfd-serve daemon --socket "$serve/sock" --store "$serve/store" --jobs 2 \
    --log "$serve/daemon.jsonl" --log-level debug 2> /dev/null &
daemon=$!
for _ in $(seq 1 500); do target/release/cfd-serve stats --socket "$serve/sock" > /dev/null 2>&1 && break; sleep 0.01; done
target/release/cfd-serve submit --socket "$serve/sock" --preset tiny --out /dev/null 2> /dev/null
target/release/cfd-serve metrics --socket "$serve/sock" > "$serve/metrics.txt"
grep -q 'daemon.requests' "$serve/metrics.txt"
grep -q 'daemon.sweep_latency_ms' "$serve/metrics.txt"
grep -q 'exec.submitted' "$serve/metrics.txt"
grep -q '\[store\] version=1' "$serve/metrics.txt"
target/release/cfd-serve health --socket "$serve/sock" > "$serve/health.txt"
grep -q 'executor=alive' "$serve/health.txt"
target/release/cfd-serve shutdown --socket "$serve/sock"
wait "$daemon"
# The daemon's event log must pass the schema gate (version, dense seq)
# and contain the sweep lifecycle.
target/release/cfd-serve logcheck --log "$serve/daemon.jsonl" > "$serve/daemon.canon"
grep -q '"event":"sweep_done"' "$serve/daemon.canon"

echo "== event-log determinism: engine JSONL byte-identical across --jobs"
# The same sweep, serial vs 4 workers, each with a JSONL sink on the
# engine: after logcheck strips wall clocks, the streams must be
# byte-identical (events are emitted only from serial engine sections).
target/release/experiments dse --preset tiny --no-cache --quiet --out /dev/null \
    --log "$serve/l1.jsonl" > /dev/null 2> /dev/null
target/release/experiments dse --preset tiny --jobs 4 --no-cache --quiet --out /dev/null \
    --log "$serve/l2.jsonl" > /dev/null 2> /dev/null
target/release/cfd-serve logcheck --log "$serve/l1.jsonl" > "$serve/l1.canon"
target/release/cfd-serve logcheck --log "$serve/l2.jsonl" > "$serve/l2.canon"
cmp "$serve/l1.canon" "$serve/l2.canon"

echo "== simperf: profiled throughput snapshot, stage shares must sum to 100%"
# The soft floor warns; the hard floor (exit 3) is a gross-regression
# gate: even the slowest catalog workload must clear 100 KIPS under the
# profiler (nominal worst case is astar_r1_like at ~190-330 KIPS on a
# 2-vCPU Xeon VM, depending on host load — a ~2-3x margin so only a real
# regression, not host noise, trips it). The committed throughput
# trajectory is BENCH_perf.json, written by scripts/bench.sh.
target/release/experiments simperf --profile --min-kips 250 --min-kips-hard 100 > "$serve/simperf.txt"
grep -q 'stage shares sum to 100.00%' "$serve/simperf.txt"

echo "== checkpoint-determinism gate: quarter-point restores must be byte-identical"
# `experiments ckpt` exits 2 on any in-process divergence; the cmp
# re-checks the contract at the artifact level (one serialized RunReport
# line per workload, straight vs restored-from-checkpoint).
target/release/experiments ckpt > /dev/null
cmp artifacts/ckpt_straight.json artifacts/ckpt_restored.json

echo "== sampled-simulation gate: IPC within 10% of full detail on every workload"
# Deterministic cross-check (both IPCs are ratios of simulated counters):
# fast-forward/warm/measure sampling must land within the documented 10%
# error bound on the whole catalog, or the run exits 4.
target/release/experiments simperf --sampled --max-err 10 > "$serve/sampled.txt"
grep -q 'sampled max IPC error' "$serve/sampled.txt"

if [[ "$QUICK" == "0" ]]; then
    echo "== golden equivalence: full experiments transcript vs checked-in fixture"
    # The staged-pipeline / event-driven-wakeup refactor is contractually
    # invisible: the complete experiments transcript must stay byte-identical
    # to the pre-refactor fixture. Any simulator behavior change shows here.
    # The transcript is byte-identical at any worker count (locked by
    # crates/bench/tests/engine_determinism.rs), so use every core.
    cargo run -q --release --offline -p cfd-bench --bin experiments -- \
        all --no-cache --jobs "$(nproc)" > /dev/null
    cmp artifacts/experiments_output.txt crates/bench/tests/fixtures/experiments_golden.txt

    echo "== smoke fault campaign (deterministic seed, contract-checked)"
    cargo run -q --release --offline -p cfd-bench --bin experiments -- \
        faults --smoke --seed 0xcfdfa017 --no-cache --json "$out"
    # Same seed at a different worker count must reproduce the same
    # verdict table byte-for-byte.
    cargo run -q --release --offline -p cfd-bench --bin experiments -- \
        faults --smoke --seed 0xcfdfa017 --jobs 4 --no-cache --json "$out2" > /dev/null
    cmp "$out" "$out2"
    echo "== campaign deterministic: serial and --jobs 4 verdict tables identical"
    # Four trials per pair (96 trials: stale and reused ROB ordinals under
    # recovery, memory delays past the scheduler's ring horizon, dropped-BQ
    # deadlocks) must reproduce the checked-in verdict table byte-for-byte.
    cargo run -q --release --offline -p cfd-bench --bin experiments -- \
        faults --smoke --trials 4 --seed 0xcfdfa017 --no-cache --json "$out" > /dev/null
    cmp "$out" crates/harden/tests/fixtures/faults_smoke.json
    echo "== campaign matches the checked-in fault fixture"
fi

echo "== verify OK"
