#!/bin/sh
# Offline-safe CI: the workspace has zero external dependencies, so
# everything here must work with no network and no registry cache.
#
#   tier-1   build + test of the root package (the gate every change
#            must keep green)
#   full     the whole workspace, plus clippy with warnings denied
#
# Usage: scripts/ci.sh [tier1|full]   (default: full)
#
# SHOAL_BENCH_GATE=1 additionally runs the benchmark-regression gate
# (scripts/bench_trajectory.sh check) in full mode.

set -eu

cd "$(dirname "$0")/.."
mode="${1:-full}"

export CARGO_NET_OFFLINE=true

echo "==> tier-1: cargo build --release"
cargo build --release --offline
echo "==> tier-1: cargo test -q"
cargo test -q --offline

if [ "$mode" = "tier1" ]; then
    echo "==> tier-1 OK"
    exit 0
fi

echo "==> workspace: cargo build --release --workspace"
cargo build --release --workspace --offline
echo "==> workspace: cargo test -q --workspace"
cargo test -q --workspace --offline

# The audit gate (shoal-audit/v1 schema, dark path, no clock reads,
# recorded overhead) and the precision gate (no dfa-cap loss over the
# figure corpus) run in `cargo test`: tests/integration.rs::
# audit_prints_the_fleet_report_and_scan_stays_dark and tests/audit.rs::
# {audit_sources_read_no_clock, recorded_audit_overhead_is_within_five_percent,
# figure_corpus_has_no_dfa_cap_losses}.
#
# The JIT daemon smoke gate (cold/warm serve, byte-equality with
# `shoal analyze`, telemetry, clean shutdown) runs in `cargo test` as
# tests/integration.rs::jit_daemon_serves_cold_and_warm_then_stops_cleanly.

# Chaos gate: the degradation contract under injected faults, driven
# through the real binaries. Three scenarios — a daemon slower than
# the client's request timeout, a daemon at admission capacity, and a
# corrupted disk-cache entry — must all end with the client printing a
# verdict byte-identical to a direct `shoal analyze`, with the serving
# marker telling the truth about which path produced it.
echo "==> chaos: slow daemon / shed under overload / corrupt cache entry"
chaos_dir=/tmp/shoal-ci-chaos.$$
rm -rf "$chaos_dir"
mkdir -p "$chaos_dir"
chaos_fail=0
printf '%s\n' 'echo chaos | wc -l' > "$chaos_dir/a.sh"
printf '%s\n' 'echo other' > "$chaos_dir/b.sh"
target/release/shoal analyze "$chaos_dir/a.sh" --format json > "$chaos_dir/a.direct.json" || true
target/release/shoal analyze "$chaos_dir/b.sh" --format json > "$chaos_dir/b.direct.json" || true

# (1) Slow daemon: every analysis stalls 400ms; the client is given a
# 150ms budget and one retry, so it must cut losses and answer
# locally — same bytes, marked as a fallback.
slow_sock="$chaos_dir/slow.sock"
SHOAL_FAILPOINTS='daemon::analyze=sleep(400)' \
    target/release/shoal daemon --socket "$slow_sock" --cache-dir "$chaos_dir/slow-cache" &
slow_pid=$!
n=0
while [ ! -S "$slow_sock" ] && [ "$n" -lt 100 ]; do sleep 0.05; n=$((n + 1)); done
target/release/shoal jit --socket "$slow_sock" --no-spawn --request-timeout-ms 150 --retries 1 \
    --format json "$chaos_dir/a.sh" > "$chaos_dir/slow.json" 2> "$chaos_dir/slow.err" || true
cmp -s "$chaos_dir/a.direct.json" "$chaos_dir/slow.json" \
    || { echo "FAIL: verdict under a slow daemon differs from direct analyze"; chaos_fail=1; }
grep -q "served=local-fallback" "$chaos_dir/slow.err" \
    || { echo "FAIL: slow-daemon request was not marked as a local fallback"; chaos_fail=1; }
target/release/shoal daemon stop --socket "$slow_sock" >/dev/null 2>&1 || true
wait "$slow_pid" 2>/dev/null || true

# (2) Shed: one slot, zero queue, analyses stalled — a second request
# with a distinct key must be shed immediately and answered locally,
# and the daemon's stats must count the shed.
shed_sock="$chaos_dir/shed.sock"
SHOAL_FAILPOINTS='daemon::analyze=sleep(2000)' \
    target/release/shoal daemon --socket "$shed_sock" --cache-dir "$chaos_dir/shed-cache" \
    --jobs 1 --queue-depth 0 --queue-wait-ms 50 &
shed_pid=$!
n=0
while [ ! -S "$shed_sock" ] && [ "$n" -lt 100 ]; do sleep 0.05; n=$((n + 1)); done
target/release/shoal jit --socket "$shed_sock" --no-spawn --format json "$chaos_dir/a.sh" \
    > /dev/null 2>&1 &
hog_pid=$!
sleep 0.5
target/release/shoal jit --socket "$shed_sock" --no-spawn --format json "$chaos_dir/b.sh" \
    > "$chaos_dir/shed.json" 2> "$chaos_dir/shed.err" || true
cmp -s "$chaos_dir/b.direct.json" "$chaos_dir/shed.json" \
    || { echo "FAIL: verdict after a shed differs from direct analyze"; chaos_fail=1; }
grep -q "daemon shed" "$chaos_dir/shed.err" \
    || { echo "FAIL: shed fallback marker missing (want 'daemon shed (reason)')"; chaos_fail=1; }
wait "$hog_pid" 2>/dev/null || true
target/release/shoal daemon status --format json --socket "$shed_sock" > "$chaos_dir/shed-stats.json" || true
grep -q '"sheds":1' "$chaos_dir/shed-stats.json" \
    || { echo "FAIL: shield stats did not count the shed"; chaos_fail=1; }
target/release/shoal daemon stop --socket "$shed_sock" >/dev/null 2>&1 || true
wait "$shed_pid" 2>/dev/null || true

# (3) Corrupt cache: persist a verdict, truncate the disk entry,
# restart over the same directory — the daemon must recompute (a
# counted miss), never serve garbage.
cc_sock="$chaos_dir/cc.sock"
target/release/shoal daemon --socket "$cc_sock" --cache-dir "$chaos_dir/cc-cache" &
cc_pid=$!
n=0
while [ ! -S "$cc_sock" ] && [ "$n" -lt 100 ]; do sleep 0.05; n=$((n + 1)); done
target/release/shoal jit --socket "$cc_sock" --no-spawn --format json "$chaos_dir/a.sh" > /dev/null 2>&1 || true
target/release/shoal daemon stop --socket "$cc_sock" >/dev/null 2>&1 || true
wait "$cc_pid" 2>/dev/null || true
find "$chaos_dir/cc-cache" -name '*.json' -exec sh -c 'printf "{torn" > "$1"' _ {} \;
target/release/shoal daemon --socket "$cc_sock" --cache-dir "$chaos_dir/cc-cache" &
cc_pid=$!
n=0
while [ ! -S "$cc_sock" ] && [ "$n" -lt 100 ]; do sleep 0.05; n=$((n + 1)); done
target/release/shoal jit --socket "$cc_sock" --no-spawn --format json "$chaos_dir/a.sh" \
    > "$chaos_dir/cc.json" 2> "$chaos_dir/cc.err" || true
cmp -s "$chaos_dir/a.direct.json" "$chaos_dir/cc.json" \
    || { echo "FAIL: verdict over a corrupt cache differs from direct analyze"; chaos_fail=1; }
grep -q "served=daemon cache=miss" "$chaos_dir/cc.err" \
    || { echo "FAIL: corrupt entry was not recomputed as a served miss"; chaos_fail=1; }
target/release/shoal daemon status --format json --socket "$cc_sock" > "$chaos_dir/cc-stats.json" || true
grep -q '"corrupt_misses":1' "$chaos_dir/cc-stats.json" \
    || { echo "FAIL: corrupt disk entry was not counted"; chaos_fail=1; }
target/release/shoal daemon stop --socket "$cc_sock" >/dev/null 2>&1 || true
wait "$cc_pid" 2>/dev/null || true
rm -rf "$chaos_dir"
if [ "$chaos_fail" = 1 ]; then
    exit 1
fi

# Mutation fuzzing at CI depth (the default in-test depth is 96 cases;
# everything is offline and deterministic).
echo "==> robustness: mutation property tests (SHOAL_PROP_CASES=256)"
SHOAL_PROP_CASES=256 cargo test -q --offline --test robustness

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> workspace: cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "==> clippy not installed; skipping lint step"
fi

# Opt-in performance gate: compare the bench suites against the
# checked-in BENCH_*.json baselines (fails on >30% regression).
if [ "${SHOAL_BENCH_GATE:-0}" = "1" ]; then
    echo "==> bench gate: scripts/bench_trajectory.sh check"
    scripts/bench_trajectory.sh check
fi

echo "==> CI OK"
