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

# Audit gate: the precision/coverage plane must speak shoal-audit/v1,
# stay dark when off (no audit key, no clock reads in the audit
# sources), and cost nothing measurable when on (recorded baseline:
# audit-on <= 1.05x audit-off). Byte-identity at any --jobs level is
# tests/audit.rs::audited_scan_is_byte_identical_at_any_jobs_level.
echo "==> audit: shoal-audit/v1 schema + dark path + overhead"
audit_fail=0
target/release/shoal audit --format json examples/ > /tmp/audit_rep.$$ \
    || { echo "FAIL: shoal audit exited non-zero (it is a report, not a gate)"; audit_fail=1; }
grep -q '"schema":"shoal-audit/v1"' /tmp/audit_rep.$$ || { echo "FAIL: audit report is not shoal-audit/v1"; audit_fail=1; }
grep -q '"missing_specs"' /tmp/audit_rep.$$ || { echo "FAIL: audit report carries no missing_specs ranking"; audit_fail=1; }
grep -q '"by_cause"' /tmp/audit_rep.$$ || { echo "FAIL: audit report carries no per-cause loss taxonomy"; audit_fail=1; }
if target/release/shoal scan --jobs 1 --format json examples/ 2>/dev/null | grep -q '"audit"'; then
    echo "FAIL: scan without --audit emitted an audit key (dark path broken)"
    audit_fail=1
fi
if grep -En 'Instant::now|SystemTime' crates/obs/src/audit.rs crates/core/src/audit.rs; then
    echo "FAIL: audit sources read a clock (the plane must add zero clock reads)"
    audit_fail=1
fi
awk -F'[:,]' '
    /"scan\/audit_off"/ { off = $2 + 0 }
    /"scan\/audit_on"/  { on = $2 + 0 }
    END {
        if (off <= 0 || on <= 0) { print "  MISSING scan/audit_{off,on} in BENCH_scan.json"; exit 1 }
        ratio = on / off
        printf "  audit overhead: %.0f -> %.0f ns/iter (%.3fx, cap 1.05x)\n", off, on, ratio
        exit (ratio > 1.05 ? 1 : 0)
    }' BENCH_scan.json || { echo "FAIL: recorded audit-on overhead exceeds 1.05x audit-off"; audit_fail=1; }
rm -f /tmp/audit_rep.$$
if [ "$audit_fail" = 1 ]; then
    exit 1
fi

# Precision gate: the lazy decision engine must not widen coverage
# loss. Over the figure corpus, the number of dfa-cap losses reported
# by the audit plane is pinned at 0 — a lazy search that charges
# explored pairs too eagerly (or a quotient that caps a product the
# eager pipeline could build) shows up here as a new dfa-cap entry.
echo "==> precision: dfa-cap losses over examples/ tests/ (pinned baseline: 0)"
dfa_cap_losses=$(target/release/shoal scan --audit --format json examples/ tests/ 2>/dev/null \
    | grep -o '"dfa-cap":[0-9]*' | awk -F: '{ sum += $2 } END { print sum + 0 }' || true)
if [ "${dfa_cap_losses:-0}" -gt 0 ]; then
    echo "FAIL: $dfa_cap_losses dfa-cap losses over the figure corpus (baseline 0)"
    exit 1
fi

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
