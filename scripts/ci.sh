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

# JIT daemon smoke gate: start a daemon on a temp socket, serve the
# same script cold then warm, and require both byte-identical to a
# direct `shoal analyze --format json`; validate the telemetry plane
# (trace IDs on the markers, shoal-stats/v1 from `status --format
# json`, a rendering `daemon top`); then stop the daemon and require a
# clean shutdown (socket unlinked, exit 0).
echo "==> daemon: cold/warm serve + byte-equality + telemetry + clean shutdown"
jit_dir=/tmp/shoal-ci-jit.$$
rm -rf "$jit_dir"
mkdir -p "$jit_dir"
jit_sock="$jit_dir/daemon.sock"
cat > "$jit_dir/fig.sh" <<'EOF'
#!/bin/sh
STEAMROOT="$(cd "${0%/*}" && echo $PWD)"
rm -rf "$STEAMROOT/"*
EOF
target/release/shoal daemon --socket "$jit_sock" --cache-dir "$jit_dir/cache" &
jit_pid=$!
n=0
while [ ! -S "$jit_sock" ] && [ "$n" -lt 100 ]; do sleep 0.05; n=$((n + 1)); done
jit_fail=0
target/release/shoal analyze "$jit_dir/fig.sh" --format json > "$jit_dir/direct.json" || true
target/release/shoal jit --socket "$jit_sock" --no-spawn --format json "$jit_dir/fig.sh" \
    > "$jit_dir/cold.json" 2> "$jit_dir/cold.err" || true
target/release/shoal jit --socket "$jit_sock" --no-spawn --format json "$jit_dir/fig.sh" \
    > "$jit_dir/warm.json" 2> "$jit_dir/warm.err" || true
cmp -s "$jit_dir/direct.json" "$jit_dir/cold.json" || { echo "FAIL: cold jit differs from direct analyze"; jit_fail=1; }
cmp -s "$jit_dir/direct.json" "$jit_dir/warm.json" || { echo "FAIL: warm jit differs from direct analyze"; jit_fail=1; }
grep -q "served=daemon cache=miss" "$jit_dir/cold.err" || { echo "FAIL: cold request was not a served miss"; jit_fail=1; }
grep -q "served=daemon cache=hit" "$jit_dir/warm.err" || { echo "FAIL: warm request was not a served hit"; jit_fail=1; }
grep -Eq "served=daemon cache=miss trace=[0-9a-f]{16}" "$jit_dir/cold.err" || { echo "FAIL: cold marker carries no trace id"; jit_fail=1; }
# Telemetry plane: `status --format json` is the shoal-stats/v1
# snapshot, with percentile-bearing latency histograms and the cache
# outcome taxonomy; `daemon top` renders the same snapshot.
target/release/shoal daemon status --format json --socket "$jit_sock" > "$jit_dir/stats.json" || { echo "FAIL: daemon status --format json"; jit_fail=1; }
grep -q '"schema":"shoal-stats/v1"' "$jit_dir/stats.json" || { echo "FAIL: stats snapshot is not shoal-stats/v1"; jit_fail=1; }
grep -q '"analyze.hit"' "$jit_dir/stats.json" || { echo "FAIL: stats carries no analyze.hit counter"; jit_fail=1; }
grep -q '"p99"' "$jit_dir/stats.json" || { echo "FAIL: stats carries no p99 percentile"; jit_fail=1; }
grep -q '"corrupt_misses"' "$jit_dir/stats.json" || { echo "FAIL: stats carries no cache outcome taxonomy"; jit_fail=1; }
grep -q '"analyzed_scripts"' "$jit_dir/stats.json" || { echo "FAIL: stats carries no audit block"; jit_fail=1; }
grep -q '"shield"' "$jit_dir/stats.json" || { echo "FAIL: stats carries no shield block"; jit_fail=1; }
grep -q '"queue_highwater"' "$jit_dir/stats.json" || { echo "FAIL: shield block carries no queue highwater"; jit_fail=1; }
target/release/shoal daemon top --socket "$jit_sock" > "$jit_dir/top.txt" || { echo "FAIL: daemon top"; jit_fail=1; }
grep -q "^requests:" "$jit_dir/top.txt" || { echo "FAIL: daemon top shows no request table"; jit_fail=1; }
grep -q "^cache:" "$jit_dir/top.txt" || { echo "FAIL: daemon top shows no cache line"; jit_fail=1; }
grep -q "^audit:" "$jit_dir/top.txt" || { echo "FAIL: daemon top shows no audit line"; jit_fail=1; }
grep -q "^shield:" "$jit_dir/top.txt" || { echo "FAIL: daemon top shows no shield line"; jit_fail=1; }
target/release/shoal daemon stop --socket "$jit_sock" || { echo "FAIL: daemon stop"; jit_fail=1; }
if ! wait "$jit_pid"; then echo "FAIL: daemon exited non-zero"; jit_fail=1; fi
[ ! -e "$jit_sock" ] || { echo "FAIL: daemon left its socket behind"; jit_fail=1; }
rm -rf "$jit_dir"
if [ "$jit_fail" = 1 ]; then
    exit 1
fi

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

# Service load smoke: a short closed-loop bench-service run against a
# private daemon must complete with zero verdict mismatches (exit 0)
# and emit the percentile keys BENCH_daemon.json records; the overload
# shape must emit its shed/coalesced rate keys the same way.
echo "==> daemon: bench-service smoke (2 clients x 3 requests, + overload shape)"
bench_out=/tmp/shoal-ci-bench.$$
target/release/shoal bench-service --clients 2 --requests 3 --format bench > "$bench_out" \
    || { echo "FAIL: bench-service run (verdict mismatch or daemon failure)"; rm -f "$bench_out"; exit 1; }
for key in service/analyze_p50 service/analyze_p99; do
    grep -q "$key" "$bench_out" || { echo "FAIL: bench-service emitted no $key"; rm -f "$bench_out"; exit 1; }
done
target/release/shoal bench-service --clients 4 --requests 5 --overload --format bench > "$bench_out" \
    || { echo "FAIL: bench-service --overload run (verdict mismatch under overload)"; rm -f "$bench_out"; exit 1; }
for key in service/overload_shed_rate service/overload_coalesced_rate; do
    grep -q "$key" "$bench_out" || { echo "FAIL: bench-service --overload emitted no $key"; rm -f "$bench_out"; exit 1; }
done
rm -f "$bench_out"
for key in service/analyze_p50 service/analyze_p99 service/overload_shed_rate service/overload_coalesced_rate; do
    grep -q "\"$key\"" BENCH_daemon.json \
        || { echo "FAIL: BENCH_daemon.json carries no $key baseline"; exit 1; }
done

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
