#!/bin/sh
# Benchmark trajectory: runs the two hot-path bench suites and keeps a
# machine-readable baseline at the repo root so CI can catch
# regressions over time.
#
#   record   run symexec + relang_ops + scan_throughput + daemon_jit,
#            write BENCH_symexec.json, BENCH_relang.json,
#            BENCH_scan.json, and BENCH_daemon.json at the repo root
#            (the new baselines)
#   check    run all suites fresh and fail if any benchmark is more
#            than 30% slower than its checked-in baseline
#
# Usage: scripts/bench_trajectory.sh [record|check]   (default: check)
#
# Output schema (one file per suite):
#   {
#     "schema": "shoal-bench/v1",
#     "suite": "symexec" | "relang_ops",
#     "fast": true | false,            # SHOAL_BENCH_FAST shortening
#     "benchmarks": {
#       "<case name>": <ns/iter: min over runs of the median sample>,
#       ...
#     }
#   }
#
# Wall-clock benches are noisy (shared machines, CPU contention), so
# both record and check keep the per-case MINIMUM over
# SHOAL_BENCH_RUNS executions (default 10): contention only ever slows
# a run down, so the min is the stable estimator. The baselines are
# minima over many runs, and on a shared 2-core host a 3-run minimum
# exceeded them by up to 1.67x on cases no change touched; at 10 runs
# every case stayed within 1.21x. The 1.3x gate is deliberately loose
# on top of that. Set SHOAL_BENCH_FAST=0 for full-length samples
# before recording a baseline you care about.

set -eu

cd "$(dirname "$0")/.."
mode="${1:-check}"

export CARGO_NET_OFFLINE=true
export SHOAL_BENCH_FAST="${SHOAL_BENCH_FAST:-1}"
runs="${SHOAL_BENCH_RUNS:-10}"

# Runs one bench suite $runs times; prints per-case "name min_ns" pairs.
run_suite() {
    n=0
    while [ "$n" -lt "$runs" ]; do
        cargo bench -p shoal-bench --offline --bench "$1" 2>/dev/null \
            | awk '/ns\/iter/ { print $1, $2 }'
        n=$((n + 1))
    done | awk '{ if (!($1 in best) || $2 + 0 < best[$1]) best[$1] = $2 }
                END { for (k in best) print k, best[k] }' | sort
}

# Writes the shoal-bench/v1 JSON for one suite from "name ns" pairs.
write_json() {
    suite="$1"
    out="$2"
    fast_word=false
    [ "$SHOAL_BENCH_FAST" = "1" ] && fast_word=true
    awk -v suite="$suite" -v fast="$fast_word" '
        { names[NR] = $1; vals[NR] = $2 }
        END {
            printf "{\n"
            printf "  \"schema\": \"shoal-bench/v1\",\n"
            printf "  \"suite\": \"%s\",\n", suite
            printf "  \"fast\": %s,\n", fast
            printf "  \"benchmarks\": {\n"
            for (i = 1; i <= NR; i++)
                printf "    \"%s\": %s%s\n", names[i], vals[i], (i < NR ? "," : "")
            printf "  }\n}\n"
        }' > "$out"
    echo "wrote $out"
}

# Prints "name ns" pairs from a shoal-bench/v1 JSON file.
read_json() {
    sed -n 's/^    "\(.*\)": \([0-9.eE+]*\),\{0,1\}$/\1 \2/p' "$1"
}

# Compares fresh "name ns" pairs (file $2) against a baseline JSON
# ($1); fails when any case exceeds 1.3x its baseline. Tail-percentile
# cases (service/..._p95, _p99) get a looser 2.0x gate: a p99 over a
# ~100-request closed loop is a max-like order statistic, so a single
# preempted request moves it on its own — it stays on record for the
# trajectory, but only a gross regression fails the check.
check_suite() {
    baseline="$1"
    fresh="$2"
    if [ ! -f "$baseline" ]; then
        echo "no baseline $baseline; run 'scripts/bench_trajectory.sh record' first" >&2
        return 1
    fi
    read_json "$baseline" | sort > /tmp/bench_base.$$
    sort "$fresh" > /tmp/bench_fresh.$$
    join /tmp/bench_base.$$ /tmp/bench_fresh.$$ | awk -v limit=1.3 -v tail_limit=2.0 '
        {
            cap = ($1 ~ /_p9[59]$/) ? tail_limit : limit
            ratio = ($2 > 0) ? $3 / $2 : 1
            status = (ratio > cap) ? "REGRESSED" : "ok"
            printf "  %-44s %12.1f -> %12.1f ns/iter (%.2fx) %s\n", $1, $2, $3, ratio, status
            if (ratio > cap) bad++
        }
        END { exit (bad > 0 ? 1 : 0) }'
    rc=$?
    rm -f /tmp/bench_base.$$ /tmp/bench_fresh.$$
    return $rc
}

case "$mode" in
record)
    run_suite symexec > /tmp/bench_symexec.$$
    write_json symexec BENCH_symexec.json < /tmp/bench_symexec.$$
    run_suite relang_ops > /tmp/bench_relang.$$
    write_json relang_ops BENCH_relang.json < /tmp/bench_relang.$$
    run_suite scan_throughput > /tmp/bench_scan.$$
    write_json scan_throughput BENCH_scan.json < /tmp/bench_scan.$$
    run_suite daemon_jit > /tmp/bench_daemon.$$
    write_json daemon_jit BENCH_daemon.json < /tmp/bench_daemon.$$
    rm -f /tmp/bench_symexec.$$ /tmp/bench_relang.$$ /tmp/bench_scan.$$ /tmp/bench_daemon.$$
    ;;
check)
    fail=0
    echo "==> bench check: symexec vs BENCH_symexec.json"
    run_suite symexec > /tmp/bench_run.$$
    check_suite BENCH_symexec.json /tmp/bench_run.$$ || fail=1
    echo "==> bench check: relang_ops vs BENCH_relang.json"
    run_suite relang_ops > /tmp/bench_run.$$
    check_suite BENCH_relang.json /tmp/bench_run.$$ || fail=1
    echo "==> bench check: scan_throughput vs BENCH_scan.json"
    run_suite scan_throughput > /tmp/bench_run.$$
    check_suite BENCH_scan.json /tmp/bench_run.$$ || fail=1
    echo "==> bench check: daemon_jit vs BENCH_daemon.json"
    run_suite daemon_jit > /tmp/bench_run.$$
    check_suite BENCH_daemon.json /tmp/bench_run.$$ || fail=1
    # `join` only compares keys both sides have, so a baseline that
    # silently lost the service percentiles would still pass the gate
    # above — assert their presence explicitly.
    for key in service/analyze_p50 service/analyze_p99; do
        grep -q "\"$key\"" BENCH_daemon.json \
            || { echo "  MISSING $key in BENCH_daemon.json" >&2; fail=1; }
    done
    # Same guard for the relang decision-procedure keys: the early-exit
    # containment case and the single-pass quotient are the two
    # perf-critical paths of the lazy engine rebuild.
    for key in decisions/containment_early_exit right_quotient_dirname; do
        grep -q "\"$key\"" BENCH_relang.json \
            || { echo "  MISSING $key in BENCH_relang.json" >&2; fail=1; }
    done
    # And for the incremental engine: the cold/edit pairs are the
    # acceptance evidence for statement-level replay (a trailing edit
    # on a 200-statement script must stay far under a cold run).
    for key in incr/straight_line_200_cold incr/straight_line_200_edit \
               incr/loopy_200_cold incr/loopy_200_edit; do
        grep -q "\"$key\"" BENCH_symexec.json \
            || { echo "  MISSING $key in BENCH_symexec.json" >&2; fail=1; }
    done
    rm -f /tmp/bench_run.$$
    if [ "$fail" = 1 ]; then
        echo "==> bench check FAILED (some case >1.3x its baseline)" >&2
        exit 1
    fi
    echo "==> bench check OK"
    ;;
*)
    echo "usage: scripts/bench_trajectory.sh [record|check]" >&2
    exit 2
    ;;
esac
