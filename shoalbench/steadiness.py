#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, corrected and raw.

Runs the benchmark once per seed on each workload and prints, for each
end-to-end metric, the median and the distance between the first and
third quartiles as a share of the median (`statistics.quantiles(n=4)`),
next to the same spread of the raw (uncorrected) latencies and of the
raw reference-kernel time, so the drift correction is shown, not
assumed.

    python3 shoalbench/steadiness.py --seeds 1-10 --seconds 20 \
        --workloads fleet,long_scripts,edit_session [--out FILE.json]

Run from the repository root after building the benchmark
(`cargo build --release --offline --manifest-path shoalbench/Cargo.toml`).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def run(binary, workload, seed, seconds):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = {}
    for line in proc.stderr.splitlines():
        if line.startswith("raw (uncorrected):"):
            raw = {k: float(v) for k, v in re.findall(r"(\w+)=([0-9.e+-]+)", line)}
    return result, raw


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--workloads", default="fleet,long_scripts,edit_session")
    ap.add_argument("--binary", default=os.path.join(
        os.environ.get("CARGO_TARGET_DIR", "shoalbench/target"), "release", "shoalbench"))
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            result, raw = run(args.binary, workload, seed, args.seconds)
            runs.append({"seed": seed, "result": result, "raw": raw})
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        report[workload] = runs
        print(f"\n{workload} ({len(runs)} seeds)")
        print(f"  {'metric':<22} {'median':>12} {'IQR/median':>11}")
        for name in runs[0]["result"]["metrics"]:
            med, s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            print(f"  {name:<22} {med:>12.5g} {s:>10.2%}")
        for name in sorted(runs[0]["raw"]):
            med, s = spread([r["raw"][name] for r in runs])
            print(f"  raw {name:<18} {med:>12.5g} {s:>10.2%}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
