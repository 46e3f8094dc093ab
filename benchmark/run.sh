#!/usr/bin/env bash
# One set of runs: all six workloads untraced, then traced, for one seed,
# into benchmark/out/<commit>-<seed>[-n]/. Two sets of the same commit are
# then compared with `blot-benchmark compare <setA> <setB>`.
#
#   benchmark/run.sh [seed]
set -euo pipefail

seed=${1:-1}
here=$(cd "$(dirname "$0")" && pwd)
commit=$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)
export BLOT_BENCH_COMMIT=$commit

cargo build --release --quiet --manifest-path "$here/Cargo.toml"
bin=${CARGO_TARGET_DIR:-$here/target}/release/blot-benchmark

out=$here/out/$commit-$seed
n=1
while [ -e "$out" ]; do
    n=$((n + 1))
    out=$here/out/$commit-$seed-$n
done
mkdir -p "$out"

started=$(date +%s)
status=0
for trace in 0 1; do
    for workload in scan_heavy selective serve_small routed ingest_mix advise; do
        log=$out/$workload.trace$trace.log
        if "$bin" run --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" >"$log" 2>&1; then
            head -n 1 "$log"
        else
            status=1
            echo "FAILED: $workload (trace $trace), see $log"
        fi
    done
done
echo "set written to $out in $(($(date +%s) - started)) s"
exit $status
