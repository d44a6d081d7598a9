#!/usr/bin/env bash
# Pins the reference outputs byte for byte: regenerates every
# results/*.md from its p4ce-bench binary and compares it with the
# committed file.
#
#   ./scripts/results_check.sh
#
# All experiment binaries are deterministic at their default seed, so any
# difference means a change altered what the simulated systems do. Exits
# non-zero and prints a diff for every file that moved.
set -euo pipefail
cd "$(dirname "$0")/.."

# One entry per results/<bin>.md: the binary, then its arguments.
runs=(
    fig5_goodput
    maxrate_consensus
    fig6_latency_throughput
    fig7_burst_latency
    table4_failover
    ablation_ack_drop
    ablation_credit_mode
    ablation_verb_cost
    related_p4xos
    groups_sweep
    "failover_budget --quick"
)

echo "==> cargo build --release -p p4ce-bench"
cargo build --release -q -p p4ce-bench --bins

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

failed=0
for run in "${runs[@]}"; do
    read -ra cmd <<<"$run"
    bin=${cmd[0]}
    start=$SECONDS
    ./target/release/"$bin" "${cmd[@]:1}" >"$out/$bin.md"
    if cmp -s "$out/$bin.md" "results/$bin.md"; then
        echo "    identical  results/$bin.md ($((SECONDS - start)) s)"
    else
        echo "    DIFFERS    results/$bin.md"
        diff -u "results/$bin.md" "$out/$bin.md" || true
        failed=1
    fi
done

if [ "$failed" -ne 0 ]; then
    echo "results check: regenerated outputs differ from results/" >&2
    exit 1
fi
echo "results check: all ${#runs[@]} files byte-identical"
