#!/bin/sh
# alloc-census.sh prints the exact allocation sites of one benchmark
# workload's collect pass: every object the pass allocates, by the function
# that allocated it.
#
#   scripts/alloc-census.sh <workload> [seconds]    (make alloc-census W=<workload>)
#
# It builds ./benchmark once and runs it twice under GODEBUG=memprofilerate=1,
# which records every allocation instead of a sample: once with its
# allocation profile taken at the end of the off pass, once at the end of the
# collect pass. Runs are deterministic, so the second profile less the first
# is the collect pass alone. Counts are objects (alloc_objects). Above the
# table it prints the collect run's host_allocs_per_txn line, the collect
# pass's allocations divided by its transactions (the workload's budget at
# 20 s, scaled to seconds, 4 by default): divide a site's count by the same
# number of transactions to set it beside that line.
set -eu
cd "$(dirname "$0")/.."

GO=${GO:-go}
workload=${1:?usage: scripts/alloc-census.sh <workload> [seconds]}
seconds=${2:-4}

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

$GO build -o "$dir/benchmark" ./benchmark
for phase in off collect; do
	GODEBUG=memprofilerate=1 "$dir/benchmark" --workload "$workload" --seconds "$seconds" \
		-phase "$phase" -memprofile "$dir/$phase.prof" -out "$dir/out" >"$dir/$phase.txt"
done
grep '^host_allocs_per_txn' "$dir/collect.txt"
$GO tool pprof -sample_index=alloc_objects -top -diff_base "$dir/off.prof" "$dir/benchmark" "$dir/collect.prof"
