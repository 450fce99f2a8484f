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
# is the collect pass alone. Counts are objects (alloc_objects); divide by
# the workload's collect-pass transactions (its budget at 20 s, scaled to
# seconds, 4 by default) for allocations per transaction.
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
		-phase "$phase" -memprofile "$dir/$phase.prof" -out "$dir/out" >/dev/null
done
$GO tool pprof -sample_index=alloc_objects -top -diff_base "$dir/off.prof" "$dir/benchmark" "$dir/collect.prof"
