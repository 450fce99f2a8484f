#!/bin/sh
# alloc-census.sh prints the exact allocation sites of one pass of one
# benchmark workload: every object the pass allocates, by the function that
# allocated it.
#
#   [SEED=n] [FOCUS=regex] scripts/alloc-census.sh <workload> [seconds] [learn]
#   make alloc-census W=<workload> [S=seconds] [P=learn] [SEED=n] [F=regex]
#
# SEED is the run's -seed (21 by default, the ledger's); a claim tuned at
# one seed is checked at another. FOCUS, if set, is passed to pprof as
# -focus, so the table counts only the allocations made under the call
# paths it matches: FOCUS='Controller..Tick' is one autopilot tick's share
# of the pass.
#
# It builds ./benchmark once and runs it twice under GODEBUG=memprofilerate=1,
# which records every allocation instead of a sample, taking its allocation
# profile at the end of a different phase each time. Runs are deterministic,
# so the later profile less the earlier one is one pass alone. By default
# that is the collect pass (the collect profile less the off one); with
# `learn` as the third argument it is the learn pass (the learn profile less
# the collect one). Counts are objects (alloc_objects). Above the table it
# prints the run's host_allocs_per_txn line, the collect pass's allocations
# divided by its transactions (the workload's budget at 20 s, scaled to
# seconds, 4 by default): divide a collect-pass site's count by the same
# number of transactions to set it beside that line.
set -eu
cd "$(dirname "$0")/.."

GO=${GO:-go}
seed=${SEED:-21}
focus=${FOCUS:-}
usage='usage: scripts/alloc-census.sh <workload> [seconds] [learn]'
workload=${1:?$usage}
seconds=${2:-4}
case ${3:-collect} in
collect) base=off pass=collect ;;
learn) base=collect pass=learn ;;
*)
	echo "$usage" >&2
	exit 2
	;;
esac

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

$GO build -o "$dir/benchmark" ./benchmark
for phase in $base $pass; do
	GODEBUG=memprofilerate=1 "$dir/benchmark" --workload "$workload" --seconds "$seconds" -seed "$seed" \
		-phase "$phase" -memprofile "$dir/$phase.prof" -out "$dir/out" >"$dir/$phase.txt"
done
grep '^host_allocs_per_txn' "$dir/$pass.txt"
$GO tool pprof -sample_index=alloc_objects -top ${focus:+-focus "$focus"} \
	-diff_base "$dir/$base.prof" "$dir/benchmark" "$dir/$pass.prof"
