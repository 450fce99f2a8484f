#!/bin/sh
# neutral.sh proves that the working tree changes nothing in virtual time
# against <rev>: it runs the bit-neutral recipe on both sides and prints one
# line per check, "same" or "DIFF" with both values, and exits 1 on any
# difference.
#
#   scripts/neutral.sh <rev>
#   make neutral REV=<rev>
#
# Run it from inside the checkout under test. <rev> is built from a git
# worktree in a temporary directory (TMPDIR), which is removed on exit. SEED
# (21) and SCALE (20, the benchmark's --seconds) set the runs. The checks:
#   - each ledger workload's archive digest and every virtual line of its
#     --trace 0 run (every v_*, model_err_pct, archive_bytes_per_point) and
#     of its --trace 1 run (kernel.noise_draws, dbms.execute_vns, sim.*,
#     dbms.gate_*, wal.*, tscout.*, autopilot.*, model.err_by_template_us);
#   - the golden files (internal/workload/testdata/golden*.txt,
#     internal/bpf/testdata/collectors.golden) are <rev>'s, and the tests
#     that hold the working tree to them pass;
#   - `go run ./cmd/tsbench all` prints the same bytes.
# One benchmark process runs at a time, in the foreground.
set -eu
usage='usage: scripts/neutral.sh <rev>'
rev=${1:?$usage}
[ $# -eq 1 ] || {
	echo "$usage" >&2
	exit 2
}
GO=${GO:-go}
seed=${SEED:-21}
scale=${SCALE:-20}
workloads='tatp_full tpcc_autopilot smallbank_scaleout tpcc_learn'

cd "$(git rev-parse --show-toplevel)"
base=$(git rev-parse --verify "$rev^{commit}")
head=$(git rev-parse HEAD)
git diff --quiet HEAD -- || head="$head+dirty"

tmp=$(mktemp -d)
cleanup() {
	git worktree remove --force "$tmp/base" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --detach -q "$tmp/base" "$base"

echo "# neutral.sh: $($GO version | cut -d' ' -f3-)"
echo "# seed $seed, scale $scale s"
echo "# base $base"
echo "# head $head"

for side in base head; do
	dir=.
	[ $side = base ] && dir=$tmp/base
	(cd "$dir" && $GO build -o "$tmp/$side-bench" ./benchmark && $GO build -o "$tmp/$side-tsbench" ./cmd/tsbench)
done

fail=0
# same <check> <base value> <head value>
same() {
	if [ "$2" = "$3" ]; then
		echo "same  $1 $2"
	else
		echo "DIFF  $1 base $2 head $3"
		fail=1
	fi
}

# virtual <output file>: the run's digest and its virtual-time lines.
virtual() {
	awk '$1 == "archive_digest" || $4 == "virtual" { print $1, $2 }' "$1"
}

for w in $workloads; do
	for trace in 0 1; do
		for side in base head; do
			"$tmp/$side-bench" --workload "$w" --seed "$seed" --seconds "$scale" \
				--trace "$trace" --out "$tmp/out" >"$tmp/$side.txt"
			virtual "$tmp/$side.txt" >"$tmp/$side.lines"
		done
		[ -s "$tmp/head.lines" ] || same "$w/trace$trace lines" present missing
		while read -r name b; do
			h=$(awk -v n="$name" '$1 == n { print $2 }' "$tmp/head.lines")
			same "$w/trace$trace $name" "$b" "${h:-missing}"
		done <"$tmp/base.lines"
		same "$w/trace$trace line count" "$(wc -l <"$tmp/base.lines")" "$(wc -l <"$tmp/head.lines")"
	done
done

for f in internal/workload/testdata/golden.txt internal/workload/testdata/golden_pooled.txt \
	internal/bpf/testdata/collectors.golden; do
	if git diff --quiet "$base" -- "$f"; then
		same "$f" unchanged unchanged
	else
		same "$f" unchanged changed
	fi
done
if $GO test -count=1 ./internal/workload -run 'GoldenFingerprint|RunsAreDeterministic' >"$tmp/golden.txt" 2>&1; then
	same "workload golden tests" pass pass
else
	tail -n 20 "$tmp/golden.txt"
	same "workload golden tests" pass fail
fi
if $GO test -count=1 ./internal/bpf -run '^TestCollectorDump$' >"$tmp/collectors.txt" 2>&1; then
	same "collectors golden test" pass pass
else
	tail -n 20 "$tmp/collectors.txt"
	same "collectors golden test" pass fail
fi

for side in base head; do
	dir=.
	[ $side = base ] && dir=$tmp/base
	(cd "$dir" && "$tmp/$side-tsbench" all >"$tmp/$side-tsbench.txt")
done
if cmp -s "$tmp/base-tsbench.txt" "$tmp/head-tsbench.txt"; then
	same "tsbench all stdout ($(wc -l <"$tmp/head-tsbench.txt") lines)" identical identical
else
	same "tsbench all stdout" identical "differs at $(cmp "$tmp/base-tsbench.txt" "$tmp/head-tsbench.txt" | cut -d' ' -f4-)"
fi

if [ $fail -ne 0 ]; then
	echo "# NOT neutral"
	exit 1
fi
echo "# neutral"
