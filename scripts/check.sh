#!/bin/sh
# Tier-1 gate, written once. With no argument it runs every step in order
# (`make check` is this script); with a step name it runs that step alone,
# which is what the Makefile's build/lint/race/fuzz-smoke targets call.
# Needs only a POSIX shell with its usual text tools (awk, grep, sort, uniq,
# mktemp) and the go toolchain.
#
#   scripts/check.sh                    build, lint, race
#   FUZZ=1 FUZZTIME=5s scripts/check.sh ... then fuzz-smoke
#   scripts/check.sh fuzz-smoke         one step
set -eu
cd "$(dirname "$0")/.."
GO="${GO:-go}"

build() { $GO build ./...; }

# lint = gofmt, go vet and tsvet, the repo's typed static-analysis suite
# (internal/analysis): determinism rules, the verify-before-run rules,
# unsafe-import (unsafe only in internal/storage/value.go), and the
# dead-code rules (unused-func, unused-export: a function only tests call
# lives in the tests; unset-field: an exported field no caller sets goes;
# unread-field: a field nothing reads goes). Zero unsuppressed findings
# required; suppressions are //tsvet:ignore <rule> <reason>. The formatting
# check skips testdata/, whose analyzer fixtures are deliberately odd.
lint() {
	unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
	if [ -n "$unformatted" ]; then
		echo "gofmt -l reports unformatted files:" >&2
		echo "$unformatted" >&2
		return 1
	fi
	$GO vet ./...
	$GO run ./internal/analysis/tsvet .
	runner_inlined
	submit_inlined
	maptable_inlined
	row_read_inlined
	stmt_params_stack
	wal_records_borrowed
	one_chaos_driver
	one_evaluation_path
	no_goroutines
}

# Host concurrency is not a model: drain threads, CPUs and terminals exist in
# virtual time, and one goroutine drives a simulation (the sim package doc).
# No non-test file under internal/, cmd/ or examples/ (analyzer fixtures in
# testdata/ aside) may start a goroutine or import sync or sync/atomic: with
# one goroutine there is nothing for a lock or an atomic to order.
no_goroutines() {
	stray=$(grep -rlE --include='*.go' --exclude='*_test.go' '^[[:space:]]*go[[:space:]]+[[:alnum:]_(]' internal cmd examples |
		grep -v '/testdata/' || true)
	if [ -n "$stray" ]; then
		echo "no_goroutines: a go statement in non-test code; model the concurrency in virtual time instead:" >&2
		echo "$stray" >&2
		return 1
	fi
	stray=$(grep -rlE --include='*.go' --exclude='*_test.go' '^[[:space:]]*(import[[:space:]]+)?([[:alnum:]_.]+[[:space:]]+)?"sync(/atomic)?"' internal cmd examples |
		grep -v '/testdata/' || true)
	if [ -n "$stray" ]; then
		echo "no_goroutines: a sync or sync/atomic import in non-test code; one goroutine drives a simulation:" >&2
		echo "$stray" >&2
		return 1
	fi
}

# The loss identities are proven by one chaos harness. Only the kernel's own
# tests and internal/tscout/chaos_test.go may install a fault injector, so
# chaos drivers cannot multiply again.
one_chaos_driver() {
	stray=$(grep -rl --include='*_test.go' 'kernel\.NewFaultInjector' . |
		grep -v -e '^\./internal/kernel/' -e '^\./internal/tscout/chaos_test\.go$' || true)
	if [ -n "$stray" ]; then
		echo "one_chaos_driver: only internal/tscout/chaos_test.go may drive faults; add a scenario there instead:" >&2
		echo "$stray" >&2
		return 1
	fi
}

# Every accuracy figure trains and scores its models through one function,
# scoreSplits in internal/experiment/experiment.go. No other non-test file of
# the package may call model.Train, so the scoring loop cannot fork again.
one_evaluation_path() {
	stray=$(grep -l --include='*.go' --exclude='*_test.go' -r 'model\.Train(' internal/experiment |
		grep -v '^internal/experiment/experiment\.go$' || true)
	if [ -n "$stray" ]; then
		echo "one_evaluation_path: only scoreSplits (internal/experiment/experiment.go) may train a model; pass it a split instead:" >&2
		echo "$stray" >&2
		return 1
	fi
}

# bpf's block.run is the loop every marker hit spends its time in, and it is
# only fast while every one-line helper in it is inlined (at PR 19 it held 57
# real CALLs, because the closure then in use was compiled without inlining).
# Disassemble it from the benchmark binary and fail on any call other than
# the runtime's panic, stack-growth and memclr routines, the three counter
# helpers that are out of line on purpose, and muHelperCall's indirect call
# (a register operand, no "(SB)").
runner_inlined() {
	dir=$(mktemp -d)
	trap 'rm -rf "$dir"' EXIT
	$GO build -o "$dir/benchmark" ./benchmark
	asm=$($GO tool objdump -s 'bpf\.\(\*block\)\.run$' "$dir/benchmark")
	rm -rf "$dir"
	trap - EXIT
	if [ -z "$asm" ]; then
		echo "runner_inlined: no symbol bpf.(*block).run in ./benchmark; update scripts/check.sh" >&2
		return 1
	fi
	stray=$(echo "$asm" | awk '/CALL/ && $NF ~ /\(SB\)$/ {print $NF}' |
		grep -Ev '^runtime\.(panic|morestack|memclr)|^tscout/internal/bpf\.read(Counter|IOAC|Sock)Helper\(SB\)$' |
		sort | uniq -c || true)
	if [ -n "$stray" ]; then
		echo "bpf.(*block).run calls functions that should have been inlined:" >&2
		echo "$stray" >&2
		return 1
	fi
}

# bpf's cpuRing.submit runs on every sample a Collector outputs and is
# inlined into PerCPURing.SubmitFrom. A call out of it (ring growth, say)
# costs more than the inliner's budget leaves, so growth is cpuRing.grow,
# called from SubmitFrom. Fail if submit stops being inlinable.
submit_inlined() {
	if ! $GO build -gcflags=-m ./internal/bpf 2>&1 | grep -q 'can inline (\*cpuRing)\.submit'; then
		echo "submit_inlined: bpf.(*cpuRing).submit is no longer inlinable; keep ring growth and slot widening out of it (cpuRing.grow)" >&2
		return 1
	fi
}

# bpf's HashMap and PerTaskMap sit on one open-addressed table (u64Table),
# and every map call a marker program makes probes it. The probe loop is
# inlined into callFrame.run, the helper body the JIT binds to a concrete
# map; a call added to it (hashing through a function, say) costs more than
# the inliner's budget leaves. Fail if u64Table.lookup stops being
# inlinable, or stops being inlined into compile.go's helper bodies.
maptable_inlined() {
	m=$($GO build -gcflags=-m ./internal/bpf 2>&1)
	if ! echo "$m" | grep -q 'can inline (\*u64Table)\.lookup'; then
		echo "maptable_inlined: bpf.(*u64Table).lookup is no longer inlinable; keep calls out of the probe loop" >&2
		return 1
	fi
	if ! echo "$m" | grep -q '^internal/bpf/compile\.go:[0-9]*:[0-9]*: inlining call to (\*u64Table)\.lookup$'; then
		echo "maptable_inlined: no helper body in internal/bpf/compile.go inlines (*u64Table).lookup; update scripts/check.sh" >&2
		return 1
	fi
}

# Every row a scan reads goes through txn's Read, which walks the version
# chain with visible and hands back cells whose kind the predicates test
# with storage's Value.Kind. The scan loop costs what it does only while all
# three stay call-free; a call added to any of them (a helper in the chain
# walk, say) lands on every row. Fail if any stops being inlinable.
row_read_inlined() {
	m=$($GO build -gcflags=-m ./internal/storage ./internal/txn 2>&1)
	for fn in '(\*Txn)\.Read' '(\*Txn)\.visible' 'Value\.Kind'; do
		if ! echo "$m" | grep -q "can inline $fn\$"; then
			echo "row_read_inlined: $(echo "$fn" | tr -d '\\') is no longer inlinable; keep calls out of the row read path" >&2
			return 1
		fi
	done
}

# dbms's Session.Statement and Session.Execute take their parameters as a
# variadic slice. If that slice escapes (passed on through the engine's plan
# interface, say), every caller's argument array is allocated on the heap,
# once per statement. They copy it into the session's scratch
# (Session.bindParams) instead, so escape analysis may report "leaking param
# content: params" on them, never "leaking param: params".
stmt_params_stack() {
	escapes=$($GO build -gcflags=-m ./internal/dbms 2>&1)
	for fn in Statement Execute; do
		at=$(grep -n "^func (se \*Session) $fn(" internal/dbms/*.go | cut -d: -f1,2)
		if [ -z "$at" ]; then
			echo "stmt_params_stack: no Session.$fn in internal/dbms; update scripts/check.sh" >&2
			return 1
		fi
		if echo "$escapes" | grep -q "^$at:[0-9]*: leaking param: params\$"; then
			echo "stmt_params_stack: Session.$fn's params escapes to the heap; pass the engine a copy (Session.bindParams)" >&2
			return 1
		fi
	done
}

# The WAL borrows the redo records it is handed (the wal package doc): a
# session builds every commit's records in one scratch slice and reuses it
# at once. If Serializer.SubmitFrom keeps its records argument (in the
# Commit handle, say), that scratch is overwritten under it and every
# caller's slice goes to the heap. Escape analysis may report "leaking param
# content: records" on it, never "leaking param: records".
wal_records_borrowed() {
	at=$(grep -n '^func (s \*Serializer) SubmitFrom(' internal/wal/*.go | cut -d: -f1,2)
	if [ -z "$at" ]; then
		echo "wal_records_borrowed: no Serializer.SubmitFrom in internal/wal; update scripts/check.sh" >&2
		return 1
	fi
	if $GO build -gcflags=-m ./internal/wal 2>&1 | grep -q "^$at:[0-9]*: leaking param: records\$"; then
		echo "wal_records_borrowed: Serializer.SubmitFrom keeps its records; keep only their count and bytes" >&2
		return 1
	fi
}

# The whole suite under the race detector, which slows the virtual-time
# experiments ~10x past go test's default 10m deadline. No test starts a
# goroutine of its own, but the t.Parallel() tests in internal/experiment,
# internal/dbms and internal/workload run separate simulations on separate
# goroutines: -race is what proves those simulations share no mutable
# package state (every package-level variable under internal/ is read-only).
race() { $GO test -race -timeout 45m ./...; }

# A short pass over every fuzz target (go test allows one -fuzz pattern per
# package invocation). Raise FUZZTIME for real sessions; crashers land in
# testdata/fuzz/ for replay. The targets are what `go test -list` finds, and
# a checked-in corpus directory whose target is gone fails the step.
fuzz_smoke() {
	list=$($GO test -list '^Fuzz' ./internal/...)
	targets=$(echo "$list" | awk '
		/^Fuzz/ { names[++n] = $1 }
		/^ok/ { sub("^tscout/internal/", "", $2); for (i = 1; i <= n; i++) print $2, names[i]; n = 0 }')
	for dir in internal/*/testdata/fuzz/*/; do
		[ -d "$dir" ] || continue
		pkg=${dir#internal/}
		pkg=${pkg%%/testdata/*}
		name=$(basename "$dir")
		if ! echo "$targets" | grep -qx "$pkg $name"; then
			echo "fuzz_smoke: $dir has no fuzz target $name in internal/$pkg" >&2
			return 1
		fi
	done
	while read -r pkg target; do
		$GO test "./internal/$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "${FUZZTIME:-10s}"
	done <<-END
		$targets
	END
}

case "${1:-check}" in
check)
	build
	lint
	race
	if [ "${FUZZ:-0}" = 1 ]; then fuzz_smoke; fi
	;;
build) build ;;
lint) lint ;;
race) race ;;
fuzz-smoke) fuzz_smoke ;;
*)
	echo "usage: $0 [check|build|lint|race|fuzz-smoke]" >&2
	exit 2
	;;
esac
