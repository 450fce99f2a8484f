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
# (internal/analysis): determinism rules, the guarded-by annotation checker
# and the verify-before-run rules. Zero unsuppressed findings required;
# suppressions are //tsvet:ignore <rule> <reason>. The formatting check
# skips testdata/, whose analyzer fixtures are deliberately odd.
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

# The whole suite under the race detector, which slows the virtual-time
# experiments ~10x past go test's default 10m deadline.
race() { $GO test -race -timeout 45m ./...; }

# A short pass over every fuzz target (go test allows one -fuzz pattern per
# package invocation). Raise FUZZTIME for real sessions; crashers land in
# testdata/fuzz/ for replay.
fuzz_smoke() {
	while read -r pkg target; do
		$GO test "./internal/$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "${FUZZTIME:-10s}"
	done <<-END
		bpf FuzzVerify
		bpf FuzzVerifyThenRun
		bpf FuzzOptimize
		bpf FuzzRingbuf
		bpf FuzzPerCPURing
		tscout FuzzProcessorDecode
		tscout FuzzFaultSchedule
		kernel FuzzPerCPUFaultOrder
		archive FuzzSegmentCodec
		model FuzzBuildTreeDifferential
		exec FuzzPreparedDifferential
		txn FuzzVersionPruneDifferential
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
