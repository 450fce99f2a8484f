#!/bin/sh
# Tier-1 gate, written once. With no argument it runs every step in order
# (`make check` is this script); with a step name it runs that step alone,
# which is what the Makefile's build/lint/race/fuzz-smoke targets call.
# Needs only a POSIX shell and the go toolchain.
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
