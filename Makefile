# `make check` is the tier-1 gate a change must pass before merging. The
# gate's steps are written once, in scripts/check.sh (which also works
# without make); the targets on the next line run one step each.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build lint race fuzz-smoke test bench cover figures

check build lint race fuzz-smoke:
	GO="$(GO)" FUZZTIME="$(FUZZTIME)" ./scripts/check.sh $@

test:
	$(GO) test ./...

# The perf ledger: four full-loop workloads, both clocks (see BENCHMARK.json).
bench:
	$(GO) run ./benchmark

# Coverage with a per-package summary (baseline recorded in README.md).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@echo "---- per package ----"
	@$(GO) test -cover ./... 2>/dev/null | awk '/coverage:/ {print $$2, $$5}'

# Regenerate every figure at quick scale.
figures:
	$(GO) run ./cmd/tsbench all
