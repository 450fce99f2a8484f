# `make check` is the tier-1 gate a change must pass before merging. The
# gate's steps are written once, in scripts/check.sh (which also works
# without make); the targets on the next line run one step each.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check build lint race fuzz-smoke test bench alloc-census neutral pairs cover figures

check build lint race fuzz-smoke:
	GO="$(GO)" FUZZTIME="$(FUZZTIME)" ./scripts/check.sh $@

test:
	$(GO) test ./...

# The perf ledger: four full-loop workloads, both clocks (see BENCHMARK.json).
bench:
	$(GO) run ./benchmark

# Every allocation site of one workload's collect pass, exactly
# (GODEBUG=memprofilerate=1): make alloc-census W=smallbank_scaleout; S= sets
# the seconds (4), SEED= the seed (21), P=learn takes the learn pass
# instead, and F= keeps only the call paths a pprof -focus regex matches
# (F='Controller..Tick').
alloc-census:
	GO="$(GO)" SEED="$(SEED)" FOCUS="$(F)" ./scripts/alloc-census.sh $(W) $(or $(S),4) $(P)

# The bit-neutral recipe against a revision, one line per check: make
# neutral REV=<rev> (SEED= and SCALE= set the runs).
neutral:
	GO="$(GO)" ./scripts/neutral.sh $(REV)

# Alternating pairs of one metric against a revision, with quartiles, wins
# and a sign test: make pairs REV=<rev> W=<workload> M=<metric> [N=10].
pairs:
	GO="$(GO)" ./scripts/pairs.sh $(REV) $(W) $(M) $(N)

# Coverage with a per-package summary (baseline recorded in README.md).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@echo "---- per package ----"
	@$(GO) test -cover ./... 2>/dev/null | awk '/coverage:/ {print $$2, $$5}'

# Re-record EXPERIMENTS.md's figure blocks from the figure-shape tests
# (quick scale); a change that moves virtual time commits the diff.
figures:
	$(GO) test ./internal/experiment -count=1 -update
