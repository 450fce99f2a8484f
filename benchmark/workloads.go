package main

import (
	"tscout/internal/wal"
	"tscout/internal/workload"
)

// nominalSeconds is BENCHMARK.json's run_seconds: the -seconds value at
// which the transaction budgets below apply unscaled. Budgets scale
// linearly with -seconds, so the smoke test runs the same loop at a
// fiftieth of the size.
const nominalSeconds = 20

// spec is one frozen workload: which generator runs, on which driver and
// topology, and how much of it. Everything that is not listed here is the
// same on all four (see the run shape in README.md).
type spec struct {
	name string
	// why is the one-line rationale copied into BENCHMARK.json.
	why string
	gen func() workload.Generator
	// terminals and txns are the closed-loop client count and the
	// transaction budget of each pass at -seconds = nominalSeconds.
	terminals int
	txns      int
	// poolSessions > 0 selects the pooled epoch driver.
	poolSessions int
	numCPUs      int
	drainThreads int
	wal          wal.Config
	// segmentRows and pollNS are 0 for the package defaults (4096-row
	// segments, 100µs polls).
	segmentRows int
	pollNS      int64
	// lossFree workloads must not overwrite a single ring entry.
	lossFree bool
	// autopilot attaches the controller to the collect pass.
	autopilot bool
	// extendedLearn adds cross-validation, the online replay and the
	// archive SQL queries to the learn pass.
	extendedLearn bool
}

func tpcc4() workload.Generator {
	return &workload.TPCC{Warehouses: 4, CustomersPerDistrict: 20, Items: 200, InitialOrdersPerDistrict: 20}
}

var groupCommit = wal.Config{GroupSize: 32, FlushIntervalNS: 200_000}

// specs is ordered as BENCHMARK.json lists the workloads.
var specs = []spec{
	{
		name: "tatp_full",
		why: "tiny txns at fixed 100% sampling overload the rings: marker, JIT, ring submit/overwrite " +
			"and the budgeted drain dominate the collect pass, and loss accounting is stressed",
		gen:       func() workload.Generator { return &workload.TATP{Subscribers: 2000} },
		terminals: 20, txns: 200_000,
		numCPUs: 1, drainThreads: 1, wal: groupCommit,
	},
	{
		name: "tpcc_autopilot",
		why: "the operating mode and the bypass for collector work: after the controller converges " +
			"sampling sits at the floor, so the DBMS layers and the controller's refits carry the pass",
		gen:       tpcc4,
		terminals: 20, txns: 20_000,
		numCPUs: 1, drainThreads: 1, wal: groupCommit,
		segmentRows: 512, pollNS: 25_000, autopilot: true,
	},
	{
		name: "smallbank_scaleout",
		why: "the only run on the pooled epoch driver, admission gate, per-CPU rings and parallel drain: " +
			"zero loss, ~10 points/txn, so drain, decode, transform and the archive writer carry the load",
		gen:       func() workload.Generator { return &workload.SmallBank{Customers: 1000} },
		terminals: 2000, txns: 70_000, poolSessions: 128,
		numCPUs: 8, drainThreads: 2, wal: wal.Config{GroupSize: 32, FlushIntervalNS: 25_000},
		lossFree: true,
	},
	{
		name: "tpcc_learn",
		why: "reads the archive and trains beside the other workloads' writes: cross-validation, an online " +
			"replay and SQL over the mounted archive make the learn pass most of the run",
		gen:       tpcc4,
		terminals: 20, txns: 8_000,
		numCPUs: 1, drainThreads: 1, wal: groupCommit,
		extendedLearn: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
