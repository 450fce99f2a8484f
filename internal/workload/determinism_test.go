package workload

import (
	"reflect"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

// TestRunsAreDeterministic validates the repository's core methodological
// claim (DESIGN.md): all performance results are virtual-time and
// deterministic for a given seed, so every experiment is exactly
// reproducible. Two identical instrumented TPC-C runs must agree on every
// reported number and on the collected training data.
func TestRunsAreDeterministic(t *testing.T) {
	run := func() (Result, []tscout.TrainingPoint) {
		arch := newTestArchive(0)
		srv, err := dbms.NewServer(dbms.Config{
			Seed: 7, Instrument: true, Sink: arch.w,
			WAL: wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := &TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
		if err := gen.Setup(srv); err != nil {
			t.Fatal(err)
		}
		srv.TS.Sampler().SetAllRates(100)
		res, err := Run(srv, gen, Config{Terminals: 4, Transactions: 300, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return res, arch.points(t)
	}
	r1, p1 := run()
	r2, p2 := run()

	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results differ across identical runs:\n%+v\n%+v", r1, r2)
	}
	if len(p1) != len(p2) {
		t.Fatalf("training data volume differs: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].OU != p2[i].OU || p1[i].Metrics != p2[i].Metrics {
			t.Fatalf("training point %d differs:\n%+v\n%+v", i, p1[i], p2[i])
		}
		for j := range p1[i].Features {
			if p1[i].Features[j] != p2[i].Features[j] {
				t.Fatalf("point %d feature %d differs", i, j)
			}
		}
	}
}

// TestDifferentSeedsDiffer guards the other direction: the seed actually
// drives the workload (identical results across seeds would mean the
// randomness is wired up wrong).
func TestDifferentSeedsDiffer(t *testing.T) {
	run := func(seed int64) Result {
		srv := newServer(t, false)
		gen := &YCSB{Records: 500}
		if err := gen.Setup(srv); err != nil {
			t.Fatal(err)
		}
		res, err := Run(srv, gen, Config{Terminals: 4, Transactions: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(1).ElapsedNS == run(2).ElapsedNS {
		t.Fatalf("different seeds should produce different timelines")
	}
}
