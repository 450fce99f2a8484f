package workload

import (
	"testing"
	"unsafe"

	"tscout/internal/dbms"
	"tscout/internal/network"
	"tscout/internal/storage"
	"tscout/internal/tscout"
	"tscout/internal/wal"
)

func newServer(t *testing.T, instrument bool) *dbms.Server {
	t.Helper()
	srv, err := dbms.NewServer(dbms.Config{
		Seed:       7,
		Instrument: instrument,
		WAL:        wal.Config{GroupSize: 8, FlushIntervalNS: 100_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func runGen(t *testing.T, gen Generator, instrument bool, cfg Config) (Result, *dbms.Server) {
	t.Helper()
	srv := newServer(t, instrument)
	if err := gen.Setup(srv); err != nil {
		t.Fatalf("%s setup: %v", gen.Name(), err)
	}
	if instrument {
		srv.TS.Sampler().SetAllRates(100)
	}
	res, err := Run(srv, gen, cfg)
	if err != nil {
		t.Fatalf("%s run: %v", gen.Name(), err)
	}
	return res, srv
}

func TestYCSBRuns(t *testing.T) {
	res, _ := runGen(t, &YCSB{Records: 500}, false,
		Config{Terminals: 4, Transactions: 200, Seed: 1})
	if res.Completed != 200 || res.Aborted != 0 {
		t.Fatalf("ycsb: %+v", res)
	}
	if res.ThroughputTPS <= 0 || res.P99NS <= 0 || res.P50NS > res.P99NS {
		t.Fatalf("metrics: %+v", res)
	}
}

func TestSmallBankRuns(t *testing.T) {
	res, srv := runGen(t, &SmallBank{Customers: 200}, false,
		Config{Terminals: 4, Transactions: 300, Seed: 2})
	if res.Completed+res.Aborted != 300 {
		t.Fatalf("smallbank: %+v", res)
	}
	if res.Completed < 250 {
		t.Fatalf("too many aborts: %+v", res)
	}
	// Writes must have flushed through the WAL.
	flushes, recs, _ := srv.WAL.Stats()
	if flushes == 0 || recs == 0 {
		t.Fatalf("WAL unused: %d %d", flushes, recs)
	}
}

func TestTATPRuns(t *testing.T) {
	res, _ := runGen(t, &TATP{Subscribers: 300}, false,
		Config{Terminals: 4, Transactions: 300, Seed: 3})
	if res.Completed+res.Aborted != 300 || res.Completed < 200 {
		t.Fatalf("tatp: %+v", res)
	}
}

// TestTATPTextsAreTheirParts holds the texts TATP slices from one string
// to the ones it would build subscriber by subscriber, across the widths
// of a number (3-digit ids pad to 15 bytes, 13-digit ones do not).
func TestTATPTextsAreTheirParts(t *testing.T) {
	gen := &TATP{Subscribers: 1200}
	for _, sid := range []int64{0, 9, 10, 99, 100, 1199} {
		st := gen.textsOf(sid)
		lit := network.QuoteString(subNbr(sid))
		if st.nbr != subNbr(sid) ||
			st.updateLocation != "UPDATE subscriber SET vlr_location = $1 WHERE sub_nbr = "+lit ||
			st.selectByNbr != "SELECT s_id FROM subscriber WHERE sub_nbr = "+lit {
			t.Fatalf("subscriber %d: texts %+v", sid, *st)
		}
	}
	for _, sid := range []int64{0, 7, 999_999_999_999, 1_000_000_000_000} {
		if got, want := nbrLen(sid), len(subNbr(sid)); got != want {
			t.Fatalf("nbrLen(%d) = %d, want %d", sid, got, want)
		}
	}
}

func TestTPCCRuns(t *testing.T) {
	gen := &TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
	res, srv := runGen(t, gen, false, Config{Terminals: 4, Transactions: 200, Seed: 4})
	if res.Completed+res.Aborted != 200 {
		t.Fatalf("tpcc: %+v", res)
	}
	if res.Completed < 100 {
		t.Fatalf("too many aborts: %+v", res)
	}
	// NewOrder must be advancing order ids.
	se := srv.NewSession()
	r, err := se.Execute("SELECT MAX(d_next_o_id) FROM district")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].AsInt() <= 11 {
		t.Fatalf("d_next_o_id never advanced: %+v", r.Rows)
	}
}

func TestCHBenchRuns(t *testing.T) {
	gen := &CHBench{TPCC: TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}}
	res, _ := runGen(t, gen, false, Config{Terminals: 4, Transactions: 120, Seed: 5})
	if res.Completed+res.Aborted != 120 || res.Completed < 60 {
		t.Fatalf("chbench: %+v", res)
	}
}

func TestInstrumentedRunGeneratesTrainingData(t *testing.T) {
	gen := &TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
	res, srv := runGen(t, gen, true, Config{Terminals: 4, Transactions: 150, Seed: 6})
	if res.TrainingPoints == 0 || res.SamplesPerSec <= 0 {
		t.Fatalf("no training data: %+v", res)
	}
	st := srv.TS.Processor().Stats()
	for _, sub := range tscout.AllSubsystems {
		if st.Kernel[sub].Points == 0 {
			t.Fatalf("subsystem %v has no data: %+v", sub, st.Kernel)
		}
	}
	// The marker state machine must stay clean across a full benchmark.
	for _, sub := range tscout.AllSubsystems {
		if col := srv.TS.CollectorFor(sub); col != nil && col.ErrorCount() != 0 {
			t.Fatalf("collector errors in %v: %d", sub, col.ErrorCount())
		}
	}
}

func TestSamplingRateReducesOverheadAndData(t *testing.T) {
	run := func(rate int) (Result, *dbms.Server) {
		srv := newServer(t, true)
		gen := &YCSB{Records: 500}
		if err := gen.Setup(srv); err != nil {
			t.Fatal(err)
		}
		srv.TS.Sampler().SetAllRates(rate)
		res, err := Run(srv, gen, Config{Terminals: 4, Transactions: 400, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return res, srv
	}
	full, _ := run(100)
	tenth, _ := run(10)
	zero, _ := run(0)
	if full.TrainingPoints <= tenth.TrainingPoints || tenth.TrainingPoints <= zero.TrainingPoints {
		t.Fatalf("data volume must track the rate: %d / %d / %d",
			full.TrainingPoints, tenth.TrainingPoints, zero.TrainingPoints)
	}
	if zero.TrainingPoints != 0 {
		t.Fatalf("0%% must collect nothing: %d", zero.TrainingPoints)
	}
	if !(zero.ThroughputTPS > tenth.ThroughputTPS && tenth.ThroughputTPS > full.ThroughputTPS) {
		t.Fatalf("throughput must fall with rate: %.0f / %.0f / %.0f",
			zero.ThroughputTPS, tenth.ThroughputTPS, full.ThroughputTPS)
	}
}

func TestMoreTerminalsMoreContention(t *testing.T) {
	lat := func(terms int) int64 {
		gen := &TPCC{Warehouses: 1, CustomersPerDistrict: 10, Items: 100, InitialOrdersPerDistrict: 10}
		res, _ := runGen(t, gen, false, Config{Terminals: terms, Transactions: 200, Seed: 11})
		return res.MeanNS
	}
	one := lat(1)
	twenty := lat(20)
	if twenty <= one {
		t.Fatalf("20 terminals must see higher latency than 1: %d vs %d", twenty, one)
	}
}

func TestDriverDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Terminals != 1 || cfg.Transactions != 1000 || cfg.ProcessorPollNS != 100_000 {
		t.Fatalf("defaults: %+v", cfg)
	}
}

// reachableVersions counts every version a reader could still be handed:
// each table's slots plus whatever hangs below their heads.
func reachableVersions(t *testing.T, srv *dbms.Server) (slots, versions int) {
	t.Helper()
	for _, name := range srv.Catalog.TableNames() {
		tbl, err := srv.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		tbl.Heap.ScanSlots(func(_ storage.TupleID, head *storage.Version) bool {
			slots++
			for v := head; v != nil; v = v.Next {
				versions++
			}
			return true
		})
	}
	return slots, versions
}

// TestSmallBankSoakHoldsVersionsFlat is the bounded-memory statement at a
// size tier-1 can afford: SmallBank only updates, so after any number of
// transactions on one server the version store must hold what it held after
// the first quarter — one version a slot once nothing is running — however
// many versions have been written since. Without reclamation the count grows
// by about 1.4 versions a transaction.
func TestSmallBankSoakHoldsVersionsFlat(t *testing.T) {
	srv := newServer(t, false)
	gen := &SmallBank{Customers: 500}
	if err := gen.Setup(srv); err != nil {
		t.Fatal(err)
	}
	slots, loaded := reachableVersions(t, srv)
	if slots != 3*500 || loaded != slots {
		t.Fatalf("load: %d versions in %d slots", loaded, slots)
	}
	for quarter := 1; quarter <= 4; quarter++ {
		res, err := Run(srv, gen, Config{Terminals: 8, Transactions: 10_000, Seed: int64(quarter)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed+res.Aborted != 10_000 {
			t.Fatalf("quarter %d: %+v", quarter, res)
		}
		if gotSlots, got := reachableVersions(t, srv); gotSlots != slots || got != loaded {
			t.Fatalf("after %d transactions: %d versions in %d slots, loaded %d in %d",
				quarter*10_000, got, gotSlots, loaded, slots)
		}
	}
}

// TestEveryTableStoresItsRowsPacked: a stored version of every table a
// generator creates holds its cells in the same allocation as its header,
// right after it (storage.NewVersion packs rows up to the widest of these
// tables, YCSB's 11-column usertable), and so does a loaded row.
func TestEveryTableStoresItsRowsPacked(t *testing.T) {
	packed := func(v *storage.Version) bool {
		return unsafe.Pointer(&v.Values[0]) == unsafe.Add(unsafe.Pointer(v), unsafe.Sizeof(storage.Version{}))
	}
	for _, gen := range []Generator{&TPCC{}, &SmallBank{}, &YCSB{}, &CHBench{}, &TATP{}} {
		srv := newServer(t, false)
		if err := gen.Setup(srv); err != nil {
			t.Fatalf("%s setup: %v", gen.Name(), err)
		}
		for _, name := range srv.Catalog.TableNames() {
			tbl, err := srv.Catalog.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.Heap == nil {
				continue // a virtual table stores nothing
			}
			width := tbl.Heap.Schema().NumColumns()
			if !packed(storage.NewVersion(make(storage.Row, width))) {
				t.Errorf("%s.%s: a %d-column version takes two allocations", gen.Name(), name, width)
			}
			if v := tbl.Heap.Head(0); v != nil && !packed(v) {
				t.Errorf("%s.%s: a loaded row is not packed with its version", gen.Name(), name)
			}
		}
	}
}
