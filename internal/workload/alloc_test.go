package workload

import (
	"runtime"
	"runtime/debug"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/wal"
)

// TestPooledTxnAllocations bounds what one more transaction costs the host
// heap on an instrumented pooled SmallBank run: the allocations of a run of
// 2N transactions less those of a run of N, per transaction. Setup, the
// terminals, the sessions and the first-use growth of rings and scratch are
// the same in both runs and cancel. What remains is a transaction's share of
// the drain's feature chunks and the archive's blocks: its versions come
// off the transaction manager's free lists, and the transaction, its write
// set, its results, its redo records, its WAL commit handle, its admission
// ticket, the drain's point slice and the barrier and group-commit buffers
// are recycled (DESIGN.md §4, What a transaction allocates). The runs are
// counted on one P with the collector off, as testing.AllocsPerRun counts,
// so nothing else allocates beside them. It reads 0.0070 to 0.0103 (1 999
// to 2 005 objects for 3 000 transactions, 2 026 to 2 030 for 6 000), and
// 0.0060 to 0.0163 under the race detector (2 053 to 2 072, 2 088 to
// 2 103): what still moves between runs is the growth of Go maps under
// their random hash seeds (two runs' memory profiles differ only at sites
// that fill maps). The bound is the highest reading plus 15 %, rounded up.
// (Counted over 600 and 1 200 transactions with the collector on, it read
// 0.02 to 0.053, mostly chunk and block growth steps and the collector's
// own allocations.)
func TestPooledTxnAllocations(t *testing.T) {
	const n, bound = 3000, 0.02
	mallocs := func(txns int) uint64 {
		arch := newTestArchive(0)
		srv, gen := scaleServer(t, dbms.Config{
			Seed: 21, NoiseSigma: 0.03, Instrument: true,
			NumCPUs: 4, ProcessorParallelism: 2, Sink: arch.w,
			WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 25_000},
		}, 200)
		cfg := Config{Terminals: 200, Transactions: txns, Seed: 21, PoolSessions: 16}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection cycle allocates
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(srv, gen, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed+res.Aborted != txns {
			t.Fatalf("ran %d transactions, want %d", res.Completed+res.Aborted, txns)
		}
		return after.Mallocs - before.Mallocs
	}
	one, two := mallocs(n), mallocs(2*n)
	if per := float64(two-one) / n; per > bound {
		t.Errorf("a pooled SmallBank transaction allocates %.4f objects, want <= %v (%d for %d transactions, %d for %d)",
			per, bound, one, n, two, 2*n)
	} else {
		t.Logf("%.4f allocations per transaction (%d for %d transactions, %d for %d)", per, one, n, two, 2*n)
	}
}

// TestSingleClockTxnAllocations is TestPooledTxnAllocations on the
// single-clock driver: an instrumented TATP run, whose UpdateLocation and
// InsertCallForwarding texts each carry a string literal. Two thousand
// subscribers give four thousand such texts, more than the statement table
// keeps, so texts keep arriving new, as in the benchmark; a new text of a
// known template binds its literal in place and allocates nothing. What
// remains per transaction is its inserted versions' share of their blocks,
// the texts the generator builds on a subscriber's first use, and its share
// of the drain's feature chunks and the archive's blocks. It reads 2.74
// (3.07 while a new text copied its literal into a slice of its own and
// results and the drain's point slice were never reused); the bound is
// that plus 15 %.
func TestSingleClockTxnAllocations(t *testing.T) {
	const n, bound = 1500, 3.15
	mallocs := func(txns int) uint64 {
		arch := newTestArchive(0)
		srv, err := dbms.NewServer(dbms.Config{
			Seed: 21, NoiseSigma: 0.03, Instrument: true, Sink: arch.w,
			WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 200_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := &TATP{Subscribers: 2000}
		if err := gen.Setup(srv); err != nil {
			t.Fatal(err)
		}
		srv.TS.Sampler().SetAllRates(100)
		cfg := Config{Terminals: 20, Transactions: txns, Seed: 21}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(srv, gen, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed+res.Aborted != txns {
			t.Fatalf("ran %d transactions, want %d", res.Completed+res.Aborted, txns)
		}
		return after.Mallocs - before.Mallocs
	}
	one, two := mallocs(n), mallocs(2*n)
	if per := float64(two-one) / n; per > bound {
		t.Errorf("a single-clock TATP transaction allocates %.2f objects, want <= %v (%d for %d transactions, %d for %d)",
			per, bound, one, n, two, 2*n)
	} else {
		t.Logf("%.2f allocations per transaction", per)
	}
}

// TestTPCCTxnAllocations is TestPooledTxnAllocations on an instrumented
// TPC-C run on the single-clock driver, at the ledger's four-warehouse
// scale. Most of what TPC-C allocates is what it stores: the versions of
// order lines, orders, history rows and new-order tombstones come off the
// transaction manager's free lists, which a block of versions refills, and
// its B+Tree indexes take one allocation a split. What remains per
// transaction is the share of those blocks and splits, of hash-index
// growth, of the cells a second write to a row clones, and of the drain's
// feature chunks and the archive's blocks. It reads 0.45 (1.02 while
// results and the drain's point slice were never reused, 7.64 with each
// version and each node's slices allocated on their own); the bound is
// that plus 15 %.
func TestTPCCTxnAllocations(t *testing.T) {
	const n, bound = 1500, 0.52
	mallocs := func(txns int) uint64 {
		arch := newTestArchive(0)
		srv, err := dbms.NewServer(dbms.Config{
			Seed: 21, NoiseSigma: 0.03, Instrument: true, Sink: arch.w,
			WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 200_000},
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := &TPCC{Warehouses: 4, CustomersPerDistrict: 20, Items: 200, InitialOrdersPerDistrict: 20}
		if err := gen.Setup(srv); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Terminals: 20, Transactions: txns, Seed: 21}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(srv, gen, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed+res.Aborted != txns {
			t.Fatalf("ran %d transactions, want %d", res.Completed+res.Aborted, txns)
		}
		return after.Mallocs - before.Mallocs
	}
	one, two := mallocs(n), mallocs(2*n)
	if per := float64(two-one) / n; per > bound {
		t.Errorf("a single-clock TPC-C transaction allocates %.2f objects, want <= %v (%d for %d transactions, %d for %d)",
			per, bound, one, n, two, 2*n)
	} else {
		t.Logf("%.2f allocations per transaction", per)
	}
}
