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
// the archive's growth: its versions come off the transaction manager's
// free lists, and the transaction, its write set, its results, its redo
// records, its WAL commit handle, its admission ticket, the drain's point
// and feature slices, the archive's block builders and the barrier and
// group-commit buffers are recycled (DESIGN.md §4, What a transaction
// allocates). The runs are counted on one P with the collector off, as
// testing.AllocsPerRun counts, so nothing else allocates beside them. It
// reads 0.0017 to 0.0037 (1 880 to 1 884 objects for 3 000 transactions,
// 1 887 to 1 891 for 6 000), and −0.0007 to 0.0090 under the race
// detector; 0.0070 to 0.0103 while the drain cut vectors from feature
// chunks the archive kept, when the bound was set at the highest reading
// then plus 15 %, rounded up. What still moves between runs is the growth
// of Go maps under their random hash seeds (two runs' memory profiles
// differ only at sites that fill maps). (Counted over 600 and 1 200
// transactions with the collector on, it read 0.02 to 0.053, mostly chunk
// and block growth steps and the collector's own allocations.)
//
// The whole 3 000-transaction run is bounded too: it holds the setup the
// difference cancels, the terminals among it. A terminal costs no heap
// object of its own: its PCG stream and math/rand's method set over it sit
// in the one terminals slice, and a barrier fires the terminal itself, not
// a closure bound to it. Ten readings were 1 010 to 1 015 objects, and ten
// under the race detector 1 069 to 1 083; the bound is the highest plus
// 15 %, rounded up. It read 1 610 to 1 614 while each terminal had a
// math/rand source, its *rand.Rand and a completion closure.
//
// Each test subtracts the counts as floats: what a transaction allocates is
// below the runs' spread, so the longer run may allocate fewer objects than
// the shorter one, and an unsigned difference would wrap.
func TestPooledTxnAllocations(t *testing.T) {
	const n, bound, runBound = 3000, 0.02, 1168
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
	if one > runBound {
		t.Errorf("a pooled SmallBank run of %d transactions allocates %d objects, want <= %d", n, one, runBound)
	}
	if per := (float64(two) - float64(one)) / n; per > bound {
		t.Errorf("a pooled SmallBank transaction allocates %.4f objects, want <= %v (%d for %d transactions, %d for %d)",
			per, bound, one, n, two, 2*n)
	} else {
		t.Logf("%.4f allocations per transaction (%d for %d transactions, %d for %d)", per, one, n, two, 2*n)
	}
}

// TestSingleClockTxnAllocations is TestPooledTxnAllocations on the
// single-clock driver, counted the same way: an instrumented TATP run,
// whose UpdateLocation and InsertCallForwarding texts each carry a string
// literal. Two thousand subscribers give four thousand such texts, more
// than the statement table keeps, so texts keep arriving new, as in the
// benchmark; a new text of a known template binds its literal in place and
// allocates nothing, and the generator builds every subscriber's texts in
// one string on first use. What remains per transaction is its inserted
// versions' share of their blocks and its share of the archive's growth.
// Ten readings were 0.0180 to 0.0200 (9 576 to 9 580 objects for 3 000
// transactions, 9 634 to 9 637 for 6 000), and thirty under the race
// detector 0.0180 to 0.0290; the bound is the highest plus 15 %, rounded
// up. (Over
// 1 500 and 3 000 transactions with the collector on and every P it read
// 2.74 while each subscriber's texts were built on their own and the drain
// cut vectors from chunks the archive kept.)
//
// The whole 3 000-transaction run is bounded too: it holds the setup the
// difference cancels, the first fill of the Collectors' rings and the
// terminals among it. A terminal's PCG stream and math/rand's method set
// over it sit in the one terminals slice. Ten readings were 1 314 objects,
// and five under the race detector 1 364 to 1 371; the bound is the
// highest plus 15 %, rounded up. It read 1 370 to 1 374 while each
// terminal was its own object with a *rand.Rand and a math/rand source,
// and 9 574 to 9 578 while each ring slot got its own buffer the first
// time it was filled.
func TestSingleClockTxnAllocations(t *testing.T) {
	const n, bound, runBound = 3000, 0.034, 1512
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
	if one > runBound {
		t.Errorf("a single-clock TATP run of %d transactions allocates %d objects, want <= %d", n, one, runBound)
	}
	if per := (float64(two) - float64(one)) / n; per > bound {
		t.Errorf("a single-clock TATP transaction allocates %.4f objects, want <= %v (%d for %d transactions, %d for %d)",
			per, bound, one, n, two, 2*n)
	} else {
		t.Logf("%.4f allocations per transaction (%d for %d transactions, %d for %d)", per, one, n, two, 2*n)
	}
}

// TestTPCCTxnAllocations is TestPooledTxnAllocations on an instrumented
// TPC-C run on the single-clock driver, at the ledger's four-warehouse
// scale, counted the same way. Most of what TPC-C allocates is what it
// stores: the versions of order lines, orders, history rows and new-order
// tombstones come off the transaction manager's free lists, which a block
// of versions refills, and its B+Tree indexes take one allocation a split.
// What remains per transaction is the share of those blocks and splits, of
// hash-index growth, of the cells a second write to a row clones, and of
// the archive's growth. Ten readings were 0.4120 to 0.4150 (3 777 to 3 783
// objects for 3 000 transactions, 5 018 to 5 022 for 6 000), and thirty
// under the race detector 0.4070 to 0.4213; the bound is the highest plus
// 15 %, rounded up. (Over 1 500 and 3 000 transactions with the collector on and
// every P it read 0.45, 1.02 while results and the drain's point slice
// were never reused, 7.64 with each version and each node's slices
// allocated on their own.)
func TestTPCCTxnAllocations(t *testing.T) {
	const n, bound = 3000, 0.49
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
	if per := (float64(two) - float64(one)) / n; per > bound {
		t.Errorf("a single-clock TPC-C transaction allocates %.4f objects, want <= %v (%d for %d transactions, %d for %d)",
			per, bound, one, n, two, 2*n)
	} else {
		t.Logf("%.4f allocations per transaction (%d for %d transactions, %d for %d)", per, one, n, two, 2*n)
	}
}
