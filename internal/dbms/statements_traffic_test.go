package dbms_test

import (
	"math/rand"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/storage"
	"tscout/internal/workload"
)

// TestStatementTableTraffic pins what the statement table is for: the
// benchmark generators send a few dozen $n templates over and over, so
// nearly every statement is a hit. TATP is the exception by design — its
// UpdateLocation and InsertCallForwarding inline sub_nbr into the text —
// and it runs ten times longer here so that the table fills and is dropped
// (twice) and the ratio is the steady one, 0.88, not the 0.85–0.87 that
// first sight of each text leaves after 2 000 transactions. The other
// four's floor is what a future literal-inlined hot statement would fall
// through.
func TestStatementTableTraffic(t *testing.T) {
	for _, c := range []struct {
		gen      workload.Generator
		txns     int
		minRatio float64
	}{
		{&workload.TPCC{}, 2000, 0.99},
		{&workload.SmallBank{}, 2000, 0.99},
		{&workload.YCSB{}, 2000, 0.99},
		{&workload.CHBench{}, 2000, 0.99},
		{&workload.TATP{}, 20000, 0.85},
	} {
		c := c
		t.Run(c.gen.Name(), func(t *testing.T) {
			srv, err := dbms.NewServer(dbms.Config{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.gen.Setup(srv); err != nil {
				t.Fatal(err)
			}
			h0, m0, _, _ := srv.StatementTraffic()
			se := srv.NewSession()
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < c.txns; i++ {
				if _, err := c.gen.Txn(se, rng); err != nil && !dbms.IsConflict(err) {
					t.Fatalf("txn %d: %v", i, err)
				}
			}
			h1, m1, resets, size := srv.StatementTraffic()
			hits, misses := h1-h0, m1-m0
			ratio := float64(hits) / float64(hits+misses)
			t.Logf("%d statements, %d distinct texts parsed, hit ratio %.4f, %d resets, table holds %d",
				hits+misses, misses, ratio, resets, size)
			if ratio < c.minRatio {
				t.Errorf("hit ratio %.4f, want at least %.2f", ratio, c.minRatio)
			}
			if size > dbms.MaxCachedStatements {
				t.Errorf("table holds %d entries, bound %d", size, dbms.MaxCachedStatements)
			}
		})
	}
}

// TestStatementAllocations: the point lookup TATP spends most of its time
// on cost 56 allocations a call when every call re-parsed and re-planned
// it (measured on the commit before statements were prepared, with this
// same test body); 12 now. At most half is the bar.
func TestStatementAllocations(t *testing.T) {
	const before = 56
	srv, err := dbms.NewServer(dbms.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&workload.TATP{Subscribers: 500}).Setup(srv); err != nil {
		t.Fatal(err)
	}
	se := srv.NewSession()
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	id := storage.NewInt(17)
	n := testing.AllocsPerRun(200, func() {
		if _, err := se.Statement("SELECT * FROM subscriber WHERE s_id = $1", id); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per Statement (%d before)", n, before)
	if n > before/2 {
		t.Errorf("%v allocations per Statement, want at most %d", n, before/2)
	}
}
