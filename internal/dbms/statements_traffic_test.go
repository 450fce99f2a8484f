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

// tpccStatements are the statement shapes TPC-C spends its host time in,
// with the allocations one execution cost at the commit before scans
// filtered at the tuple and sessions kept their statement scratch (parent,
// measured with this same harness) and the ceiling it is held to now (what
// that change measured). The two range statements — delivery's oldest
// new-order probe and stockLevel's join — had to halve; insert is only
// benchmarked.
var tpccStatements = []struct {
	name, text      string
	params          func(next int64) []storage.Value
	parent, ceiling float64
}{
	{"point_select", "SELECT c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3",
		func(int64) []storage.Value { return []storage.Value{iv(1), iv(3), iv(7)} }, 13, 8},
	{"point_update", "UPDATE district SET d_ytd = d_ytd + $1 WHERE d_w_id = $2 AND d_id = $3",
		func(int64) []storage.Value { return []storage.Value{storage.NewFloat(2.5), iv(1), iv(3)} }, 9, 4},
	{"range_filter", "SELECT no_o_id FROM new_order WHERE no_w_id = $1 AND no_d_id = $2 ORDER BY no_o_id LIMIT 1",
		func(int64) []storage.Value { return []storage.Value{iv(1), iv(3)} }, 29, 9},
	{"stock_level_join", "SELECT COUNT(*) FROM order_line ol JOIN stock s ON ol.ol_i_id = s.s_i_id " +
		"WHERE ol.ol_w_id = $1 AND ol.ol_d_id = $2 AND ol.ol_o_id >= $3 AND s.s_w_id = $4 AND s.s_quantity < $5",
		func(next int64) []storage.Value { return []storage.Value{iv(1), iv(3), iv(next - 20), iv(1), iv(15)} }, 482, 13},
	{"insert", "INSERT INTO history VALUES ($1, $2, $3, $4, 'payment')",
		func(int64) []storage.Value { return []storage.Value{iv(1), iv(3), iv(7), storage.NewFloat(2.5)} }, 7, 0},
}

func iv(v int64) storage.Value { return storage.NewInt(v) }

// tpccSession opens a session on an uninstrumented one-warehouse TPC-C
// server and warms it: 300 transactions of the standard mix, so the tables
// have grown past their initial population, every statement text is in the
// statement table and the session's scratch has met its largest scans. It
// returns the session and district (1, 3)'s next order id.
func tpccSession(tb testing.TB) (*dbms.Session, int64) {
	tb.Helper()
	srv, err := dbms.NewServer(dbms.Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	gen := &workload.TPCC{}
	if err := gen.Setup(srv); err != nil {
		tb.Fatal(err)
	}
	se := srv.NewSession()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		if _, err := gen.Txn(se, rng); err != nil {
			tb.Fatalf("warm-up txn %d: %v", i, err)
		}
	}
	res, err := se.Execute("SELECT d_next_o_id FROM district WHERE d_w_id = 1 AND d_id = 3")
	if err != nil {
		tb.Fatal(err)
	}
	return se, res.Rows[0][0].AsInt()
}

// TestStatementAllocations: first, the point lookup TATP spends most of
// its time on cost 56 allocations a call when every call re-parsed and
// re-planned it (measured on the commit before statements were prepared,
// with this same test body); at most half was that change's bar. Then the
// TPC-C shapes, each held to its ceiling in tpccStatements.
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

	se, next := tpccSession(t)
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	for _, c := range tpccStatements {
		if c.ceiling == 0 {
			continue
		}
		params := c.params(next)
		n := testing.AllocsPerRun(200, func() {
			if _, err := se.Statement(c.text, params...); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocations per Statement (parent %v, ceiling %v)", c.name, n, c.parent, c.ceiling)
		if n > c.ceiling {
			t.Errorf("%s: %v allocations per Statement, want at most %v (parent: %v)\n%s", c.name, n, c.ceiling, c.parent, c.text)
		}
	}
}

// BenchmarkStatement times one Statement of each TPC-C shape on the warmed
// session: the exec-layer number the ledger lacks (its dbms.execute_ns is
// a mix). go test -run xxx -bench Statement ./internal/dbms
func BenchmarkStatement(b *testing.B) {
	for _, c := range tpccStatements {
		c := c
		b.Run(c.name, func(b *testing.B) {
			se, next := tpccSession(b)
			params := c.params(next)
			if err := se.BeginTxn(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := se.Statement(c.text, params...); err != nil {
					b.Fatal(err)
				}
				// Keep a writing transaction's write set bounded.
				if i%256 == 255 {
					if _, err := se.Commit(); err != nil {
						b.Fatal(err)
					}
					if err := se.BeginTxn(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
