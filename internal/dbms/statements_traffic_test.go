package dbms_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"tscout/internal/dbms"
	"tscout/internal/network"
	"tscout/internal/storage"
	"tscout/internal/workload"
)

// TestStatementTableTraffic pins what the statement table is for: the
// benchmark generators send a few dozen templates over and over, so nearly
// every statement is served without a parse. TATP's UpdateLocation and
// InsertCallForwarding inline sub_nbr as a string literal, so each of their
// thousands of texts is looked up by one of two templates; TATP runs ten
// times longer here, and the table, which enters only the templates, is
// never full and never dropped (it was twice while it kept every text). The
// floor is what a future hot statement that inlines a number, which stays a
// literal of its own text, would fall through.
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
		{&workload.TATP{}, 20000, 0.99},
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
			t.Logf("%d statements, %d parsed, hit ratio %.4f, %d resets, table holds %d",
				hits+misses, misses, ratio, resets, size)
			if ratio < c.minRatio {
				t.Errorf("hit ratio %.4f, want at least %.2f", ratio, c.minRatio)
			}
			if resets != 0 {
				t.Errorf("the table was dropped %d times", resets)
			}
			if size > dbms.MaxCachedStatements {
				t.Errorf("table holds %d entries, bound %d", size, dbms.MaxCachedStatements)
			}
		})
	}
}

// statementShapes are the statement shapes TPC-C and TATP spend their host
// time in, each run on a warmed session of its own workload (tatp picks
// TATP's), with the allocations one execution cost before a change
// (parent, measured with this same harness) and the ceiling each is held
// to now. For the first five the change is the one that cut results from
// the engine's chunks, kept parameters off the heap and counted COUNT(*)
// joins instead of building them; for the rest, the one that bound string
// literals as template parameters. Only an UPDATE's new version is left,
// which the table stores; an INSERT's is its share of a block of versions,
// under one a statement. A row with a string literal in its text is held
// to its $n form's ceiling: the text binds its literal as a parameter of
// the same template, and binding it allocates nothing. Each ceiling is its
// reading since results became session scratch.
var statementShapes = []struct {
	name, text      string
	tatp            bool
	params          func(next int64) []storage.Value
	parent, ceiling float64
}{
	{"point_select", pointSelect, false,
		func(int64) []storage.Value { return []storage.Value{iv(1), iv(3), iv(7)} }, 4, 0},
	{"point_update", "UPDATE district SET d_ytd = d_ytd + $1 WHERE d_w_id = $2 AND d_id = $3", false,
		func(int64) []storage.Value { return []storage.Value{storage.NewFloat(2.5), iv(1), iv(3)} }, 2, 1},
	{"range_filter", "SELECT no_o_id FROM new_order WHERE no_w_id = $1 AND no_d_id = $2 ORDER BY no_o_id LIMIT 1", false,
		func(int64) []storage.Value { return []storage.Value{iv(1), iv(3)} }, 7, 0},
	{"stock_level_join", stockLevelJoin, false,
		func(next int64) []storage.Value { return stockLevelParams(next, 20) }, 11, 0},
	{"insert", historyInsert + "'payment')", false,
		func(int64) []storage.Value { return []storage.Value{iv(1), iv(3), iv(7), storage.NewFloat(2.5)} }, 3, 0},
	{"insert_params", historyInsert + "$5)", false,
		func(int64) []storage.Value {
			return []storage.Value{iv(1), iv(3), iv(7), storage.NewFloat(2.5), storage.NewString("payment")}
		}, 1, 0},
	{"payment_by_name", paymentByName + "'name3'", false,
		func(int64) []storage.Value { return []storage.Value{iv(1), iv(3)} }, 0, 0},
	{"payment_by_name_params", paymentByName + "$3", false,
		func(int64) []storage.Value { return []storage.Value{iv(1), iv(3), storage.NewString("name3")} }, 0, 0},
	{"update_location", updateLocation + "'nbr17xxxxxxxxxx'", true,
		func(int64) []storage.Value { return []storage.Value{iv(5)} }, 1, 1},
	{"update_location_params", updateLocation + "$2", true,
		func(int64) []storage.Value { return []storage.Value{iv(5), storage.NewString("nbr17xxxxxxxxxx")} }, 1, 1},
}

const (
	pointSelect    = "SELECT c_balance FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_id = $3"
	historyInsert  = "INSERT INTO history VALUES ($1, $2, $3, $4, "
	paymentByName  = "SELECT c_id FROM customer WHERE c_w_id = $1 AND c_d_id = $2 AND c_last = "
	updateLocation = "UPDATE subscriber SET vlr_location = $1 WHERE sub_nbr = "
	stockLevelJoin = "SELECT COUNT(*) FROM order_line ol JOIN stock s ON ol.ol_i_id = s.s_i_id " +
		"WHERE ol.ol_w_id = $1 AND ol.ol_d_id = $2 AND ol.ol_o_id >= $3 AND s.s_w_id = $4 AND s.s_quantity < $5"
)

// stockLevelParams binds stockLevelJoin to district (1, 3)'s last window
// orders, whose next order id is next.
func stockLevelParams(next, window int64) []storage.Value {
	return []storage.Value{iv(1), iv(3), iv(next - window), iv(1), iv(15)}
}

func iv(v int64) storage.Value { return storage.NewInt(v) }

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// tpccSession opens a session on an uninstrumented one-warehouse TPC-C
// server with orders initial orders per district (0: the generator's 30)
// and warms it: 300 transactions of the standard mix, so the tables have
// grown past their initial population, every statement text is in the
// statement table and the session's scratch has met its largest scans. It
// returns the session and district (1, 3)'s next order id.
func tpccSession(tb testing.TB, orders int) (*dbms.Session, int64) {
	tb.Helper()
	srv, err := dbms.NewServer(dbms.Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	gen := &workload.TPCC{InitialOrdersPerDistrict: orders}
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

// tatpSession opens a session on an uninstrumented TATP server with the
// given number of subscribers and warms it with 300 transactions of the
// standard mix. It returns the session and its server.
func tatpSession(tb testing.TB, subscribers int) (*dbms.Session, *dbms.Server) {
	tb.Helper()
	srv, err := dbms.NewServer(dbms.Config{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	gen := &workload.TATP{Subscribers: subscribers}
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
	return se, srv
}

// TestStatementAllocations: first, the point lookup TATP spends most of
// its time on cost 56 allocations a call when every call re-parsed and
// re-planned it (measured on the commit before statements were prepared,
// with this same test body); at most half was that change's bar. Then the
// shapes, each held to its ceiling in statementShapes.
func TestStatementAllocations(t *testing.T) {
	const before = 56
	tatp, _ := tatpSession(t, 500)
	if err := tatp.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	id := storage.NewInt(17)
	n := testing.AllocsPerRun(200, func() {
		if _, err := tatp.Statement("SELECT * FROM subscriber WHERE s_id = $1", id); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per Statement (%d before)", n, before)
	if n > before/2 {
		t.Errorf("%v allocations per Statement, want at most %d", n, before/2)
	}

	tpcc, next := tpccSession(t, 0)
	if err := tpcc.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	for _, c := range statementShapes {
		se := tpcc
		if c.tatp {
			se = tatp
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

	// UpdateLocation over every subscriber's text, as TATP sends it: 2 000
	// texts, more than the statement table holds, each new to it and all of
	// one cached template. A text binds its literal in place and is not
	// entered, so the table is never dropped, and a statement allocates
	// nothing but its share of the versions' blocks (commits every 100
	// statements keep the write set as short as a TATP transaction's is).
	const subscribers, versionShare = 2000, 0.05
	full, srv := tatpSession(t, subscribers)
	texts := make([]string, subscribers)
	for sid := range texts {
		nbr := fmt.Sprint("nbr", sid)
		texts[sid] = updateLocation + network.QuoteString(nbr+strings.Repeat("x", 15-len(nbr)))
	}
	_, _, resets0, _ := srv.StatementTraffic()
	var start, end runtime.MemStats
	runtime.ReadMemStats(&start)
	for i, text := range texts {
		if i%100 == 0 {
			if err := full.BeginTxn(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := full.Statement(text, iv(int64(i)))
		if err != nil || res.Affected != 1 {
			t.Fatalf("%s: %v, %v", text, res, err)
		}
		if i%100 == 99 {
			if _, err := full.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.ReadMemStats(&end)
	per := float64(end.Mallocs-start.Mallocs) / subscribers
	_, _, resets, size := srv.StatementTraffic()
	t.Logf("update_location over %d texts: %.3f allocations per Statement, %d resets, table holds %d", subscribers, per, resets-resets0, size)
	if per > versionShare || resets != resets0 {
		t.Errorf("update_location over %d texts: %.3f allocations per Statement (want at most %v) and %d resets (want 0)",
			subscribers, per, versionShare, resets-resets0)
	}

	// Literal variadic arguments: Statement hands the engine a copy of
	// params, so the array the call site builds stays on its stack.
	n = testing.AllocsPerRun(200, func() {
		if _, err := tpcc.Statement(pointSelect, iv(1), iv(3), iv(7)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("point_select with literal arguments: %v allocations per Statement", n)
	if n != 0 {
		t.Errorf("point_select with literal arguments: %v allocations per Statement, want 0", n)
	}

	// stockLevel's join only counts, so its bytes do not grow with the
	// pairs it matches: ten times the window, the same few bytes a call at
	// most — its result is the session's reused scratch. Building the joined rows
	// cost 7 096 B a call over 20 orders and 49 464 B over 200. The
	// districts start with 300 orders here, so that both windows are full.
	const maxJoinBytes = 256
	se, next := tpccSession(t, 300)
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	var matched [2]int64
	var bytes [2]float64
	for i, window := range []int64{20, 200} {
		params := stockLevelParams(next, window)
		bytes[i] = bytesPerRun(200, func() {
			res, err := se.Statement(stockLevelJoin, params...)
			if err != nil {
				t.Fatal(err)
			}
			matched[i] = res.Rows[0][0].AsInt()
		})
		t.Logf("stock_level_join over the last %d orders: %d pairs, %.0f B per Statement", window, matched[i], bytes[i])
		if bytes[i] > maxJoinBytes {
			t.Errorf("stock_level_join over the last %d orders: %.0f B per Statement, want at most %d", window, bytes[i], maxJoinBytes)
		}
	}
	if matched[1] < 5*matched[0] {
		t.Errorf("the 200-order window matched %d pairs, the 20-order one %d: want several times as many", matched[1], matched[0])
	}
	if bytes[1] > bytes[0]+64 {
		t.Errorf("stock_level_join's bytes grew with its window: %.0f B, then %.0f B per Statement", bytes[0], bytes[1])
	}
}

// BenchmarkStatement times one Statement of each shape on its warmed
// session: the exec-layer number the ledger lacks (its dbms.execute_ns is
// a mix). go test -run xxx -bench Statement ./internal/dbms
func BenchmarkStatement(b *testing.B) {
	for _, c := range statementShapes {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var se *dbms.Session
			var next int64
			if c.tatp {
				se, _ = tatpSession(b, 500)
			} else {
				se, next = tpccSession(b, 0)
			}
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
