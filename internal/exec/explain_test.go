package exec

import (
	"strings"
	"testing"
)

func planText(t *testing.T, db *testDB, q string) string {
	t.Helper()
	res := db.run(t, q)
	if len(res.Cols) != 1 || res.Cols[0] != "QUERY PLAN" {
		t.Fatalf("explain output shape: %+v", res.Cols)
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].Str())
		sb.WriteString("\n")
	}
	return sb.String()
}

func TestExplainAccessPaths(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 30)

	if p := planText(t, db, "EXPLAIN SELECT * FROM accounts WHERE id = 5"); !strings.Contains(p, "Index Scan using accounts_pk") {
		t.Fatalf("point query plan:\n%s", p)
	}
	if p := planText(t, db, "EXPLAIN SELECT * FROM accounts WHERE balance > 100"); !strings.Contains(p, "Seq Scan on accounts") {
		t.Fatalf("range query plan:\n%s", p)
	}
	p := planText(t, db, `EXPLAIN SELECT a.id, b.total FROM accounts a
		JOIN branches b ON a.branch = b.id WHERE a.id = 1`)
	if !strings.Contains(p, "Hash Join") || !strings.Contains(p, "Seq Scan on branches") {
		t.Fatalf("join plan:\n%s", p)
	}
	p = planText(t, db, "EXPLAIN SELECT branch, COUNT(*) FROM accounts GROUP BY branch ORDER BY branch LIMIT 3")
	for _, want := range []string{"Aggregate", "Sort", "Limit 3"} {
		if !strings.Contains(p, want) {
			t.Fatalf("missing %q in:\n%s", want, p)
		}
	}
}

func TestExplainDML(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 10)
	if p := planText(t, db, "EXPLAIN UPDATE accounts SET balance = 0 WHERE id = 1"); !strings.Contains(p, "Update accounts") {
		t.Fatalf("update plan:\n%s", p)
	}
	if p := planText(t, db, "EXPLAIN DELETE FROM accounts WHERE id = 1"); !strings.Contains(p, "Delete from accounts") {
		t.Fatalf("delete plan:\n%s", p)
	}
	if p := planText(t, db, "EXPLAIN INSERT INTO accounts VALUES (99, 1, 1.0, 'x')"); !strings.Contains(p, "Insert into accounts (1 rows)") {
		t.Fatalf("insert plan:\n%s", p)
	}
	// Plain EXPLAIN must not execute.
	if res := db.run(t, "SELECT COUNT(*) FROM accounts"); res.Rows[0][0].AsInt() != 10 {
		t.Fatalf("EXPLAIN must not execute DML")
	}
}

func TestExplainAnalyze(t *testing.T) {
	db := newTestDB(t, false)
	db.seed(t, 25)
	p := planText(t, db, "EXPLAIN ANALYZE SELECT * FROM accounts WHERE branch = 2")
	if !strings.Contains(p, "Actual rows: 5") {
		t.Fatalf("actual rows missing:\n%s", p)
	}
	if !strings.Contains(p, "Execution time:") {
		t.Fatalf("execution time missing:\n%s", p)
	}
	// EXPLAIN ANALYZE executes: DML takes effect (like PostgreSQL).
	planText(t, db, "EXPLAIN ANALYZE UPDATE accounts SET balance = 0 WHERE id = 3")
	if res := db.run(t, "SELECT balance FROM accounts WHERE id = 3"); res.Rows[0][0].AsFloat() != 0 {
		t.Fatalf("EXPLAIN ANALYZE must execute: %+v", res.Rows)
	}
}

func TestExplainCostsTime(t *testing.T) {
	// §2.2: external feature collection re-plans and (with ANALYZE)
	// re-executes — it must cost more than the query alone.
	db := newTestDB(t, false)
	db.seed(t, 50)
	cost := func(q string) int64 {
		before := db.task.Now()
		db.run(t, q)
		return db.task.Now() - before
	}
	plain := cost("SELECT * FROM accounts WHERE branch = 1")
	withExplain := cost("EXPLAIN ANALYZE SELECT * FROM accounts WHERE branch = 1")
	if withExplain <= plain {
		t.Fatalf("EXPLAIN ANALYZE must cost more than the bare query: %d vs %d", withExplain, plain)
	}
}

func TestExplainErrors(t *testing.T) {
	db := newTestDB(t, false)
	if _, err := db.tryRun("EXPLAIN SELECT * FROM nosuch"); err == nil {
		t.Fatalf("unknown table must fail")
	}
	if _, err := db.tryRun("EXPLAIN"); err == nil {
		t.Fatalf("bare explain must fail")
	}
}

// TestExplainRangeBounds pins the line of each kind of prefix range on
// items_grp (grp, sub; 24 bits each): the bounds that narrowed it and its
// keys, or "prefix range" when nothing did.
func TestExplainRangeBounds(t *testing.T) {
	db := newDiffDB(t, false)
	const scan = "Index Range Scan using items_grp on items "
	for _, c := range []struct{ where, want string }{
		{"grp = 2", "(prefix range: keys 33554432..50331647)"},
		{"grp = 2 AND sub > 2", "(sub > 2: keys 33554435..50331647)"},
		{"sub <= 1 AND grp = 2", "(sub <= 1: keys 33554432..33554433)"},
		{"grp = 2 AND sub >= 1 AND sub < 3 AND sub > 0", "(sub >= 1 AND sub < 3: keys 33554433..33554434)"},
		{"grp = 2 AND sub > 9223372036854775807", "(sub > 9223372036854775807: no keys)"},
		{"grp = 2 AND sub >= 2.5", "(prefix range: keys 33554432..50331647)"},
	} {
		if p := planText(t, db, "EXPLAIN SELECT id FROM items WHERE "+c.where); p != scan+c.want+"\n" {
			t.Errorf("%s:\n%s", c.where, p)
		}
	}
}

// TestExplainDeepestPrefix pins the tie-break between prefix ranges: of two
// indexes whose equalities both cover a leading prefix, the one covering
// more key columns serves the range, and at equal depth the first does.
// TPC-C's orders table carries orders_pk (w, d, o) and orders_cust
// (w, d, c, o), declared here as workload/tpcc.go declares them, so
// Order-Status walks one customer's orders rather than the district's.
func TestExplainDeepestPrefix(t *testing.T) {
	db := newEmptyTestDB(t, false)
	db.run(t, "CREATE TABLE orders (o_w_id INT, o_d_id INT, o_id INT, o_c_id INT, o_carrier_id INT, o_ol_cnt INT)")
	for _, ix := range []struct {
		name string
		cols []string
		bits []uint
	}{
		{"orders_pk", []string{"o_w_id", "o_d_id", "o_id"}, []uint{9, 5, 26}},
		{"orders_cust", []string{"o_w_id", "o_d_id", "o_c_id", "o_id"}, []uint{9, 5, 16, 26}},
	} {
		if _, err := db.cat.CreateBTreeIndex(ix.name, "orders", ix.cols, ix.bits, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ where, want string }{
		// Order-Status.
		{"o_w_id = 1 AND o_d_id = 2 AND o_c_id = 3 ORDER BY o_id DESC LIMIT 1", "orders_cust"},
		{"o_c_id = 3 AND o_d_id = 2 AND o_w_id = 1", "orders_cust"},
		{"o_w_id = 1 AND o_d_id = 2", "orders_pk"},
		{"o_w_id = 1 AND o_d_id = 2 AND o_id > 5", "orders_pk"},
		{"o_w_id = 1 AND o_c_id = 3", "orders_pk"},
	} {
		if p := planText(t, db, "EXPLAIN SELECT o_id FROM orders WHERE "+c.where); !strings.Contains(p, "Index Range Scan using "+c.want+" on orders") {
			t.Errorf("%s: want %s:\n%s", c.where, c.want, p)
		}
	}
	db = newDiffDB(t, false)
	for _, c := range []struct{ where, want string }{
		{"grp = 1 AND qty = 3", "Index Range Scan using items_gq"},
		{"grp = 1", "Index Range Scan using items_grp"},
		// A full key outranks any prefix.
		{"qty = 3 AND grp = 1 AND sub = 2", "Index Scan using items_grp"},
	} {
		if p := planText(t, db, "EXPLAIN SELECT id FROM items WHERE "+c.where); !strings.Contains(p, c.want+" on items") {
			t.Errorf("%s: want %s:\n%s", c.where, c.want, p)
		}
	}
}
