package dbms

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tscout/internal/exec"
	"tscout/internal/storage"
	"tscout/internal/txn"
	"tscout/internal/wal"
)

func TestSessionTxnAPI(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()

	// State machine guards.
	if _, err := se.Statement("SELECT 1"); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("statement without txn: %v", err)
	}
	if _, err := se.Commit(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("commit without txn: %v", err)
	}
	if err := se.Rollback(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("rollback without txn: %v", err)
	}
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	if err := se.BeginTxn(); !errors.Is(err, ErrTxnOpen) {
		t.Fatalf("double begin: %v", err)
	}
	if se.tx == nil {
		t.Fatalf("InTxn")
	}

	// Multi-statement transaction with data flow through the client.
	if _, err := se.Statement("INSERT INTO kv VALUES ($1, $2)",
		storage.NewInt(1), storage.NewString("one")); err != nil {
		t.Fatal(err)
	}
	res, err := se.Statement("SELECT v FROM kv WHERE k = $1", storage.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "one" {
		t.Fatalf("read own write: %+v", res.Rows)
	}
	c, err := se.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if c == nil || !c.Resolved {
		t.Fatalf("synchronous WAL must resolve: %+v", c)
	}

	// Read-only transactions produce no WAL commit.
	se.BeginTxn()
	se.Statement("SELECT COUNT(*) FROM kv")
	if c, err := se.Commit(); err != nil || c != nil {
		t.Fatalf("read-only commit: %v %+v", err, c)
	}
}

func TestSessionRollback(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	se.BeginTxn()
	se.Statement("INSERT INTO kv VALUES (5, 'five')")
	if err := se.Rollback(); err != nil {
		t.Fatal(err)
	}
	se.BeginTxn()
	res, _ := se.Statement("SELECT COUNT(*) FROM kv")
	se.Commit()
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("rollback must discard: %+v", res.Rows)
	}
}

func TestSessionStatementErrorAborts(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	se.BeginTxn()
	se.Statement("INSERT INTO kv VALUES (9, 'x')")
	if _, err := se.Statement("SELECT * FROM nosuch"); err == nil {
		t.Fatalf("unknown table must fail")
	}
	if se.tx != nil {
		t.Fatalf("statement error must abort the transaction")
	}
	// The insert rolled back with it.
	se.BeginTxn()
	res, _ := se.Statement("SELECT COUNT(*) FROM kv")
	se.Commit()
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("abort must roll back: %+v", res.Rows)
	}
	// Parse errors too.
	se.BeginTxn()
	if _, err := se.Statement("SELEC nonsense"); err == nil {
		t.Fatalf("parse error must fail")
	}
	if se.tx != nil {
		t.Fatalf("parse error must abort")
	}
}

func TestSessionWriteConflictIsRetryable(t *testing.T) {
	srv := newTestServer(t, false)
	loader := srv.NewSession()
	if _, err := loader.Execute("INSERT INTO kv VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	a, b := srv.NewSession(), srv.NewSession()
	a.BeginTxn()
	b.BeginTxn()
	if _, err := a.Statement("UPDATE kv SET v = 'a' WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	_, err := b.Statement("UPDATE kv SET v = 'b' WHERE k = 1")
	if !IsConflict(err) {
		t.Fatalf("concurrent update must conflict: %v", err)
	}
	if !IsConflict(txn.ErrWriteConflict) || IsConflict(nil) || IsConflict(errors.New("x")) {
		t.Fatalf("IsConflict classification")
	}
	if _, err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionStatementChargesNetworking(t *testing.T) {
	srv, points := newArchivingServer(t)
	se := srv.NewSession()
	se.BeginTxn()
	se.Statement("SELECT COUNT(*) FROM kv")
	se.Commit()
	reads := 0
	for _, p := range points() {
		if p.OUName == "net_read" {
			reads++
			if p.Metrics.NetRecvBytes <= 0 {
				t.Fatalf("net_read without bytes: %+v", p.Metrics)
			}
		}
	}
	if reads == 0 {
		t.Fatalf("Statement must fire the networking read OU")
	}
}

func TestGroupCommitAcrossSessions(t *testing.T) {
	srv, err := NewServer(Config{
		Seed: 4,
		WAL:  wal.Config{GroupSize: 2, FlushIntervalNS: 1 << 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Catalog.CreateTable("kv", storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "v", Kind: storage.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	a, b := srv.NewSession(), srv.NewSession()
	a.BeginTxn()
	a.Statement("INSERT INTO kv VALUES (1, 'a')")
	ca, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if ca.Resolved {
		t.Fatalf("first commit must wait for the group")
	}
	b.BeginTxn()
	b.Statement("INSERT INTO kv VALUES (2, 'b')")
	cb, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !ca.Resolved || !cb.Resolved {
		t.Fatalf("group of 2 must flush both")
	}
	if ca.DoneNS != cb.DoneNS {
		t.Fatalf("group members share durability time")
	}
}

// TestResultSurvivesLaterStatements: a *Result belongs to its caller for
// good. TPC-C's delivery reads a result two statements after it was
// returned; here a SELECT *, a projection, a join, an aggregate, a
// COUNT(*) join and an UPDATE's count are held across later scans on the
// same session — first ones that fit the session's statement scratch and
// so overwrite it in place, then one that outgrows it — across hundreds of
// small statements on it and on a second session, which use up the
// engine's result chunks, and across an UPDATE and commit of the very
// tuples they returned. It fails if a result ever aliases scratch, if
// result memory is ever handed out twice, or if a stored row is ever
// written to.
func TestResultSurvivesLaterStatements(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	execute := func(q string, params ...storage.Value) {
		t.Helper()
		if _, err := se.Execute(q, params...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	execute("CREATE TABLE big (id INT PRIMARY KEY, k INT, pad VARCHAR)")
	for i := int64(0); i < 8; i++ {
		execute("INSERT INTO kv VALUES ($1, $2)", storage.NewInt(i), storage.NewString(fmt.Sprint("v", i)))
	}
	for i := int64(0); i < 600; i++ {
		execute("INSERT INTO big VALUES ($1, $2, 'pad')", storage.NewInt(i), storage.NewInt(i%8))
	}
	render := func(res *exec.Result) string {
		var sb strings.Builder
		fmt.Fprintln(&sb, res.Cols, res.Affected)
		for _, row := range res.Rows {
			for _, v := range row {
				sb.WriteString(v.String() + "|")
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	statement := func(q string) *exec.Result {
		t.Helper()
		res, err := se.Statement(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	// Each later statement is larger than every held one and uses the same
	// scratch slots: scan, joined table, join output.
	later := []string{
		"SELECT * FROM big WHERE id < 300",
		"SELECT pad, id FROM big WHERE id < 300",
		"SELECT * FROM big JOIN kv ON kv.k = big.k WHERE big.id < 300",
		"SELECT k, COUNT(*) FROM big GROUP BY k",
	}

	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	for _, q := range later { // grow the scratch past what the held statements need
		statement(q)
	}
	held := map[string]*exec.Result{}
	want := map[string]string{}
	for _, q := range []string{
		"SELECT * FROM kv WHERE k = 3",
		"SELECT * FROM kv",
		"SELECT v, k FROM kv WHERE k >= 2",
		"SELECT * FROM kv JOIN big ON big.k = kv.k WHERE big.id < 20",
		"SELECT COUNT(*), MIN(v), MAX(k) FROM kv",
		"SELECT COUNT(*) FROM kv JOIN big ON big.k = kv.k WHERE big.id < 20",
		"UPDATE big SET pad = 'held' WHERE id >= 590",
	} {
		held[q] = statement(q)
		want[q] = render(held[q])
		if len(held[q].Rows) == 0 && held[q].Affected == 0 {
			t.Fatalf("%s returned nothing to hold", q)
		}
	}
	check := func(after string) {
		t.Helper()
		for q, res := range held {
			if got := render(res); got != want[q] {
				t.Fatalf("after %s, the held result of %q changed:\n%s\nwas:\n%s", after, q, got, want[q])
			}
		}
	}
	for _, q := range later { // overwrite the scratch in place
		statement(q)
		check(q)
	}
	for _, q := range []string{"SELECT * FROM big", "SELECT * FROM big JOIN kv ON kv.k = big.k"} { // outgrow it
		statement(q)
		check(q)
	}
	other := srv.NewSession()  // every session's results are cut from the same chunks
	for i := 0; i < 300; i++ { // use up several of each kind of result chunk
		statement("SELECT v, k FROM kv WHERE k >= 2")
		statement("UPDATE big SET pad = 'again' WHERE id >= 590")
		if _, err := other.Execute("SELECT * FROM kv WHERE k < 6"); err != nil {
			t.Fatal(err)
		}
	}
	check("900 small statements on two sessions")
	// Rewrite the tuples the held results came from: twice in this
	// transaction (the second write collapses into the first's version),
	// then once more after the commit.
	statement("UPDATE kv SET v = 'changed'")
	statement("UPDATE kv SET v = 'again', k = k + 100")
	check("two UPDATEs")
	if _, err := se.Commit(); err != nil {
		t.Fatal(err)
	}
	check("commit")
	execute("UPDATE kv SET v = 'later' WHERE k >= 100")
	execute("UPDATE big SET pad = 'later' WHERE id < 20")
	check("a later transaction's UPDATE")
}
