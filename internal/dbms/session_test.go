package dbms

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tscout/internal/exec"
	"tscout/internal/network"
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

// TestResultSurvivesLaterStatements: a *Result is valid until its
// session's next call, however many statements that call runs. Here one
// packet returns the held results — a SELECT *, a projection, a join, an
// aggregate, a COUNT(*) join and an UPDATE's count — and then runs later
// scans on the same session, first ones that fit the session's statement
// scratch and so overwrite it in place, then ones that outgrow it, and
// then UPDATEs of the very tuples the results returned; after the packet
// has committed, a second session runs hundreds of statements and commits
// another UPDATE of those tuples. It fails if a result ever aliases
// scratch, if result memory is handed out twice within a call, or if a
// stored row is ever written to.
func TestResultSurvivesLaterStatements(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	execute := func(se *Session, q string, params ...storage.Value) {
		t.Helper()
		if _, err := se.Execute(q, params...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	execute(se, "CREATE TABLE big (id INT PRIMARY KEY, k INT, pad VARCHAR)")
	for i := int64(0); i < 8; i++ {
		execute(se, "INSERT INTO kv VALUES ($1, $2)", storage.NewInt(i), storage.NewString(fmt.Sprint("v", i)))
	}
	for i := int64(0); i < 600; i++ {
		execute(se, "INSERT INTO big VALUES ($1, $2, 'pad')", storage.NewInt(i), storage.NewInt(i%8))
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
	packet := func(qs ...string) []*exec.Result {
		t.Helper()
		pr := se.SubmitPacket(network.EncodeScript(qs...))
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		return pr.Results
	}
	// Each later statement is larger than every held one and uses the same
	// scratch slots: scan, joined table, join output.
	later := []string{
		"SELECT * FROM big WHERE id < 300",
		"SELECT pad, id FROM big WHERE id < 300",
		"SELECT * FROM big JOIN kv ON kv.k = big.k WHERE big.id < 300",
		"SELECT k, COUNT(*) FROM big GROUP BY k",
	}
	packet(later...) // grow the scratch past what the held statements need

	held := []string{
		"SELECT * FROM kv WHERE k = 3",
		"SELECT * FROM kv",
		"SELECT v, k FROM kv WHERE k >= 2",
		"SELECT * FROM kv JOIN big ON big.k = kv.k WHERE big.id < 20",
		"SELECT COUNT(*), MIN(v), MAX(k) FROM kv",
		"SELECT COUNT(*) FROM kv JOIN big ON big.k = kv.k WHERE big.id < 20",
		"UPDATE big SET pad = 'held' WHERE id >= 590",
	}
	// What each held statement returns, each run in a call of its own.
	var want []string
	for _, q := range held {
		if err := se.BeginTxn(); err != nil {
			t.Fatal(err)
		}
		res, err := se.Statement(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(res.Rows) == 0 && res.Affected == 0 {
			t.Fatalf("%s returned nothing to hold", q)
		}
		want = append(want, render(res))
		if err := se.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	qs := append(append([]string(nil), held...), later...) // overwrite the scratch in place
	qs = append(qs,
		"SELECT * FROM big", "SELECT * FROM big JOIN kv ON kv.k = big.k", // outgrow it
		// Rewrite the tuples the held results came from, twice (the second
		// write collapses into the first's version).
		"UPDATE kv SET v = 'changed'", "UPDATE kv SET v = 'again', k = k + 100")
	results := packet(qs...)
	check := func(after string) {
		t.Helper()
		for i, q := range held {
			if got := render(results[i]); got != want[i] {
				t.Fatalf("after %s, the held result of %q changed:\n%s\nwas:\n%s", after, q, got, want[i])
			}
		}
	}
	check("the later statements of its packet and its commit")
	other := srv.NewSession()
	for i := 0; i < 300; i++ {
		execute(other, "SELECT v, k FROM kv WHERE k >= 2")
		execute(other, "UPDATE big SET pad = 'again' WHERE id >= 590")
	}
	check("600 statements on another session")
	execute(other, "UPDATE kv SET v = 'later' WHERE k >= 100")
	execute(other, "UPDATE big SET pad = 'later' WHERE id < 20")
	check("another session's UPDATE")
}

// TestResultOutlivesOtherSessionsCommits: a result is its session's until
// that session's next call, whatever other sessions do meanwhile. A SELECT *
// result still reads its row after other sessions have committed 1 000
// updates of it, although each commit cuts the version the one before
// installed and the next update rewrites it: the projection copied the
// cells, it did not hand out the stored row.
func TestResultOutlivesOtherSessionsCommits(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	if _, err := se.Execute("INSERT INTO kv VALUES (1, 'one')"); err != nil {
		t.Fatal(err)
	}
	if err := se.BeginTxn(); err != nil {
		t.Fatal(err)
	}
	held, err := se.Statement("SELECT * FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Commit(); err != nil {
		t.Fatal(err)
	}
	const want = "1|one|"
	writers := []*Session{srv.NewSession(), srv.NewSession()}
	for i := range 1000 {
		if _, err := writers[i%2].Execute("UPDATE kv SET v = $1 WHERE k = 1", storage.NewString(fmt.Sprint("n", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := held.Rows[0][0].String() + "|" + held.Rows[0][1].String() + "|"; got != want {
		t.Fatalf("the held row reads %s, want %s", got, want)
	}
	res, err := se.Execute("SELECT v FROM kv WHERE k = 1")
	if err != nil || res.Rows[0][0].Str() != "n999" {
		t.Fatalf("a new read sees %v (%v), want the last update", res, err)
	}
}

// TestPacketResultsLiveUntilNextCall: every result of a packet holds its
// values until the session's next call, which takes them back. The second
// statement runs after the first one's result is cut, so rewinding per
// statement, not per call, would hand it the first one's memory.
func TestPacketResultsLiveUntilNextCall(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	for i, v := range []string{"one", "two"} {
		if _, err := se.Execute("INSERT INTO kv VALUES ($1, $2)", storage.NewInt(int64(i+1)), storage.NewString(v)); err != nil {
			t.Fatal(err)
		}
	}
	pr := se.SubmitPacket(network.EncodeScript(
		"SELECT v FROM kv WHERE k = 1", "SELECT k, v FROM kv WHERE k = 2"))
	if pr.Err != nil {
		t.Fatal(pr.Err)
	}
	first, second := pr.Results[0], pr.Results[1]
	read := func() string {
		var sb strings.Builder
		for _, res := range []*exec.Result{first, second} {
			for _, row := range res.Rows {
				for _, v := range row {
					sb.WriteString(v.String() + "|")
				}
			}
		}
		return sb.String()
	}
	const want = "one|2|two|"
	if got := read(); got != want {
		t.Fatalf("the packet's results read %q, want %q", got, want)
	}
	if _, err := srv.NewSession().Execute("UPDATE kv SET v = 'changed'"); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != want {
		t.Fatalf("after another session's call the packet's results read %q, want %q", got, want)
	}
	// The session's next call takes the memory back: a borrowed result
	// read after it is cleared or a later statement's.
	if _, err := se.Execute("SELECT COUNT(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if got := read(); got == want {
		t.Fatalf("the packet's results still read %q after the session's next call", got)
	}
}

// TestCommitReusesResolvedHandle: the commit handle is the session's. Once
// a commit has resolved, the session's next commit returns the same handle,
// refilled with the new commit's bytes and times.
func TestCommitReusesResolvedHandle(t *testing.T) {
	srv := newTestServer(t, false)
	se := srv.NewSession()
	commit := func(keys ...int64) *wal.Commit {
		t.Helper()
		se.BeginTxn()
		for _, k := range keys {
			if _, err := se.Statement("INSERT INTO kv VALUES ($1, 'v')", storage.NewInt(k)); err != nil {
				t.Fatal(err)
			}
		}
		c, err := se.Commit()
		if err != nil || c == nil || !c.Resolved {
			t.Fatalf("commit of %v: %+v, %v; want a resolved handle (synchronous WAL)", keys, c, err)
		}
		return c
	}
	first := commit(1)
	firstBytes, firstDone := first.Bytes, first.DoneNS
	_, _, before := srv.WAL.Stats()
	second := commit(2, 3)
	_, _, after := srv.WAL.Stats()
	if second != first {
		t.Fatalf("the second commit took a new handle after the first resolved")
	}
	if second.Bytes != after-before || second.Bytes == firstBytes || second.DoneNS <= firstDone {
		t.Fatalf("reused handle carries bytes %d done %d; the commit flushed %d bytes, the first handle had %d bytes done %d",
			second.Bytes, second.DoneNS, after-before, firstBytes, firstDone)
	}
}

// TestCommitBeforeFlushTakesANewHandle: a session that commits again while
// the WAL still holds its last handle (runner.sweepScans does) gets a new
// handle, and both resolve with their own counts.
func TestCommitBeforeFlushTakesANewHandle(t *testing.T) {
	srv, err := NewServer(Config{Seed: 4, WAL: wal.Config{GroupSize: 32, FlushIntervalNS: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Catalog.CreateTable("kv", storage.MustSchema(
		storage.Column{Name: "k", Kind: storage.KindInt},
		storage.Column{Name: "v", Kind: storage.KindString},
	)); err != nil {
		t.Fatal(err)
	}
	se := srv.NewSession()
	var commits []*wal.Commit
	for i, rows := range []int{1, 3} {
		se.BeginTxn()
		for r := 0; r < rows; r++ {
			if _, err := se.Statement("INSERT INTO kv VALUES ($1, 'v')", storage.NewInt(int64(10*i+r))); err != nil {
				t.Fatal(err)
			}
		}
		c, err := se.Commit()
		if err != nil || c == nil || c.Resolved {
			t.Fatalf("commit %d: %+v, %v; want a pending handle", i, c, err)
		}
		commits = append(commits, c)
	}
	a, b := commits[0], commits[1]
	if a == b {
		t.Fatalf("a pending handle was reused")
	}
	srv.WAL.Flush(se.Task.Now())
	flushes, records, bytes := srv.WAL.Stats()
	if !a.Resolved || !b.Resolved || flushes != 1 {
		t.Fatalf("after one flush (%d counted): resolved %v and %v", flushes, a.Resolved, b.Resolved)
	}
	// One redo record per insert plus one commit record each.
	if records != (1+1)+(3+1) || bytes != a.Bytes+b.Bytes || a.Bytes >= b.Bytes {
		t.Fatalf("WAL logged %d records, %d bytes; the handles carry %d and %d bytes", records, bytes, a.Bytes, b.Bytes)
	}
}
